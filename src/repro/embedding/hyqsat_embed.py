"""HyQSAT's linear-time two-step embedding scheme (Section IV-B).

Step 1 pops clauses from the clause queue in order and allocates each
new formula variable to the next free *vertical line*, while recording
the required chain connections in a
:class:`~repro.embedding.crl.ConnectionRequirementList` (CRL).  The
connection requirements come from the Eq. 4 problem graph of each
clause: a 3-literal clause ``l1 ∨ l2 ∨ l3`` with auxiliary ``a``
contributes the edges ``(v1, v2)`` (the ``H1·H2`` term) and
``(a, v1), (a, v2), (a, v3)``.

Step 2 satisfies the CRL by allocating *horizontal-line* segments,
bottom line first, left to right, greedily packing segments
out-of-order so each line is maximally utilised.  A vertical variable's
segment must also cross its own vertical line (keeping the chain
connected); auxiliary variables live purely on horizontal lines
(they connect at most three chains, so one segment suffices).

Both steps touch each qubit O(1) times: overall O(N_q) — the paper's
complexity claim — versus the iterative routing of Minorminer
(O(N_q · N_p² · log N_p)).

Clauses whose variables no longer fit on vertical lines, or whose
connection requirements cannot be allocated, are simply *not embedded*
(the hybrid solver keeps them on the CDCL side); everything that did
fit is returned with a valid embedding.

The embedder runs as one call into the frontend library
(``core/frontend.c``, built by :mod:`repro.cdcl.native` on the first
embed) and returns :class:`~repro.embedding.base.EmbeddingArrays`; the
:class:`~repro.embedding.base.Embedding` and the coupler map are built
only when read.  :meth:`HyQSatEmbedder._embed_loops` is the Python
oracle and the no-compiler path, and both give identical results.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.cdcl import native
from repro.embedding.base import Edge, Embedding, EmbeddingArrays, _norm_edge
from repro.embedding.crl import ConnectionRequirementList
from repro.qubo.encoding import FormulaEncoding
from repro.topology.chimera import ChimeraGraph

#: A horizontal-line segment: (owner, line index, first col, last col).
_Segment = Tuple[int, int, int, int]


@dataclass(frozen=True)
class HyQSatEmbeddingResult:
    """Embedding result with per-clause accounting.

    ``arrays`` holds the chains and the realised edges' couplers;
    ``embedded_clauses`` are indices (into the encoding's clause list)
    of clauses whose every problem edge was realised; ``success`` is
    true when that is *all* clauses.  ``elapsed_seconds`` is the
    wall-clock embedding time — the Figure 13 (a) metric.
    """

    arrays: EmbeddingArrays
    success: bool
    elapsed_seconds: float
    embedded_clauses: Tuple[int, ...] = ()
    unembedded_clauses: Tuple[int, ...] = ()

    @property
    def embedding(self) -> Embedding:
        """The chains as an :class:`Embedding` (built when first read)."""
        return self.arrays.embedding

    @property
    def edge_couplers(self) -> Dict[Edge, Tuple[Tuple[int, int], ...]]:
        """Each realised problem edge's couplers (built when first read)."""
        return self.arrays.edge_couplers

    @property
    def num_embedded(self) -> int:
        """Count of fully-embedded clauses."""
        return len(self.embedded_clauses)

    @property
    def max_chain_length(self) -> int:
        """Longest chain (0 for an empty embedding)."""
        return int(self.arrays.sizes.max(initial=0))

    @property
    def avg_chain_length(self) -> float:
        """Mean chain length (0.0 for an empty embedding)."""
        sizes = self.arrays.sizes
        return int(sizes.sum()) / len(sizes) if len(sizes) else 0.0


def _requirements(variables: Sequence[int], aux: int) -> List[Tuple[int, int]]:
    """CRL entries (owner, target) of one clause.

    The first literal's variable owns the variable-variable edge; the
    auxiliary owns its three connections (it has no vertical line, so
    it must be the one extending onto horizontal qubits).
    """
    if len(variables) == 2:
        return [(variables[0], variables[1])]
    if len(variables) == 3:
        v1, v2, v3 = variables
        return [(v1, v2), (aux, v1), (aux, v2), (aux, v3)]
    return []


def clause_edges(encoding: FormulaEncoding, clause_index: int) -> List[Edge]:
    """Problem-graph edges contributed by one encoded clause."""
    variables = [v for v in abs(encoding.clauses.lits[clause_index]).tolist() if v]
    aux = int(encoding.aux[clause_index])
    return [_norm_edge(o, t) for o, t in _requirements(variables, aux)]


class HyQSatEmbedder:
    """The Section IV-B embedder for a Chimera lattice.

    Lines are addressed by index into the hardware's
    :attr:`~repro.topology.chimera.ChimeraGraph.line_qubits` tables:
    vertical line ``col * shore + unit``, horizontal line
    ``row * shore + unit``.  Free cells of a horizontal line are one
    bit per column.
    """

    def __init__(self, hardware: ChimeraGraph):
        self.hardware = hardware
        #: The native embed's output slots for an empty queue (each
        #: clause adds 24): the counts, a chain per vertical line, and
        #: every qubit.
        self._capacity = 8 + 3 * hardware.num_vertical_lines + hardware.num_qubits

    def embed(self, encoding: FormulaEncoding) -> HyQSatEmbeddingResult:
        """Embed as many queue clauses as fit, in queue order.

        ``elapsed_seconds`` times the embedding alone: the library is
        loaded (built, on a process's first embed) before the clock
        starts."""
        kernel = native.load_frontend_kernel()
        start = time.perf_counter()
        if kernel is None:
            return self._embed_loops(encoding, start)
        hardware = self.hardware
        lits = np.ascontiguousarray(encoding.clauses.lits, np.int64)
        aux = np.ascontiguousarray(encoding.aux, np.int64)
        n, width = lits.shape
        # Chains are disjoint (so at most every qubit), one per vertical
        # line plus one per auxiliary; a clause needs at most four
        # requirements, so edges and couplers.  The library writes only
        # the prefix it uses.
        capacity = self._capacity + 24 * n
        out = np.empty(capacity, np.int64)
        status = kernel.embed_run(
            n,
            width,
            native.address(lits),
            native.address(aux),
            hardware.rows,
            hardware.cols,
            hardware.shore,
            capacity,
            native.address(out),
        )
        if status:
            raise MemoryError(f"embed_run failed with status {status}")
        chains, qubits, edges, couplers, embedded = out[:5].tolist()
        ends = list(
            accumulate([8, chains, chains, chains, qubits, 2 * edges, edges, 2 * couplers])
        )
        arrays = EmbeddingArrays(
            variables=out[ends[0] : ends[1]],
            starts=out[ends[1] : ends[2]],
            order=out[ends[2] : ends[3]],
            qubits=out[ends[3] : ends[4]],
            edges=out[ends[4] : ends[5]].reshape(-1, 2),
            coupler_starts=out[ends[5] : ends[6]],
            couplers=out[ends[6] : ends[7]].reshape(-1, 2),
        )
        split = ends[7] + embedded
        return HyQSatEmbeddingResult(
            arrays=arrays,
            success=embedded == n,
            elapsed_seconds=time.perf_counter() - start,
            embedded_clauses=tuple(out[ends[7] : split].tolist()),
            unembedded_clauses=tuple(out[split : ends[7] + n].tolist()),
        )

    def _embed_loops(
        self, encoding: FormulaEncoding, start: float
    ) -> HyQSatEmbeddingResult:
        """:meth:`embed` as Python loops over dicts: the oracle of the
        native embed, and the path taken when no library loads."""
        hardware = self.hardware
        shore, cols = hardware.shore, hardware.cols
        vertical, horizontal = hardware.line_qubits
        clause_rows = abs(encoding.clauses.lits).tolist()
        aux = encoding.aux.tolist()

        # ---------------- Step 1: vertical-line allocation ----------------
        line_of_var: Dict[int, int] = {}
        crl = ConnectionRequirementList()
        candidates: List[List[int]] = []  # variables of each candidate
        for k, row in enumerate(clause_rows):
            variables = [v for v in row if v]
            new_vars = [v for v in variables if v not in line_of_var]
            if len(line_of_var) + len(new_vars) > len(vertical):
                break  # vertical capacity reached; queue order stops here
            for var in new_vars:
                line_of_var[var] = len(line_of_var)
            for owner, target in _requirements(variables, aux[k]):
                crl.add(owner, target, k)
            candidates.append(variables)

        # ---------------- Step 2: horizontal-line allocation --------------
        hlines = [
            row * shore + unit
            for row in range(hardware.rows - 1, -1, -1)
            for unit in range(shore)
        ]
        full = (1 << cols) - 1
        free: Dict[int, int] = {}
        segments: List[_Segment] = []
        coupling_rows: Dict[int, Set[int]] = {var: set() for var in line_of_var}
        realized: Dict[Edge, List[Tuple[int, int]]] = {}

        def place(owner: int, targets: Sequence[int], span, hline: int) -> None:
            """Record the segment and the problem edges it realises."""
            segments.append((owner, hline, span[0], span[1]))
            row = hline // shore
            for target in targets:
                vline = line_of_var[target]
                realized.setdefault(_norm_edge(owner, target), []).append(
                    (horizontal[hline][vline // shore], vertical[vline][row])
                )
                coupling_rows[target].add(row)
            if owner in line_of_var:
                coupling_rows[owner].add(row)

        # A requirement's column span never changes within step 2.
        pending = [
            (owner, targets, self._span(owner, targets, line_of_var))
            for owner, targets in ((o, crl.targets_of(o)) for o in crl.owners())
        ]
        for hline in hlines:
            if not pending:
                break
            cells = full
            still_pending = []
            for owner, targets, span in pending:
                if span is None or cells & span[2] != span[2]:
                    still_pending.append((owner, targets, span))
                else:
                    cells &= ~span[2]
                    place(owner, targets, span, hline)
            free[hline] = cells
            # Free cells only shrink, so a requirement that failed on
            # this line cannot fit later: always move to the next line.
            pending = still_pending

        # Split pass: merged requirements that never fit are retried as
        # one segment per target, which has a smaller column span.  Only
        # vertical owners split (an auxiliary chain must stay a single
        # connected segment).
        for owner, targets, _ in pending:
            if owner not in line_of_var:
                continue
            for target in targets:
                span = self._span(owner, [target], line_of_var)
                for hline in hlines if span is not None else ():
                    cells = free.get(hline, full)
                    if cells & span[2] == span[2]:
                        free[hline] = cells & ~span[2]
                        place(owner, [target], span, hline)
                        break

        # ---------------- Clause classification ---------------------------
        segments_of: Dict[int, List[_Segment]] = {}
        for segment in segments:
            segments_of.setdefault(segment[0], []).append(segment)
        embedded: List[int] = []
        unembedded: List[int] = list(range(len(candidates), len(clause_rows)))
        for k, variables in enumerate(candidates):
            if aux[k] and aux[k] not in segments_of or not all(
                realized.get(_norm_edge(o, t))
                for o, t in _requirements(variables, aux[k])
            ):
                unembedded.append(k)
            else:
                embedded.append(k)
        # Auxiliary chains of unembedded clauses are dropped.
        dropped_aux = {aux[k] for k in unembedded if aux[k]}

        # ---------------- Chain construction ------------------------------
        # Trimmed vertical spans plus owned segments, then the kept
        # auxiliary chains.
        embedding = Embedding()
        for var, vline in line_of_var.items():
            rows = coupling_rows[var] or {hardware.rows - 1}
            qubits = vertical[vline][min(rows) : max(rows) + 1]
            for _, hline, c1, c2 in segments_of.get(var, ()):
                qubits = qubits + horizontal[hline][c1 : c2 + 1]
            embedding.set_chain(var, qubits)
        for owner, owned in segments_of.items():
            if owner not in line_of_var and owner not in dropped_aux:
                embedding.set_chain(
                    owner,
                    [q for _, h, c1, c2 in owned for q in horizontal[h][c1 : c2 + 1]],
                )

        edge_couplers = {
            edge: tuple(couplers) for edge, couplers in realized.items()
        }
        arrays = EmbeddingArrays.from_embedding(embedding, edge_couplers)
        embedded_clauses = tuple(embedded)
        unembedded_clauses = tuple(sorted(unembedded))
        # The clock stops once every part of the result is built.
        return HyQSatEmbeddingResult(
            arrays=arrays,
            success=len(embedded) == len(clause_rows),
            elapsed_seconds=time.perf_counter() - start,
            embedded_clauses=embedded_clauses,
            unembedded_clauses=unembedded_clauses,
        )

    def _span(
        self, owner: int, targets: Sequence[int], line_of_var: Dict[int, int]
    ) -> Optional[Tuple[int, int, int]]:
        """``(first col, last col, column bit mask)`` a segment must
        cover, or None if a target (or a vertical owner) has no
        vertical line."""
        shore = self.hardware.shore
        cols: List[int] = []
        if owner in line_of_var:
            cols.append(line_of_var[owner] // shore)
        elif owner <= 0:
            return None
        for target in targets:
            line = line_of_var.get(target)
            if line is None:
                return None
            cols.append(line // shore)
        if not cols:
            return None
        c1, c2 = min(cols), max(cols)
        return c1, c2, ((1 << (c2 - c1 + 1)) - 1) << c1
