"""Compiling a logical objective onto the embedded hardware graph.

Given a (normalised) logical objective and a chain embedding, the
physical problem is built the way a D-Wave front-end does:

- each logical linear bias ``B_v`` is spread uniformly over the qubits
  of v's chain;
- each logical quadratic coefficient ``J_uv`` is spread uniformly over
  the hardware couplers that join the two chains (found at embed time);
- every intra-chain hardware coupler receives an equality penalty of
  ``chain_strength`` — in 0/1 form, ``cs·(x_a + x_b − 2 x_a x_b)`` —
  which is zero when the chain agrees and positive when it breaks.

The result is a compact indexed problem over only the *used* qubits,
held as the arrays the read-out works on: the symmetric coupling CSR in
scipy's layout (the sweeps sum each row in its order), the float32
forms the sweep library reads, one contiguous index run per chain for
the vote, and the logical objective's terms for the correction and the
energy.  A frontend cache hit reuses all of them.  The tuple views
(``qubits``, ``couplings``, ``chain_edges``, ``chain_of_index``) are
built only when read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.cdcl import native
from repro.embedding.base import EmbeddingArrays
from repro.qubo.ising import LogicalArrays
from repro.topology.chimera import ChimeraGraph

if TYPE_CHECKING:
    from scipy import sparse


def _sort_order(keys: np.ndarray) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for non-negative int64 keys
    below ``2**62 / len(keys)``, taken from one value sort: each key
    carries its index in its low bits (NumPy's value sort is
    vectorised, its argsort is not)."""
    shift = len(keys).bit_length()
    packed = np.sort((keys << shift) | np.arange(len(keys)))
    return packed & ((1 << shift) - 1)


def _run_starts(ordered: np.ndarray) -> np.ndarray:
    """Mask of the first element of each run of equal values."""
    starts = np.ones(len(ordered), dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    return starts


def symmetric_csr(
    n: int, rows: np.ndarray, cols: np.ndarray, weights: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(indptr, indices, data)`` of the symmetric matrix with
    ``weights[k]`` at ``(rows[k], cols[k])`` and its mirror.

    The pairs must be distinct with ``rows[k] < cols[k] < n``.  The
    layout is the one ``coo_matrix(...).tocsr()`` builds (int32
    indices, rows in order, columns ascending within a row), so every
    row product sums in scipy's order.
    """
    both_rows = np.concatenate([rows, cols])
    both_cols = np.concatenate([cols, rows])
    order = _sort_order(both_rows * n + both_cols)
    indptr = np.zeros(n + 1, dtype=np.int32)
    indptr[1:] = np.cumsum(np.bincount(both_rows, minlength=n))
    data = np.concatenate([weights, weights])[order]
    return indptr, both_cols[order].astype(np.int32), data


class ProgrammedArrays(NamedTuple):
    """What one anneal reads: the biases and the symmetric coupling CSR
    as programmed (float64), and their float32 forms."""

    linear: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    linear32: np.ndarray
    data32: np.ndarray
    #: ``-0.5 * data32``, the sweeps' couplings.
    scaled: np.ndarray
    #: ``linear32 + rowsum(data32) / 2``, each row summed as scipy's
    #: ``matrix.sum(axis=1)`` sums it.
    c: np.ndarray

    @classmethod
    def build(
        cls,
        linear: np.ndarray,
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
    ) -> "ProgrammedArrays":
        linear32 = linear.astype(np.float32)
        data32 = data.astype(np.float32)
        rowsum = np.zeros(len(linear), dtype=np.float32)
        rows = np.flatnonzero(np.diff(indptr))
        if rows.size:
            rowsum[rows] = np.add.reduceat(data32, indptr[rows])
        return cls(
            linear,
            indptr,
            indices,
            data,
            linear32,
            data32,
            data32 * np.float32(-0.5),
            linear32 + np.float32(0.5) * rowsum,
        )

    def csr(self, data: np.ndarray) -> sparse.csr_matrix:
        """The scipy matrix over these indices with ``data`` (the
        float64 or float32 couplings)."""
        from scipy import sparse

        n = len(self.linear)
        return sparse.csr_matrix((data, self.indices, self.indptr), shape=(n, n))


def batch_energies(
    linear: np.ndarray,
    couplings: sparse.csr_matrix,
    states: np.ndarray,
    offset: float = 0.0,
) -> np.ndarray:
    """Energies of a ``(R, n)`` batch of 0/1 states in one sparse pass.

    ``couplings`` must be the *symmetric* sparse coupling matrix (both
    ``(i, j)`` and ``(j, i)`` populated), so the quadratic term is
    ``x @ C @ x / 2``.  This is the batch-energy kernel shared by the
    sampler's best-replica selection and :meth:`EmbeddedProblem.energies`.
    """
    states = np.asarray(states, dtype=float)
    if states.ndim != 2:
        raise ValueError(f"states must be (R, n), got shape {states.shape}")
    quad = couplings @ states.T  # (n, R)
    return offset + states @ linear + 0.5 * np.einsum("ij,ji->i", states, quad)


@dataclass(frozen=True)
class EmbeddedProblem:
    """A physical QUBO over the used qubits, in dense-index form.

    Index ``i`` is the physical qubit ``qubit_ids[i]``; each chain is one
    contiguous run of indices, the chains in ascending variable order.

    Attributes
    ----------
    qubit_ids:
        The used physical qubit ids, in index order.
    linear:
        Per-qubit bias vector (float64).
    indptr, indices, data:
        The symmetric coupling matrix in CSR form, problem and chain
        couplers together, laid out as :func:`symmetric_csr` lays it out.
    chain_variables:
        The logical variable of each chain, in index order.
    chain_starts:
        The first index of each chain.
    chain_couplers:
        ``(m, 2)`` index pairs ``i < j`` of the intra-chain couplers,
        sorted.
    offset:
        Constant term of the logical objective (carried through so
        physical energies are comparable).
    chain_strength:
        The chain penalty this problem was compiled with (``None`` for
        hand-built problems); lets a device recognise a precompiled
        problem as matching its own setting.
    logical:
        The compiled objective's terms (:class:`LogicalArrays`) for the
        read-out's correction and energy; ``None`` for hand-built
        problems, whose device takes them from the request's objective.
    """

    qubit_ids: np.ndarray
    linear: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    chain_variables: np.ndarray
    chain_starts: np.ndarray
    chain_couplers: np.ndarray
    offset: float
    chain_strength: Optional[float] = None
    logical: Optional[LogicalArrays] = field(default=None, repr=False)

    @classmethod
    def from_couplings(
        cls,
        qubits: Sequence[int],
        linear: Sequence[float],
        couplings: Sequence[Tuple[int, int, float]],
        chain_of_index: Sequence[int],
        offset: float = 0.0,
        chain_edges: Sequence[Tuple[int, int]] = (),
        chain_strength: Optional[float] = None,
    ) -> "EmbeddedProblem":
        """A hand-built problem: ``(i, j, weight)`` couplings over
        distinct index pairs, and ``chain_of_index`` giving each index's
        variable, each chain one contiguous run, in ascending variable
        order."""
        n = len(qubits)
        table = np.array(couplings, dtype=float).reshape(-1, 3)
        ends = table[:, :2].astype(np.int64)
        lo, hi = ends.min(axis=1), ends.max(axis=1)
        order = np.lexsort((hi, lo))
        owners = np.asarray(chain_of_index, dtype=np.int64)
        starts = np.flatnonzero(np.diff(owners, prepend=owners[:1] - 1))
        if (np.diff(owners[starts]) <= 0).any():
            raise ValueError(
                "chains must be contiguous index runs in ascending variable order"
            )
        return cls(
            np.asarray(qubits, dtype=np.int64),
            np.asarray(linear, dtype=float),
            *symmetric_csr(n, lo[order], hi[order], table[order, 2]),
            chain_variables=owners[starts],
            chain_starts=starts,
            chain_couplers=np.array(chain_edges, dtype=np.int64).reshape(-1, 2),
            offset=offset,
            chain_strength=chain_strength,
        )

    @property
    def num_qubits(self) -> int:
        """Number of physical qubits in play."""
        return len(self.qubit_ids)

    @cached_property
    def chain_sizes(self) -> np.ndarray:
        """Qubits per chain."""
        return np.diff(self.chain_starts, append=self.num_qubits)

    @cached_property
    def programmed(self) -> ProgrammedArrays:
        """The arrays a noiseless anneal reads, computed once."""
        return ProgrammedArrays.build(self.linear, self.indptr, self.indices, self.data)

    @cached_property
    def coupling_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(rows_i, rows_j, weights)``: one row per physical coupler
        (``i < j``), in index order — the layout the sampler's
        programming-noise channel draws over."""
        rows = np.repeat(np.arange(self.num_qubits), np.diff(self.indptr))
        upper = rows < self.indices
        return rows[upper], self.indices[upper].astype(np.int64), self.data[upper]

    @cached_property
    def qubits(self) -> Tuple[int, ...]:
        """The used physical qubit ids, as a tuple."""
        return tuple(self.qubit_ids.tolist())

    @cached_property
    def couplings(self) -> Tuple[Tuple[int, int, float], ...]:
        """``(i, j, weight)`` rows over dense indices, problem and chain
        couplers together."""
        rows_i, rows_j, weights = self.coupling_arrays
        return tuple(zip(rows_i.tolist(), rows_j.tolist(), weights.tolist()))

    @cached_property
    def chain_edges(self) -> Tuple[Tuple[int, int], ...]:
        """The intra-chain coupler index pairs."""
        return tuple(map(tuple, self.chain_couplers.tolist()))

    @cached_property
    def chain_of_index(self) -> Tuple[int, ...]:
        """Dense index -> logical variable."""
        return tuple(np.repeat(self.chain_variables, self.chain_sizes).tolist())

    @cached_property
    def couplings_csr(self) -> sparse.csr_matrix:
        """The symmetric coupling matrix as a scipy CSR over the
        problem's own arrays.

        Both ``(i, j)`` and ``(j, i)`` carry the coupler weight, so
        local fields are one ``matrix @ states`` product and energies
        use the ``x @ C @ x / 2`` convention of :func:`batch_energies`.
        """
        from scipy import sparse

        n = self.num_qubits
        return sparse.csr_matrix((self.data, self.indices, self.indptr), shape=(n, n))

    def energy(self, bits: np.ndarray) -> float:
        """Physical energy (including chain penalties) of a 0/1 vector."""
        state = np.asarray(bits, dtype=float)
        return float(
            batch_energies(self.linear, self.couplings_csr, state[None, :], self.offset)[0]
        )

    def energies(self, states: np.ndarray) -> np.ndarray:
        """Physical energies of a ``(R, n)`` batch of 0/1 states."""
        return batch_energies(self.linear, self.couplings_csr, states, self.offset)


def build_embedded_problem(
    terms: LogicalArrays,
    placement: EmbeddingArrays,
    hardware: ChimeraGraph,
    chain_strength: float = 2.0,
) -> EmbeddedProblem:
    """Compile an objective's ``terms`` onto the hardware through the
    embedder's chains and couplers (``placement``).

    The chains are contiguous qubit runs, so every bias and coupler
    weight is a ``np.bincount`` over qubit indices, in the order
    per-qubit and per-coupler adds would take.  Chain couplers are the
    hardware's :attr:`~repro.topology.chimera.ChimeraGraph.coupler_array`
    rows with both ends in one chain.  The couplings go straight into
    the symmetric CSR.

    The frontend library's ``compile_run`` does all of it in one call,
    with the :class:`ProgrammedArrays` the sweeps read; the NumPy body
    below is the no-compiler path, and both give identical arrays.

    Raises ``ValueError`` if the objective mentions an unembedded
    variable or a quadratic term has no realising coupler.
    """
    if chain_strength <= 0:
        raise ValueError(f"chain_strength must be positive, got {chain_strength}")
    kernel = native.load_frontend_kernel()
    if kernel is not None:
        problem = _compile_native(kernel, terms, placement, hardware, chain_strength)
        if problem is not None:
            return problem
    variables = placement.variables
    chain_of = np.searchsorted(variables, terms.variables)
    found = np.append(variables, -1)[chain_of] == terms.variables
    if not found.all():
        missing = terms.variables[~found].tolist()
        raise ValueError(f"objective variables not embedded: {missing[:5]}")

    sizes = placement.sizes
    qubits = placement.qubits
    n = len(qubits)
    first = placement.starts
    index_of = np.full(hardware.num_qubits, -1, dtype=np.int64)
    index_of[qubits] = np.arange(n)
    owner = np.full(hardware.num_qubits, -1, dtype=np.int64)
    owner[qubits] = np.repeat(np.arange(len(variables)), sizes)

    # Linear biases spread uniformly over chains.
    biased = chain_of[terms.linear_index]
    counts = sizes[biased]
    shares = terms.linear / counts
    bias_index = np.arange(counts.sum()) + np.repeat(
        first[biased] - (np.cumsum(counts) - counts), counts
    )

    # Problem couplings spread over realising couplers: each term's
    # edge by its (u, v) code, an edge absent from the map having none.
    edges, couplers = placement.edges, placement.couplers
    u = terms.variables[terms.quadratic_rows]
    v = terms.variables[terms.quadratic_cols]
    span = int(max(edges.max(initial=0), terms.variables.max(initial=0))) + 1
    codes = edges[:, 0] * span + edges[:, 1]
    by_code = np.argsort(codes)
    at = np.searchsorted(codes[by_code], u * span + v)
    hit = np.append(codes[by_code], -1)[at] == u * span + v
    edge = np.where(hit, np.append(by_code, len(edges))[at], len(edges))
    edge_starts = np.append(placement.coupler_starts, len(couplers))
    spread = np.append(np.diff(edge_starts), 0)[edge]
    if not spread.all():
        k = int(np.argmin(spread))
        key = (int(u[k]), int(v[k]))
        raise ValueError(f"no hardware coupler realises problem edge {key}")
    ends = couplers[
        np.arange(spread.sum())
        + np.repeat(edge_starts[edge] - (np.cumsum(spread) - spread), spread)
    ]
    pairs = index_of[ends]
    weights = np.repeat(terms.quadratic / spread, spread)

    # Chain equality penalties on every intra-chain hardware coupler:
    # cs·(x_a + x_b − 2 x_a x_b).
    a, b = hardware.coupler_array
    owner_a = owner[a]
    inside = (owner_a >= 0) & (owner_a == owner[b])
    chain_i, chain_j = index_of[a[inside]], index_of[b[inside]]
    linear = np.bincount(
        np.concatenate([bias_index, chain_i, chain_j]),
        weights=np.concatenate(
            [np.repeat(shares, counts), np.full(2 * len(chain_i), chain_strength)]
        ),
        minlength=n,
    )
    lo = np.concatenate([pairs.min(axis=1), np.minimum(chain_i, chain_j)])
    hi = np.concatenate([pairs.max(axis=1), np.maximum(chain_i, chain_j)])
    # Sum the weights per coupler (np.unique's codes and inverse).
    keys = lo * n + hi
    order = _sort_order(keys)
    ranked = keys[order]
    fresh = _run_starts(ranked)
    term = np.empty(len(keys), dtype=np.int64)
    term[order] = np.cumsum(fresh) - 1
    codes = ranked[fresh]
    summed = np.bincount(
        term,
        weights=np.concatenate(
            [weights, np.full(len(chain_i), -2.0 * chain_strength)]
        ),
        minlength=len(codes),
    )
    kept = summed != 0.0
    codes = codes[kept]
    # Hardware couplers are distinct, so these pairs are too.
    chain_codes = np.sort(keys[len(pairs):])
    return EmbeddedProblem(
        qubits,
        linear,
        *symmetric_csr(n, codes // n, codes % n, summed[kept]),
        chain_variables=variables,
        chain_starts=first,
        chain_couplers=np.stack([chain_codes // n, chain_codes % n], axis=1),
        offset=terms.offset,
        chain_strength=chain_strength,
        logical=terms,
    )


def _compile_native(
    kernel,
    terms: LogicalArrays,
    placement: EmbeddingArrays,
    hardware: ChimeraGraph,
    chain_strength: float,
) -> Optional[EmbeddedProblem]:
    """:func:`build_embedded_problem` in ``compile_run``, its
    :class:`ProgrammedArrays` filled in; ``None`` when the placement
    misses a variable or an edge (the NumPy path raises which) or the
    summed couplers outgrow ``capacity``."""
    ints64 = [
        terms.variables, terms.linear_index, terms.quadratic_rows,
        terms.quadratic_cols, placement.variables, placement.starts,
        placement.qubits, placement.edges, placement.coupler_starts,
        placement.couplers, hardware.coupler_rows, hardware.coupler_array[1],
    ]
    inputs = [np.ascontiguousarray(x, np.int64) for x in ints64] + [
        np.ascontiguousarray(terms.linear, float),
        np.ascontiguousarray(terms.quadratic, float),
    ]
    (variables, linear_index, rows, cols, chains, starts, qubits, edges,
     coupler_starts, couplers, hw_rows, hw_ends, linear, quadratic) = map(
        native.address, inputs
    )
    n = len(placement.qubits)
    # Each problem coupler and each hardware coupler at most once, when
    # no two quadratic terms share an edge (the NumPy path takes the
    # rest).
    capacity = len(placement.couplers) + len(inputs[11])
    ints = np.empty(2 + 2 * capacity, np.int64)
    csr = np.empty(n + 1 + 2 * capacity, np.int32)
    floats = np.empty(n + 2 * capacity)
    singles = np.empty(2 * n + 4 * capacity, np.float32)
    status = kernel.compile_run(
        len(inputs[0]), variables, len(inputs[1]), linear_index, linear,
        len(inputs[2]), rows, cols, quadratic,
        len(inputs[4]), chains, starts, n, qubits,
        len(inputs[7]), edges, coupler_starts, len(inputs[9]), couplers,
        hardware.num_qubits, hw_rows, hw_ends, chain_strength,
        capacity, native.address(ints), native.address(csr),
        native.address(floats), native.address(singles),
    )
    if status == -1:
        raise MemoryError("compile_run could not allocate its tables")
    if status:
        return None
    couplings, chain_couplers = ints[:2].tolist()
    nnz = 2 * couplings
    # Exact-size copies: a cached problem keeps only what it uses.
    floats = floats[: n + nnz].copy()
    csr = csr[: n + 1 + nnz].copy()
    singles = singles[: 2 * n + 2 * nnz].copy()
    linear, data = floats[:n], floats[n:]
    indptr, indices = csr[: n + 1], csr[n + 1 :]
    problem = EmbeddedProblem(
        placement.qubits,
        linear,
        indptr,
        indices,
        data,
        chain_variables=placement.variables,
        chain_starts=placement.starts,
        chain_couplers=ints[2 : 2 + 2 * chain_couplers].reshape(-1, 2).copy(),
        offset=terms.offset,
        chain_strength=chain_strength,
        logical=terms,
    )
    problem.__dict__["programmed"] = ProgrammedArrays(
        linear,
        indptr,
        indices,
        data,
        singles[:n],
        singles[2 * n : 2 * n + nnz],
        singles[2 * n + nnz :],
        singles[n : 2 * n],
    )
    return problem
