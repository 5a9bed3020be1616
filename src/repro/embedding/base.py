"""Embedding data model and validity checking.

An *embedding* maps each problem-graph vertex (a formula or auxiliary
variable) to a *qubit chain*: a connected set of physical qubits acting
as one logical variable (Section II-D).  A valid embedding must have

1. pairwise-disjoint chains,
2. each chain connected in the hardware graph,
3. for every problem edge, at least one hardware coupler between the
   two chains.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.topology.chimera import ChimeraGraph

Edge = Tuple[int, int]


class EmbeddingTimeout(TimeoutError):
    """An embedder ran out of its wall-clock budget.

    Distinct from an embedding *failure* (which means the budget was
    spent and no valid embedding exists at the attempted density): a
    timeout says nothing about embeddability, so callers may retry
    with a larger budget or shrink the problem (``hyqsat embed``
    reports it and exits 1).  Only the budgeted baseline embedders
    raise it; the HyQSAT embedder is linear-time and has no budget.

    Carries the progress made: ``passes`` completed improvement/route
    passes and ``elapsed_seconds`` of wall time spent.
    """

    def __init__(self, message: str, passes: int, elapsed_seconds: float):
        super().__init__(message)
        self.passes = passes
        self.elapsed_seconds = elapsed_seconds


def _norm_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


class Embedding:
    """A mapping from problem variables to qubit chains."""

    __slots__ = ("_chains",)

    def __init__(self, chains: Optional[Mapping[int, Iterable[int]]] = None):
        self._chains: Dict[int, Tuple[int, ...]] = {}
        if chains:
            for var, qubits in chains.items():
                self.set_chain(var, qubits)

    def set_chain(self, var: int, qubits: Iterable[int]) -> None:
        """Assign the chain of ``var`` (overwrites)."""
        chain = tuple(sorted(set(qubits)))
        if not chain:
            raise ValueError(f"chain of variable {var} must be non-empty")
        self._chains[var] = chain

    def chain_of(self, var: int) -> Tuple[int, ...]:
        """The chain of ``var`` (KeyError if unembedded)."""
        return self._chains[var]

    def __contains__(self, var: object) -> bool:
        return var in self._chains

    def __len__(self) -> int:
        return len(self._chains)

    def __iter__(self):
        return iter(self._chains)

    @property
    def variables(self) -> List[int]:
        """Embedded variables (sorted)."""
        return sorted(self._chains)

    @property
    def chains(self) -> Dict[int, Tuple[int, ...]]:
        """Shallow copy of the chain mapping."""
        return dict(self._chains)

    def all_qubits(self) -> Set[int]:
        """Union of every chain."""
        out: Set[int] = set()
        for chain in self._chains.values():
            out.update(chain)
        return out

    def num_qubits_used(self) -> int:
        """Total physical qubits consumed."""
        return sum(len(c) for c in self._chains.values())

    def qubit_owner(self) -> Dict[int, int]:
        """Inverse map qubit -> variable (assumes disjoint chains)."""
        out: Dict[int, int] = {}
        for var, chain in self._chains.items():
            for qubit in chain:
                out[qubit] = var
        return out

    def restricted_to(self, variables: Iterable[int]) -> "Embedding":
        """Sub-embedding for a variable subset."""
        keep = set(variables)
        return Embedding(
            {var: chain for var, chain in self._chains.items() if var in keep}
        )

    def __repr__(self) -> str:
        return f"Embedding(vars={len(self._chains)}, qubits={self.num_qubits_used()})"


@dataclass(frozen=True)
class EmbeddingArrays:
    """An embedding and its realised problem edges, as arrays.

    The chains of :attr:`variables` (ascending) are runs of
    :attr:`qubits`, each ascending, starting at :attr:`starts`;
    :attr:`order` lists the chains in the :class:`Embedding`'s dict
    order.  :attr:`edges` are ``(u, v)`` problem edges (``u < v``) in
    the coupler map's order; edge ``e``'s couplers are the rows of
    :attr:`couplers` from ``coupler_starts[e]`` to the next edge's.
    The :class:`Embedding` and the coupler dict are built when read.
    """

    variables: np.ndarray
    starts: np.ndarray
    qubits: np.ndarray
    order: np.ndarray
    edges: np.ndarray
    coupler_starts: np.ndarray
    couplers: np.ndarray

    @classmethod
    def from_embedding(
        cls,
        embedding: Embedding,
        edge_couplers: Mapping[Edge, Sequence[Tuple[int, int]]],
    ) -> "EmbeddingArrays":
        """The arrays of an :class:`Embedding` and its coupler map
        (which stay the views)."""
        names = np.fromiter(embedding, np.int64, len(embedding))
        by_var = np.argsort(names, kind="stable")
        chains = [embedding.chain_of(var) for var in names[by_var].tolist()]
        sizes = np.fromiter(map(len, chains), np.int64, len(chains))
        order = np.empty(len(names), np.int64)
        order[by_var] = np.arange(len(names))
        realising = list(edge_couplers.values())
        spread = np.fromiter(map(len, realising), np.int64, len(realising))
        arrays = cls(
            variables=names[by_var],
            starts=np.cumsum(sizes) - sizes,
            qubits=np.fromiter(chain.from_iterable(chains), np.int64, sizes.sum()),
            order=order,
            edges=np.array(list(edge_couplers), np.int64).reshape(-1, 2),
            coupler_starts=np.cumsum(spread) - spread,
            couplers=np.fromiter(
                chain.from_iterable(chain.from_iterable(realising)),
                np.int64,
                2 * spread.sum(),
            ).reshape(-1, 2),
        )
        arrays.__dict__.update(embedding=embedding, edge_couplers=edge_couplers)
        return arrays

    @cached_property
    def sizes(self) -> np.ndarray:
        """Qubits per chain."""
        return np.diff(self.starts, append=len(self.qubits))

    @cached_property
    def embedding(self) -> Embedding:
        """The :class:`Embedding` view, chains in dict order."""
        runs = np.split(self.qubits, self.starts[1:]) if len(self.starts) else []
        return Embedding(
            {
                var: runs[i].tolist()
                for var, i in zip(self.variables[self.order].tolist(), self.order.tolist())
            }
        )

    @cached_property
    def edge_couplers(self) -> Dict[Edge, Tuple[Tuple[int, int], ...]]:
        """The coupler map view: each edge's couplers, edges in order."""
        runs = np.split(self.couplers, self.coupler_starts[1:])
        return {
            edge: tuple(map(tuple, run.tolist()))
            for edge, run in zip(map(tuple, self.edges.tolist()), runs)
        }


@dataclass(frozen=True)
class EmbeddingResult:
    """Outcome of an embedding attempt.

    ``success`` means every requested problem edge was realised.
    ``elapsed_seconds`` is the wall-clock embedding time — the Figure 13
    (a) metric.
    """

    embedding: Embedding
    success: bool
    elapsed_seconds: float
    edge_couplers: Dict[Edge, Tuple[Tuple[int, int], ...]] = field(default_factory=dict)

    @property
    def max_chain_length(self) -> int:
        """Longest chain (0 for an empty embedding)."""
        return max((len(c) for c in self.embedding.chains.values()), default=0)

    @property
    def avg_chain_length(self) -> float:
        """Mean chain length (0.0 for an empty embedding)."""
        chains = self.embedding.chains
        if not chains:
            return 0.0
        return sum(len(c) for c in chains.values()) / len(chains)


def chain_length_stats(embedding: Embedding) -> Dict[str, float]:
    """Mean / max / median chain length of an embedding."""
    lengths = [len(c) for c in embedding.chains.values()]
    if not lengths:
        return {"mean": 0.0, "max": 0.0, "median": 0.0}
    return {
        "mean": sum(lengths) / len(lengths),
        "max": float(max(lengths)),
        "median": float(statistics.median(lengths)),
    }


def find_edge_couplers(
    embedding: Embedding, hardware: ChimeraGraph, edges: Iterable[Edge]
) -> Dict[Edge, Tuple[Tuple[int, int], ...]]:
    """For each problem edge, the hardware couplers joining its chains.

    An edge with an empty coupler tuple is *unrealised*.
    """
    out: Dict[Edge, Tuple[Tuple[int, int], ...]] = {}
    for u, v in edges:
        key = _norm_edge(u, v)
        if u not in embedding or v not in embedding:
            out[key] = ()
            continue
        chain_u = embedding.chain_of(u)
        chain_v = set(embedding.chain_of(v))
        couplers: List[Tuple[int, int]] = []
        for qu in chain_u:
            for qv in hardware.neighbors(qu):
                if qv in chain_v:
                    couplers.append((qu, qv))
        out[key] = tuple(couplers)
    return out


def verify_embedding(
    embedding: Embedding,
    hardware: ChimeraGraph,
    edges: Sequence[Edge] = (),
) -> List[str]:
    """Validity check; returns a list of human-readable problems
    (empty list == valid)."""
    problems: List[str] = []

    # 1. Chains use working qubits and are pairwise disjoint.
    owner: Dict[int, int] = {}
    for var, chain in embedding.chains.items():
        for qubit in chain:
            if not hardware.is_working(qubit):
                problems.append(f"chain of {var} uses non-working qubit {qubit}")
            if qubit in owner:
                problems.append(
                    f"qubit {qubit} shared by variables {owner[qubit]} and {var}"
                )
            else:
                owner[qubit] = var

    # 2. Each chain induces a connected subgraph.
    for var, chain in embedding.chains.items():
        if len(chain) == 1:
            continue
        members = set(chain)
        seen = {chain[0]}
        frontier = [chain[0]]
        while frontier:
            qubit = frontier.pop()
            for other in hardware.neighbors(qubit):
                if other in members and other not in seen:
                    seen.add(other)
                    frontier.append(other)
        if seen != members:
            problems.append(
                f"chain of {var} is disconnected: {sorted(members - seen)} unreachable"
            )

    # 3. Every problem edge has a realising coupler.
    couplers = find_edge_couplers(embedding, hardware, edges)
    for edge, realising in couplers.items():
        if not realising:
            problems.append(f"problem edge {edge} has no hardware coupler")

    return problems
