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
ready for the vectorised sampler.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Mapping, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from repro.embedding.base import Edge, Embedding
from repro.qubo.ising import QuadraticObjective
from repro.topology.chimera import ChimeraGraph


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

    Attributes
    ----------
    qubits:
        The used physical qubit ids; index ``i`` in the arrays refers
        to ``qubits[i]``.
    linear:
        Per-qubit bias vector (length ``len(qubits)``).
    couplings:
        ``(i, j, weight)`` rows over dense indices, including both
        problem couplers and chain couplers.
    chain_edges:
        The subset of coupling index pairs that are intra-chain.
    chain_of_index:
        Dense index -> logical variable.
    offset:
        Constant term of the logical objective (carried through so
        physical energies are comparable).
    chain_strength:
        The chain penalty this problem was compiled with (``None`` for
        hand-built problems); lets a device recognise a precompiled
        problem as matching its own setting.
    """

    qubits: Tuple[int, ...]
    linear: np.ndarray
    couplings: Tuple[Tuple[int, int, float], ...]
    chain_edges: Tuple[Tuple[int, int], ...]
    chain_of_index: Tuple[int, ...]
    offset: float
    chain_strength: Optional[float] = None

    @property
    def num_qubits(self) -> int:
        """Number of physical qubits in play."""
        return len(self.qubits)

    @cached_property
    def coupling_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(rows_i, rows_j, weights)`` of the couplings, computed once.

        One row per physical coupler (``i < j`` direction only) — the
        layout the sampler's programming-noise channel draws over.
        """
        if not self.couplings:
            empty = np.zeros(0)
            return empty.astype(int), empty.astype(int), empty
        rows_i = np.array([c[0] for c in self.couplings])
        rows_j = np.array([c[1] for c in self.couplings])
        weights = np.array([c[2] for c in self.couplings])
        return rows_i, rows_j, weights

    @cached_property
    def couplings_csr(self) -> sparse.csr_matrix:
        """Symmetric CSR coupling matrix, computed once and cached.

        Both ``(i, j)`` and ``(j, i)`` carry the coupler weight, so
        local fields are one ``matrix @ states`` product and energies
        use the ``x @ C @ x / 2`` convention of :func:`batch_energies`.
        """
        n = self.num_qubits
        rows_i, rows_j, weights = self.coupling_arrays
        if weights.size == 0:
            return sparse.csr_matrix((n, n))
        return sparse.coo_matrix(
            (
                np.concatenate([weights, weights]),
                (np.concatenate([rows_i, rows_j]), np.concatenate([rows_j, rows_i])),
            ),
            shape=(n, n),
        ).tocsr()

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
    objective: QuadraticObjective,
    embedding: Embedding,
    hardware: ChimeraGraph,
    edge_couplers: Mapping[Edge, Sequence[Tuple[int, int]]],
    chain_strength: float = 2.0,
) -> EmbeddedProblem:
    """Compile ``objective`` onto the hardware through ``embedding``.

    The chains become one qubit index array and the problem couplers a
    flat coupler list; every bias and coupler weight is then a
    ``np.bincount`` over those indices, in the order per-qubit and
    per-coupler adds would take.  Chain couplers are the hardware's
    :attr:`~repro.topology.chimera.ChimeraGraph.coupler_array` rows with
    both ends in one chain.

    Raises ``ValueError`` if the objective mentions an unembedded
    variable or a quadratic term has no realising coupler.
    """
    if chain_strength <= 0:
        raise ValueError(f"chain_strength must be positive, got {chain_strength}")
    missing = [v for v in objective.variables if v not in embedding]
    if missing:
        raise ValueError(f"objective variables not embedded: {missing[:5]}")

    variables = embedding.variables
    chains = [embedding.chain_of(var) for var in variables]
    sizes = np.array([len(chain) for chain in chains], dtype=np.int64)
    qubits = np.array([q for chain in chains for q in chain], dtype=np.int64)
    n = len(qubits)
    first = np.cumsum(sizes) - sizes
    index_of = np.full(hardware.num_qubits, -1, dtype=np.int64)
    index_of[qubits] = np.arange(n)
    owner = np.full(hardware.num_qubits, -1, dtype=np.int64)
    owner[qubits] = np.repeat(np.arange(len(variables)), sizes)

    # Linear biases spread uniformly over chains.
    biased = np.searchsorted(variables, list(objective.linear)).astype(np.int64)
    counts = sizes[biased]
    shares = np.array(list(objective.linear.values()), dtype=float) / counts
    bias_index = np.arange(counts.sum()) + np.repeat(
        first[biased] - (np.cumsum(counts) - counts), counts
    )

    # Problem couplings spread over realising couplers.
    ends: List[Tuple[int, int]] = []
    weights: List[float] = []
    for (u, v), weight in objective.quadratic.items():
        key: Edge = (u, v) if u < v else (v, u)
        couplers = edge_couplers.get(key, ())
        if not couplers:
            raise ValueError(f"no hardware coupler realises problem edge {key}")
        ends.extend(couplers)
        weights.extend([weight / len(couplers)] * len(couplers))
    pairs = index_of[np.array(ends, dtype=np.int64).reshape(-1, 2)]

    # Chain equality penalties on every intra-chain hardware coupler:
    # cs·(x_a + x_b − 2 x_a x_b).
    a, b = hardware.coupler_array
    inside = (owner[a] >= 0) & (owner[a] == owner[b])
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
    codes, term = np.unique(lo * n + hi, return_inverse=True)
    summed = np.bincount(
        term,
        weights=np.concatenate(
            [weights, np.full(len(chain_i), -2.0 * chain_strength)]
        ),
        minlength=len(codes),
    )
    kept = summed != 0.0
    chain_edges = np.unique(lo[len(pairs):] * n + hi[len(pairs):])
    return EmbeddedProblem(
        qubits=tuple(qubits.tolist()),
        linear=linear,
        couplings=tuple(
            zip(
                (codes[kept] // n).tolist(),
                (codes[kept] % n).tolist(),
                summed[kept].tolist(),
            )
        ),
        chain_edges=tuple(
            zip((chain_edges // n).tolist(), (chain_edges % n).tolist())
        ),
        chain_of_index=tuple(np.repeat(variables, sizes).tolist()),
        offset=objective.offset,
        chain_strength=chain_strength,
    )
