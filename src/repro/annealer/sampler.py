"""Metropolis simulated-annealing sampler over an embedded problem.

The stand-in for the QPU's anneal: starting from a random state, spins
are flipped under a geometric inverse-temperature (beta) schedule by
vectorised "diluted" parallel Metropolis: every spin computes its local
field at once, and each spin flips with probability
``0.5 * min(1, exp(-beta * delta))`` (acceptance times a one-half
dilution, which breaks the two-cycle oscillations exact parallel
updates suffer).

All ``num_reads × num_restarts`` independent anneal trajectories run
as one ``(n, R)`` float32 state matrix in a *single* schedule pass:
per-sweep local fields are one sparse ``matrix @ states`` product,
acceptance and dilution merge into a single uniform draw per spin,
greedy descent batches the same way, and each read is recovered as its
best-energy restart via the batch-energy kernel
(:func:`repro.annealer.embedded.batch_energies`).  The sweeps run in a
native kernel (``annealer/sweep.c``, built by :mod:`repro.cdcl.native`
on the first anneal) when one can be built; the NumPy loop is the
oracle and the fallback, and both give bit-identical reads.

The sampler is deterministic given its seed, and the noise model hooks
in at two points: coefficient perturbation before the run and readout
flips after it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np
from scipy import sparse

from repro.annealer.embedded import EmbeddedProblem, batch_energies
from repro.annealer.noise import NoiseModel
from repro.cdcl import native

#: Uniforms drawn per chunk of sweeps (bounds the chunk's memory).
_CHUNK_FLOATS = 16_000_000


def _metropolis_flip(
    m: np.ndarray, exponents: np.ndarray, doubled_u: np.ndarray
) -> None:
    """Flip the spins of ``m`` whose ``2u < exp(exponents)``, in place
    (``exponents`` is overwritten).

    Branch-free: ``m *= copysign(1, 2u - threshold)`` negates exactly
    those spins (masked ufunc writes are an order of magnitude slower).
    """
    np.exp(exponents, out=exponents)
    np.subtract(doubled_u, exponents, out=exponents)
    np.copysign(np.float32(1.0), exponents, out=exponents)
    m *= exponents


@dataclass(frozen=True)
class SamplerConfig:
    """Anneal-schedule parameters."""

    num_sweeps: int = 256
    beta_min: float = 0.05
    beta_max: float = 5.0
    greedy_descent: bool = True
    max_descent_sweeps: int = 64
    #: Independent anneal restarts folded into each read (the best by
    #: physical energy is returned).  The paper's noise-free simulator
    #: runs "with a long timeout to avoid simulation error" — i.e. it
    #: is given enough attempts to reach the true ground state; higher
    #: restart counts emulate that regime.
    num_restarts: int = 1

    def __post_init__(self) -> None:
        if self.num_sweeps < 1:
            raise ValueError("num_sweeps must be >= 1")
        if self.beta_min <= 0 or self.beta_max < self.beta_min:
            raise ValueError("need 0 < beta_min <= beta_max")
        if self.max_descent_sweeps < 0:
            raise ValueError("max_descent_sweeps must be non-negative")
        if self.num_restarts < 1:
            raise ValueError("num_restarts must be >= 1")


class SimulatedAnnealingSampler:
    """Samples low-energy states of an :class:`EmbeddedProblem`."""

    def __init__(
        self,
        config: Optional[SamplerConfig] = None,
        noise: Optional[NoiseModel] = None,
        seed: int = 0,
    ):
        self.config = config or SamplerConfig()
        self.noise = noise or NoiseModel.noiseless()
        self.seed = seed

    def sample(
        self, problem: EmbeddedProblem, num_reads: int = 1
    ) -> List[np.ndarray]:
        """Draw ``num_reads`` bit vectors (0/1 per used qubit)."""
        if num_reads < 1:
            raise ValueError("num_reads must be >= 1")
        rng = np.random.default_rng(self.seed)
        n = problem.num_qubits
        if n == 0:
            return [np.zeros(0, dtype=np.int8) for _ in range(num_reads)]

        linear, matrix = self._programmed_arrays(problem, rng)
        betas = self._schedule()
        # All replicas anneal as one ``(n, R)`` state matrix (each
        # replica a column, so ``matrix @ states`` feeds the dense
        # element-wise updates without transposes); each read then
        # keeps its lowest-energy restart.
        restarts = self.config.num_restarts
        replicas = num_reads * restarts
        linear32 = linear.astype(np.float32)
        matrix32 = matrix.astype(np.float32)
        states = rng.integers(0, 2, size=(n, replicas)).astype(np.float32)
        states = self._anneal_batch(states, linear32, matrix32, betas, rng)
        if self.config.greedy_descent:
            states = self._descend_batch(states, linear32, matrix32, rng)
        final = states.T.astype(float)  # (R, n), float64 for selection
        if restarts == 1:
            chosen = final
        else:
            energies = batch_energies(linear, matrix, final)
            grouped = energies.reshape(num_reads, restarts)
            picks = grouped.argmin(axis=1) + np.arange(num_reads) * restarts
            chosen = final[picks]
        reads: List[np.ndarray] = []
        for row in chosen:
            bits = row.astype(np.int8)
            reads.append(self.noise.flip_readout(bits, rng).astype(np.int8))
        return reads

    def _programmed_arrays(
        self, problem: EmbeddedProblem, rng: np.random.Generator
    ) -> Tuple[np.ndarray, sparse.csr_matrix]:
        """Bias vector and symmetric sparse coupling matrix with
        programming noise applied (the pre-anneal channel).

        Noiseless programming reuses the problem's cached CSR directly;
        otherwise one noise draw per physical coupler is applied
        symmetrically to a fresh matrix.
        """
        n = problem.num_qubits
        if self.noise.coefficient_std == 0.0:
            return problem.linear.astype(float), problem.couplings_csr
        linear = problem.linear.astype(float)
        linear = self.noise.perturb_coefficients(linear, rng)
        rows_i, rows_j, weights = problem.coupling_arrays
        if weights.size:
            weights = self.noise.perturb_coefficients(weights, rng)
            matrix = sparse.coo_matrix(
                (
                    np.concatenate([weights, weights]),
                    (
                        np.concatenate([rows_i, rows_j]),
                        np.concatenate([rows_j, rows_i]),
                    ),
                ),
                shape=(n, n),
            ).tocsr()
        else:
            matrix = sparse.csr_matrix((n, n))
        return linear, matrix

    def _schedule(self) -> np.ndarray:
        """Geometric beta ladder; thermal noise caps the final beta."""
        beta_max = self.config.beta_max
        if self.noise.thermal_beta is not None:
            beta_max = min(beta_max, self.noise.thermal_beta)
        return np.geomspace(self.config.beta_min, beta_max, self.config.num_sweeps)

    def _anneal_batch(
        self,
        states: np.ndarray,
        linear: np.ndarray,
        matrix: sparse.csr_matrix,
        betas: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Diluted parallel Metropolis on an ``(n, R)`` replica matrix
        (float32; replicas are columns).

        The state is kept as a ±1 magnetisation matrix ``m = 1 - 2s``,
        under which the energy change of flipping spin ``i`` is
        ``delta_i = m_i * (c_i - (matrix @ m)_i / 2)`` with
        ``c = linear + rowsum(matrix) / 2``.  Acceptance and dilution
        merge into a single uniform draw per spin — flip iff
        ``2u < exp(-beta * max(delta, 0))``, a flip probability of
        ``0.5 * min(1, exp(-beta * delta))`` — and the uniforms for
        many sweeps are drawn (and pre-doubled) in bulk chunks to
        amortise generator call overhead.

        The sweeps run in the native kernel (``annealer/sweep.c``) when
        it loads, and otherwise in :meth:`_sweeps_numpy`, the oracle;
        both consume the same uniforms and give bit-identical states.
        """
        n, num_replicas = states.shape
        c = linear + np.float32(0.5) * np.asarray(
            matrix.sum(axis=1), dtype=np.float32
        ).ravel()
        m = np.float32(1.0) - states - states  # ±1 magnetisation
        neg_betas = (-betas).astype(np.float32)
        kernel = native.load_sweep_kernel()
        if kernel is None:
            sweeps = self._sweeps_numpy(m, c, matrix)
        else:
            sweeps = self._sweeps_native(kernel, m, c, matrix)
        num_sweeps = len(betas)
        chunk = max(1, int(_CHUNK_FLOATS // max(1, n * num_replicas)))
        start = 0
        while start < num_sweeps:
            count = min(chunk, num_sweeps - start)
            doubled_u = rng.random((count, n, num_replicas), dtype=np.float32)
            doubled_u += doubled_u
            sweeps(neg_betas[start : start + count], doubled_u)
            start += count
        return np.float32(0.5) * (np.float32(1.0) - m)  # back to 0/1

    @staticmethod
    def _sweeps_numpy(m, c, matrix):
        """The NumPy sweep loop: ``sweeps(neg_betas, doubled_u)`` runs
        one sweep per beta on ``m`` in place.

        ``c`` and the ``-1/2`` scale are folded into an *augmented*
        sparse matrix (one extra column holding ``c``, matched by an
        all-ones row in the state), so each sweep is one sparse product
        for all replicas plus five fused in-place element passes.
        """
        n, num_replicas = m.shape
        zero = np.float32(0.0)
        augmented = sparse.hstack(
            [np.float32(-0.5) * matrix, sparse.csr_matrix(c[:, None])],
            format="csr",
        ).astype(np.float32)
        full = np.empty((n + 1, num_replicas), dtype=np.float32)
        full[n] = 1.0  # constant row feeding the c column

        def sweeps(neg_betas, doubled_u):
            full[:n] = m
            for j, neg_beta in enumerate(neg_betas):
                delta = augmented @ full  # c - (matrix @ m)/2, all replicas
                delta *= full[:n]
                np.maximum(delta, zero, out=delta)
                delta *= neg_beta
                _metropolis_flip(full[:n], delta, doubled_u[j])
            m[...] = full[:n]

        return sweeps

    @staticmethod
    def _sweeps_native(kernel, m, c, matrix):
        """The kernel's sweep loop, same contract as
        :meth:`_sweeps_numpy`: the kernel applies every sweep whose
        flips it can decide, and hands a sweep with a spin inside its
        exp guard band back here, where NumPy's own ``np.exp``
        resolves it."""
        n, num_replicas = m.shape
        indptr = np.ascontiguousarray(matrix.indptr, dtype=np.int32)
        indices = np.ascontiguousarray(matrix.indices, dtype=np.int32)
        scaled = matrix.data * np.float32(-0.5)  # the oracle's scaled CSR
        if not all(
            a.dtype == np.float32 and a.flags.c_contiguous
            for a in (m, c, scaled)
        ) or c.shape != (n,):
            raise TypeError("the sweep kernel takes C-contiguous float32 arrays")
        exponents = np.empty_like(m)
        signs = np.empty_like(m)

        def sweeps(neg_betas, doubled_u):
            # This closure holds every array whose address it passes.
            inputs = (indptr, indices, scaled, c, neg_betas, doubled_u)
            outputs = (m, exponents, signs)
            count = len(neg_betas)
            first = 0
            while first < count:
                first = kernel.sweep_run(
                    n,
                    num_replicas,
                    *[a.ctypes.data for a in inputs],
                    first,
                    count,
                    *[a.ctypes.data for a in outputs],
                )
                if first < count:
                    _metropolis_flip(m, exponents, doubled_u[first])
                    first += 1

        return sweeps

    def _descend_batch(
        self,
        states: np.ndarray,
        linear: np.ndarray,
        matrix: sparse.csr_matrix,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Batched greedy descent on an ``(n, R)`` replica matrix
        (float32; replicas are columns).

        Converged replicas simply stop producing improving flips; the
        sweep loop ends when no replica can improve (or the cap hits).
        """
        one = np.float32(1.0)
        half = np.float32(0.5)
        eps = np.float32(-1e-6)
        for _ in range(self.config.max_descent_sweeps):
            fields = linear[:, None] + matrix @ states
            delta = (one - states - states) * fields
            improving = delta < eps
            if not improving.any():
                break
            flips = improving & (
                rng.random(states.shape, dtype=np.float32) < half
            )
            if not flips.any():
                continue
            states = np.where(flips, one - states, states)
        return states
