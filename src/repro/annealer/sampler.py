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
(:func:`repro.annealer.embedded.batch_energies`).

The sweeps and the greedy descent run in the native read-out library
(``annealer/sweep.c``, built by :mod:`repro.cdcl.native` on the first
anneal) when one can be built, on the problem's own CSR arrays
(:attr:`~repro.annealer.embedded.EmbeddedProblem.programmed`); the
NumPy loops are the oracle and the fallback, and both give
bit-identical reads.  The library draws its uniforms from the
sampler's own generator, the values ``rng.random(dtype=np.float32)``
returns, and leaves the generator where NumPy's draws would.

The sampler is deterministic given its seed, and the noise model hooks
in at two points: coefficient perturbation before the run and readout
flips after it.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional

import numpy as np

from repro.annealer.embedded import (
    EmbeddedProblem,
    ProgrammedArrays,
    batch_energies,
    symmetric_csr,
)
from repro.annealer.noise import NoiseModel
from repro.cdcl import native

#: Uniforms the NumPy sweeps draw per chunk (bounds the chunk's memory).
_CHUNK_FLOATS = 16_000_000

#: A spin improves in the greedy descent when its energy change is
#: below this (float32).
_DESCENT_EPS = np.float32(-1e-6)

_capsule_pointer = ctypes.PYFUNCTYPE(
    ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p
)(("PyCapsule_GetPointer", ctypes.pythonapi))


@lru_cache(maxsize=64)
def _geometric_betas(beta_min: float, beta_max: float, num_sweeps: int) -> np.ndarray:
    """The beta ladder, computed once per schedule (read-only)."""
    betas = np.geomspace(beta_min, beta_max, num_sweeps)
    betas.flags.writeable = False
    return betas


class _Draws:
    """The native read-out's access to the sampler's generator: its
    ``bitgen_t`` and the uint32 half PCG64 holds back (``has_uint32``
    and ``uinteger``), which the library draws through and
    :meth:`close` hands back, leaving the generator where NumPy's own
    draws would have left it."""

    def __init__(self, kernel, rng: np.random.Generator):
        self.kernel = kernel
        self.generator = rng.bit_generator
        state = self.generator.state
        self.bitgen = _capsule_pointer(self.generator.capsule, b"BitGenerator")
        self.carry = np.array(
            [state["has_uint32"], state["uinteger"]], dtype=np.int64
        )

    def close(self) -> None:
        state = self.generator.state
        state["has_uint32"], state["uinteger"] = self.carry.tolist()
        self.generator.state = state


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

        arrays = self._programmed(problem, rng)
        betas = self._schedule()
        # All replicas anneal as one ``(n, R)`` state matrix (each
        # replica a column, so ``matrix @ states`` feeds the dense
        # element-wise updates without transposes); each read then
        # keeps its lowest-energy restart.
        restarts = self.config.num_restarts
        replicas = num_reads * restarts
        kernel = native.load_sweep_kernel()
        states = rng.integers(0, 2, size=(n, replicas)).astype(np.float32)
        draws = None if kernel is None else _Draws(kernel, rng)
        states = self._anneal_batch(states, arrays, betas, rng, draws)
        if self.config.greedy_descent:
            states = self._descend_batch(states, arrays, rng, draws)
        if draws is not None:
            draws.close()
        final = states.T.astype(float)  # (R, n), float64 for selection
        if restarts == 1:
            chosen = final
        else:
            energies = batch_energies(arrays.linear, arrays.csr(arrays.data), final)
            grouped = energies.reshape(num_reads, restarts)
            picks = grouped.argmin(axis=1) + np.arange(num_reads) * restarts
            chosen = final[picks]
        reads: List[np.ndarray] = []
        for row in chosen:
            bits = row.astype(np.int8)
            reads.append(self.noise.flip_readout(bits, rng).astype(np.int8))
        return reads

    def _programmed(
        self, problem: EmbeddedProblem, rng: np.random.Generator
    ) -> ProgrammedArrays:
        """The arrays the anneal reads, with programming noise applied
        (the pre-anneal channel).

        Noiseless programming reuses the problem's own arrays, computed
        once per compiled problem; otherwise one noise draw per qubit
        and one per physical coupler, applied symmetrically.
        """
        if self.noise.coefficient_std == 0.0:
            return problem.programmed
        linear = self.noise.perturb_coefficients(problem.linear.astype(float), rng)
        rows_i, rows_j, weights = problem.coupling_arrays
        if weights.size:
            weights = self.noise.perturb_coefficients(weights, rng)
        return ProgrammedArrays.build(
            linear, *symmetric_csr(problem.num_qubits, rows_i, rows_j, weights)
        )

    def _schedule(self) -> np.ndarray:
        """Geometric beta ladder; thermal noise caps the final beta."""
        beta_max = self.config.beta_max
        if self.noise.thermal_beta is not None:
            beta_max = min(beta_max, self.noise.thermal_beta)
        return _geometric_betas(self.config.beta_min, beta_max, self.config.num_sweeps)

    def _anneal_batch(
        self,
        states: np.ndarray,
        arrays: ProgrammedArrays,
        betas: np.ndarray,
        rng: np.random.Generator,
        draws: Optional[_Draws],
    ) -> np.ndarray:
        """Diluted parallel Metropolis on an ``(n, R)`` replica matrix
        (float32; replicas are columns).

        The state is kept as a ±1 magnetisation matrix ``m = 1 - 2s``,
        under which the energy change of flipping spin ``i`` is
        ``delta_i = m_i * (c_i - (matrix @ m)_i / 2)`` with
        ``c = linear + rowsum(matrix) / 2``.  Acceptance and dilution
        merge into a single uniform draw per spin — flip iff
        ``2u < exp(-beta * max(delta, 0))``, a flip probability of
        ``0.5 * min(1, exp(-beta * delta))``.

        With ``draws`` the sweeps run in the native library, which
        draws each sweep's uniforms itself; otherwise
        :meth:`_sweeps_numpy`, the oracle, runs on uniforms drawn (and
        pre-doubled) in bulk chunks.  Both see the same uniforms and
        give bit-identical states.
        """
        n, num_replicas = states.shape
        m = np.float32(1.0) - states - states  # ±1 magnetisation
        neg_betas = (-betas).astype(np.float32)
        if draws is not None:
            self._sweeps_native(m, arrays, neg_betas, draws)
            return np.float32(0.5) * (np.float32(1.0) - m)  # back to 0/1
        sweeps = self._sweeps_numpy(m, arrays.c, arrays.csr(arrays.data32))
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
        from scipy import sparse

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
    def _sweeps_native(m, arrays, neg_betas, draws):
        """The library's sweep loop on ``m`` in place, one sweep per
        beta: it applies every sweep whose flips it can decide, and
        hands a sweep with a spin inside its exp guard band back here,
        with that sweep's doubled uniforms, for NumPy's own ``np.exp``
        to resolve."""
        n, num_replicas = m.shape
        if m.dtype != np.float32 or not m.flags.c_contiguous:
            raise TypeError("the sweep kernel takes a C-contiguous float32 state")
        exponents, doubled_u, signs = (np.empty_like(m) for _ in range(3))
        inputs = (arrays.indptr, arrays.indices, arrays.scaled, arrays.c, neg_betas)
        # The library's scratch: each row's first two couplers.
        outputs = (m, exponents, doubled_u, signs, np.empty(5 * n, np.int32))
        count = len(neg_betas)
        first = 0
        while first < count:
            first = draws.kernel.sweep_run(
                n,
                num_replicas,
                *[a.ctypes.data for a in inputs],
                draws.bitgen,
                draws.carry.ctypes.data,
                first,
                count,
                *[a.ctypes.data for a in outputs],
            )
            if first < count:
                _metropolis_flip(m, exponents, doubled_u)
                first += 1

    def _descend_batch(
        self,
        states: np.ndarray,
        arrays: ProgrammedArrays,
        rng: np.random.Generator,
        draws: Optional[_Draws],
    ) -> np.ndarray:
        """Batched greedy descent on an ``(n, R)`` replica matrix
        (float32; replicas are columns).

        Converged replicas simply stop producing improving flips; the
        sweep loop ends when no replica can improve (or the cap hits).
        A sweep with an improving spin draws one uniform per spin, and
        an improving spin flips when its uniform is below one half.
        With ``draws`` the native library runs the same sweeps on
        ``states`` in place; otherwise this NumPy loop, the oracle.
        """
        if draws is not None:
            inputs = (arrays.indptr, arrays.indices, arrays.data32, arrays.linear32)
            scratch = (
                np.empty_like(states),
                np.empty_like(states),
                np.empty(states.shape, dtype=np.uint8),
                np.empty(5 * states.shape[0], dtype=np.int32),
            )
            draws.kernel.descent_run(
                *states.shape,
                *[a.ctypes.data for a in inputs],
                float(_DESCENT_EPS),
                self.config.max_descent_sweeps,
                draws.bitgen,
                draws.carry.ctypes.data,
                states.ctypes.data,
                *[a.ctypes.data for a in scratch],
            )
            return states
        one = np.float32(1.0)
        half = np.float32(0.5)
        linear = arrays.linear32
        matrix = arrays.csr(arrays.data32)
        for _ in range(self.config.max_descent_sweeps):
            fields = linear[:, None] + matrix @ states
            delta = (one - states - states) * fields
            improving = delta < _DESCENT_EPS
            if not improving.any():
                break
            flips = improving & (
                rng.random(states.shape, dtype=np.float32) < half
            )
            if not flips.any():
                continue
            states = np.where(flips, one - states, states)
        return states
