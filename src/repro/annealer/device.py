"""The annealer device facade.

:class:`AnnealerDevice` bundles a hardware topology, a noise model, a
timing model, and the SA sampler behind the interface HyQSAT's
frontend/backend pair consumes: program an embedded problem, draw
samples, read back logical assignments with their *problem-unit*
energies and the modelled device time.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.annealer.embedded import EmbeddedProblem, build_embedded_problem
from repro.annealer.faults import (
    CalibrationDrift,
    FaultInjector,
    FaultModel,
    ProgrammingError,
    ReadoutTimeout,
)
from repro.annealer.noise import NoiseModel
from repro.annealer.postprocess import LogicalDescender
from repro.annealer.sampler import SamplerConfig, SimulatedAnnealingSampler
from repro.annealer.timing import QpuTimingModel
from repro.annealer.unembed import chain_vote
from repro.embedding.base import Edge, Embedding, EmbeddingArrays
from repro.qubo.ising import LogicalArrays, QuadraticObjective
from repro.sat.assignment import Assignment
from repro.topology import build_hardware
from repro.topology.chimera import ChimeraGraph


@dataclass(frozen=True, init=False, eq=False)
class AnnealRequest:
    """One problem programmed onto the device.

    ``terms`` are the *normalised* logical objective's terms to run and
    ``placement`` the chains and the realised edges' couplers, both as
    arrays; the dict views ``objective``, ``embedding`` and
    ``edge_couplers`` are built when first read.  A hand-built request
    passes those views instead (positionally, as before) and gets the
    arrays from them.  ``energy_scale`` (the Eq. 6 ``d*``) converts
    read-back energies to problem units so the backend's confidence
    intervals are comparable across problems.  ``compiled`` optionally
    carries a precompiled :class:`EmbeddedProblem` (e.g. from the
    frontend's compilation cache); the device uses it when its
    recorded chain strength matches the device's own, skipping the
    embed-graph compile entirely.
    """

    terms: LogicalArrays
    placement: EmbeddingArrays
    energy_scale: float
    num_reads: int
    compiled: Optional[EmbeddedProblem] = field(repr=False)

    def __init__(
        self,
        objective: Optional[QuadraticObjective] = None,
        embedding: Optional[Embedding] = None,
        edge_couplers: Optional[Mapping[Edge, Sequence[Tuple[int, int]]]] = None,
        energy_scale: float = 1.0,
        num_reads: int = 1,
        compiled: Optional[EmbeddedProblem] = None,
        *,
        terms: Optional[LogicalArrays] = None,
        placement: Optional[EmbeddingArrays] = None,
    ):
        if terms is None:
            terms = LogicalArrays.from_objective(objective)
            self.__dict__["objective"] = objective
        if placement is None:
            placement = EmbeddingArrays.from_embedding(embedding, edge_couplers)
        for name, value in (
            ("terms", terms),
            ("placement", placement),
            ("energy_scale", energy_scale),
            ("num_reads", num_reads),
            ("compiled", compiled),
        ):
            object.__setattr__(self, name, value)
        self._validate()

    def _validate(self) -> None:
        if not math.isfinite(self.energy_scale):
            raise ValueError(
                f"energy_scale must be finite, got {self.energy_scale}"
            )
        if self.energy_scale <= 0:
            raise ValueError("energy_scale must be positive")
        if self.num_reads < 1:
            raise ValueError("num_reads must be >= 1")
        variables = self.terms.variables
        if not variables.size:
            raise ValueError(
                "objective has no variables: nothing to anneal (an empty "
                "or fully-conditioned clause queue must be skipped upstream)"
            )
        chains = self.placement
        if not chains.variables.size:
            raise ValueError("embedding is empty")
        # Both variable arrays are ascending: a lookup, not a set
        # difference.
        at = np.searchsorted(chains.variables, variables)
        found = chains.variables.take(at, mode="clip") == variables
        if not found.all():
            missing = variables[~found]
            raise ValueError(
                f"objective variables without a chain: {missing[:5].tolist()}"
            )
        starts = chains.starts
        if (starts[1:] <= starts[:-1]).any() or starts[-1] >= len(chains.qubits):
            empty = chains.variables[chains.order][chains.sizes[chains.order] == 0]
            raise ValueError(
                f"embedding has empty chains for variables: {empty[:5].tolist()}"
            )

    @cached_property
    def objective(self) -> QuadraticObjective:
        """The normalised logical objective as a dict objective."""
        return self.terms.to_objective()

    @property
    def embedding(self) -> Embedding:
        """The chains as an :class:`Embedding`."""
        return self.placement.embedding

    @property
    def edge_couplers(self) -> Mapping[Edge, Sequence[Tuple[int, int]]]:
        """Each realised problem edge's hardware couplers."""
        return self.placement.edge_couplers


@dataclass(frozen=True)
class AnnealSample:
    """One unembedded read.

    ``energy`` is the logical objective evaluated at the unembedded
    assignment, rescaled to problem units — the quantity Figure 8's
    distributions and the backend's bands are defined on.
    """

    assignment: Assignment
    energy: float
    chain_break_fraction: float


@dataclass(frozen=True)
class AnnealResult:
    """All samples of one device call plus modelled device time.

    ``dropped_reads`` counts reads lost to the fault injector's
    per-read dropout channel (0 on a fault-free device); the device
    still bills their time, as real hardware does.
    """

    samples: Tuple[AnnealSample, ...]
    qpu_time_us: float
    dropped_reads: int = 0

    @property
    def best(self) -> AnnealSample:
        """The lowest-energy sample."""
        return min(self.samples, key=lambda s: s.energy)

    @property
    def energies(self) -> List[float]:
        """Energies of all samples, in read order."""
        return [s.energy for s in self.samples]


class AnnealerDevice:
    """A simulated quantum annealer with a fixed topology and noise.

    When a :class:`~repro.annealer.faults.FaultModel` is supplied,
    :meth:`run` may raise the typed faults of
    :mod:`repro.annealer.faults`; wrap the device in
    :class:`~repro.resilience.ResilientDevice` to get retries,
    deadlines, and circuit breaking on top.
    """

    def __init__(
        self,
        hardware: Optional[ChimeraGraph] = None,
        noise: Optional[NoiseModel] = None,
        timing: Optional[QpuTimingModel] = None,
        sampler_config: Optional[SamplerConfig] = None,
        chain_strength: float = 1.0,
        seed: int = 0,
        faults: Optional[FaultModel] = None,
        fault_seed: Optional[int] = None,
    ):
        self.hardware = hardware or build_hardware()
        self.noise = noise or NoiseModel.noiseless()
        self.timing = timing or QpuTimingModel()
        self.sampler_config = sampler_config or SamplerConfig()
        self.chain_strength = chain_strength
        self.seed = seed
        self._call_count = 0
        #: Cumulative modelled device time (µs) across every call,
        #: including calls lost to readout faults — the monotonic
        #: QPU-clock source for the observability layer on a bare
        #: (unwrapped) device.
        self.total_modelled_us = 0.0
        from repro.observability import DISABLED

        self.observability = DISABLED
        self.fault_injector: Optional[FaultInjector] = None
        if faults is not None and not faults.is_faultless:
            self.fault_injector = FaultInjector(
                faults, seed if fault_seed is None else fault_seed
            )

    def recalibrate(self) -> None:
        """Clear accumulated calibration drift (no-op without faults)."""
        if self.fault_injector is not None:
            self.fault_injector.recalibrate()

    def set_observability(self, observability) -> None:
        """Attach a tracing/metrics bundle (the hybrid solver calls
        this so device-side compiles appear in the span tree)."""
        from repro.observability import DISABLED, declare_solver_metrics

        self.observability = observability or DISABLED
        if self.observability.metrics is not None:
            declare_solver_metrics(self.observability.metrics)

    def run(self, request: AnnealRequest) -> AnnealResult:
        """Program, anneal, read out, and unembed.

        Raises
        ------
        ProgrammingError, ReadoutTimeout, CalibrationDrift
            Only when the device was built with a fault model; see
            :mod:`repro.annealer.faults` for the channel semantics.
        """
        call = None
        if self.fault_injector is not None:
            call = self.fault_injector.begin_call(request.num_reads)
            if call.programming_failed:
                raise ProgrammingError(
                    "problem failed to program onto the chip",
                    call_index=call.call_index,
                )
            if self.fault_injector.drifted_out:
                raise CalibrationDrift(
                    "device drifted out of calibration "
                    f"(|offset| = {abs(call.drift):.4f})",
                    call_index=call.call_index,
                    drift=call.drift,
                )

        obs = self.observability
        problem = request.compiled
        if problem is None or problem.chain_strength != self.chain_strength:
            with obs.tracer.span("compile", where="device"):
                problem = build_embedded_problem(
                    request.terms,
                    request.placement,
                    self.hardware,
                    chain_strength=self.chain_strength,
                )
            if obs.metrics is not None:
                obs.metrics.counter("hyqsat_device_compile_total").labels(
                    source="device"
                ).inc()
        elif obs.metrics is not None:
            obs.metrics.counter("hyqsat_device_compile_total").labels(
                source="precompiled"
            ).inc()
        if call is not None and call.drift != 0.0:
            # Sub-threshold calibration drift: a persistent bias offset
            # on every programmed linear coefficient.
            problem = dataclasses.replace(
                problem, linear=problem.linear + call.drift
            )
        # A fresh per-call seed keeps repeated calls independent while
        # the device as a whole stays reproducible.
        self._call_count += 1
        call_seed = (self.seed * 1_000_003 + self._call_count) % (2**32)
        sampler = SimulatedAnnealingSampler(
            config=self.sampler_config, noise=self.noise, seed=call_seed
        )
        rng = np.random.default_rng(call_seed + 1)

        # Each read: the chain vote, the logical correction and the
        # energy, on the objective's compiled terms (a hand-built
        # problem has none; they are the request's).
        logical = problem.logical
        if logical is None:
            logical = request.terms
        positions = np.searchsorted(problem.chain_variables, logical.variables)
        descender = LogicalDescender(logical)
        variables = problem.chain_variables.tolist()
        samples: List[AnnealSample] = []
        for bits in sampler.sample(problem, num_reads=request.num_reads):
            values, break_fraction = chain_vote(problem, bits, rng)
            state = values[positions].astype(float)
            descender.descend_state(state, rng)
            values[positions] = state != 0
            samples.append(
                AnnealSample(
                    assignment=Assignment(dict(zip(variables, values.tolist()))),
                    energy=logical.energy(state) * request.energy_scale,
                    chain_break_fraction=break_fraction,
                )
            )
        full_time_us = self.timing.total_us(request.num_reads)
        self.total_modelled_us += full_time_us

        dropped = 0
        if call is not None:
            if call.timeout_after_reads is not None:
                raise ReadoutTimeout(
                    f"call timed out after {call.timeout_after_reads} of "
                    f"{request.num_reads} reads",
                    call_index=call.call_index,
                    partial=samples[: call.timeout_after_reads],
                    elapsed_us=full_time_us,
                )
            if call.dropped_reads:
                kept = [
                    s
                    for i, s in enumerate(samples)
                    if i not in set(call.dropped_reads)
                ]
                dropped = len(samples) - len(kept)
                if not kept:
                    raise ReadoutTimeout(
                        f"all {request.num_reads} reads dropped",
                        call_index=call.call_index,
                        partial=(),
                        elapsed_us=full_time_us,
                    )
                samples = kept
        return AnnealResult(
            samples=tuple(samples),
            qpu_time_us=full_time_us,
            dropped_reads=dropped,
        )
