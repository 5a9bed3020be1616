"""The resilient device proxy.

:class:`ResilientDevice` wraps any :class:`~repro.annealer.device.
AnnealerDevice`-shaped object (anything with ``run(request)``) and
turns its typed faults into a single, well-defined outcome per call:
either an :class:`~repro.annealer.device.AnnealResult` (possibly
salvaged from partial reads) or :class:`QaUnavailable` — the *only*
exception the hybrid loop has to handle.

Policies (see :mod:`repro.core.config`):

- **Retry + backoff** — up to ``max_attempts`` tries per call with
  exponential backoff and decorrelated jitter, drawn from a seeded RNG
  so the retry trace replays exactly.  A calibration drift is
  answered with a recalibration before the retry; a readout timeout's
  partial reads are salvaged as the call's result.
- **Deadlines and budget** — a per-call deadline truncates requests to
  the reads that fit; a global QA budget caps total modelled device
  time (anneal + readout + programming + backoff) across the solve.
  All accounting uses the :class:`~repro.annealer.timing.QpuTimingModel`
  clock, never wall time.
- **Circuit breaker** — consecutive failed *calls* open the breaker;
  while open, calls are refused before touching the device.

Every decision is recorded in :class:`ResilienceStats` (attempt-level
retry trace, per-channel fault counts, budget spent, breaker
transitions) for `HybridStats`, the CLI summary, and the determinism
tests.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.annealer.device import AnnealRequest, AnnealResult
from repro.annealer.faults import (
    CalibrationDrift,
    DeviceFault,
    ProgrammingError,
    ReadoutTimeout,
)
from repro.core.config import ResilienceConfig
from repro.resilience.breaker import BreakerState, CircuitBreaker

#: Retry backoff bounds (modelled µs): attempt k's backoff is drawn
#: uniformly from ``[BASE_BACKOFF_US, min(MAX_BACKOFF_US, 3 * previous
#: backoff)]`` (the AWS "decorrelated jitter" scheme) from a seeded RNG,
#: so the whole retry trace replays deterministically; backoff is
#: charged against the QA budget like any other device time.
BASE_BACKOFF_US = 100.0
MAX_BACKOFF_US = 10_000.0


class QaUnavailable(RuntimeError):
    """The QA service could not serve this call and retrying now is
    pointless.

    ``reason`` is one of ``breaker_open``, ``budget_exhausted``,
    ``deadline``, or ``retries_exhausted``.  The first three are
    *persistent* (the condition outlives this call, so the hybrid loop
    degrades to pure CDCL); ``retries_exhausted`` is transient (this
    call lost its retry budget, the next may succeed).
    """

    #: Reasons that will affect every subsequent call identically.
    PERSISTENT_REASONS = frozenset(
        {"breaker_open", "budget_exhausted", "deadline"}
    )

    def __init__(
        self,
        reason: str,
        message: str,
        cause: Optional[DeviceFault] = None,
    ):
        super().__init__(message)
        self.reason = reason
        self.cause = cause

    @property
    def persistent(self) -> bool:
        """True when the condition outlives this call."""
        return self.reason in self.PERSISTENT_REASONS


@dataclass
class ResilienceStats:
    """Counters and traces of one :class:`ResilientDevice` lifetime."""

    calls: int = 0
    attempts: int = 0
    successes: int = 0
    retries: int = 0
    failed_attempts: int = 0
    unavailable: int = 0
    partial_accepted: int = 0
    truncated_calls: int = 0
    recalibrations: int = 0
    budget_spent_us: float = 0.0
    backoff_us: float = 0.0
    fault_counts: Dict[str, int] = field(default_factory=dict)
    #: One entry per attempt or refusal:
    #: ``(call, attempt, event, backoff_us)``.
    retry_trace: List[Tuple[int, int, str, float]] = field(default_factory=list)

    def count_fault(self, name: str) -> None:
        """Bump the per-channel fault counter."""
        self.fault_counts[name] = self.fault_counts.get(name, 0) + 1


class ResilientDevice:
    """Retry/deadline/budget/breaker proxy around an annealer device.

    Drop-in for :class:`~repro.annealer.device.AnnealerDevice` wherever
    only ``run`` and the passive attributes (``hardware``,
    ``chain_strength``, ``timing``) are used; unknown attributes
    delegate to the wrapped device.
    """

    def __init__(
        self,
        device,
        config: Optional[ResilienceConfig] = None,
        observability=None,
    ):
        from repro.observability import DISABLED

        self.inner = device
        self.config = config or ResilienceConfig()
        self.stats = ResilienceStats()
        self._rng = np.random.default_rng(self.config.seed)
        self.breaker = CircuitBreaker(
            self.config.breaker, clock=lambda: self.stats.budget_spent_us
        )
        self.observability = DISABLED
        if observability is not None:
            self.set_observability(observability)

    # -- delegation ----------------------------------------------------

    @property
    def hardware(self):
        """The wrapped device's topology."""
        return self.inner.hardware

    @property
    def timing(self):
        """The wrapped device's timing model (the budget clock)."""
        return self.inner.timing

    @property
    def chain_strength(self):
        """The wrapped device's chain strength."""
        return getattr(self.inner, "chain_strength", None)

    def __getattr__(self, name: str):
        return getattr(self.inner, name)

    def recalibrate(self) -> None:
        """Recalibrate the wrapped device."""
        self.inner.recalibrate()

    def set_observability(self, observability) -> None:
        """Attach a tracing/metrics bundle here and on the wrapped
        device (retry/breaker decisions become ``qa.*`` /
        ``breaker.transition`` events and service-level metrics)."""
        from repro.observability import DISABLED, declare_solver_metrics

        self.observability = observability or DISABLED
        if self.observability.metrics is not None:
            declare_solver_metrics(self.observability.metrics)
        if hasattr(self.inner, "set_observability"):
            self.inner.set_observability(observability)

    # -- helpers -------------------------------------------------------

    @property
    def breaker_state(self) -> str:
        """Current breaker state name (for stats/CLI)."""
        return self.breaker.state.value

    def force_degraded(self) -> None:
        """Permanently refuse QA calls (pure-CDCL mode)."""
        self.breaker.force_open()

    def budget_remaining_us(self) -> float:
        """Modelled microseconds of QA budget left (inf if unlimited)."""
        if self.config.qa_budget_us is None:
            return float("inf")
        return max(0.0, self.config.qa_budget_us - self.stats.budget_spent_us)

    def _charge(self, amount_us: float) -> None:
        self.stats.budget_spent_us += amount_us

    def _fits_budget(self, amount_us: float) -> bool:
        if self.config.qa_budget_us is None:
            return True
        return self.stats.budget_spent_us + amount_us <= self.config.qa_budget_us

    def _deadline_reads(self, num_reads: int) -> int:
        """Max reads of this request that fit the per-call deadline
        (0 when not even one read fits)."""
        deadline = self.config.call_deadline_us
        if deadline is None:
            return num_reads
        timing = self.timing
        per_read = timing.sample_us + timing.inter_sample_delay_us
        if per_read <= 0:
            return num_reads
        budgetable = deadline - timing.programming_us + timing.inter_sample_delay_us
        fit = int(budgetable // per_read)
        return max(0, min(num_reads, fit))

    # -- the call ------------------------------------------------------

    #: retry_trace event names that are refusals or outcomes rather
    #: than failed device attempts; anything else in the trace marks an
    #: attempt that hit a fault and becomes a ``qa.retry`` event.
    _OUTCOME_TRACE_EVENTS = frozenset(
        {"success", "partial_accepted", "breaker_open", "deadline",
         "budget_exhausted"}
    )

    def run(self, request: AnnealRequest) -> AnnealResult:
        """One resilient device call.

        Raises :class:`QaUnavailable` (only) when the call cannot be
        served; all typed device faults are absorbed by the retry
        loop.  With observability attached, each retried attempt, each
        breaker transition, and each refusal is emitted as an event
        under the enclosing ``anneal`` span.
        """
        obs = self.observability
        if not obs.enabled:
            return self._run_guarded(request)
        marks = (
            len(self.stats.retry_trace),
            len(self.breaker.transitions),
            self.stats.retries,
        )
        try:
            return self._run_guarded(request)
        except QaUnavailable as unavailable:
            obs.tracer.event(
                "qa.unavailable",
                reason=unavailable.reason,
                persistent=unavailable.persistent,
            )
            raise
        finally:
            self._observe_call(obs, *marks)

    def _observe_call(
        self, obs, trace_mark: int, transition_mark: int, retries_mark: int
    ) -> None:
        """Emit events/metrics for everything this call recorded."""
        tracer = obs.tracer
        metrics = obs.metrics
        if tracer.enabled:
            for call, attempt, event, backoff_us in self.stats.retry_trace[
                trace_mark:
            ]:
                if event in self._OUTCOME_TRACE_EVENTS:
                    continue
                tracer.event(
                    "qa.retry",
                    attempt=attempt,
                    fault=event,
                    backoff_us=backoff_us,
                )
        for clock_us, from_state, to_state in self.breaker.transitions[
            transition_mark:
        ]:
            if tracer.enabled:
                tracer.event(
                    "breaker.transition",
                    from_state=from_state.value,
                    to_state=to_state.value,
                    clock_us=clock_us,
                )
            if metrics is not None:
                metrics.counter("hyqsat_breaker_transitions_total").labels(
                    from_state=from_state.value, to_state=to_state.value
                ).inc()
        if metrics is not None:
            retries = self.stats.retries - retries_mark
            if retries:
                metrics.counter("hyqsat_qa_retries_total").inc(retries)
            from repro.observability import BREAKER_STATE_CODES

            metrics.gauge("hyqsat_breaker_state").set(
                BREAKER_STATE_CODES[self.breaker.state.value]
            )
            metrics.gauge("hyqsat_qa_budget_spent_us").set(
                self.stats.budget_spent_us
            )

    def _run_guarded(self, request: AnnealRequest) -> AnnealResult:
        """The retry/deadline/budget/breaker state machine."""
        stats = self.stats
        stats.calls += 1
        call = stats.calls

        if not self.breaker.allow():
            stats.unavailable += 1
            stats.retry_trace.append((call, 0, "breaker_open", 0.0))
            raise QaUnavailable(
                "breaker_open",
                f"circuit breaker open; call {call} refused",
            )

        reads = self._deadline_reads(request.num_reads)
        if reads < 1:
            stats.unavailable += 1
            stats.retry_trace.append((call, 0, "deadline", 0.0))
            self.breaker.record_failure()
            raise QaUnavailable(
                "deadline",
                f"call deadline {self.config.call_deadline_us:.0f}us cannot "
                "fit a single read",
            )
        if reads < request.num_reads:
            stats.truncated_calls += 1
            request = dataclasses.replace(request, num_reads=reads)

        attempt_cost = self.timing.total_us(request.num_reads)
        max_attempts = self.config.max_attempts
        backoff = BASE_BACKOFF_US
        last_fault: Optional[DeviceFault] = None
        event = "fault"
        for attempt in range(1, max_attempts + 1):
            if not self._fits_budget(attempt_cost):
                stats.unavailable += 1
                stats.retry_trace.append((call, attempt, "budget_exhausted", 0.0))
                raise QaUnavailable(
                    "budget_exhausted",
                    f"QA budget spent ({stats.budget_spent_us:.0f}us of "
                    f"{self.config.qa_budget_us:.0f}us); call {call} refused",
                    cause=last_fault,
                )
            stats.attempts += 1
            if attempt > 1:
                stats.retries += 1
            try:
                result = self.inner.run(request)
            except ProgrammingError as fault:
                self._charge(self.timing.programming_us)
                last_fault = fault
                event = "programming_error"
                stats.count_fault(event)
            except CalibrationDrift as fault:
                self._charge(self.timing.programming_us)
                last_fault = fault
                event = "calibration_drift"
                stats.count_fault(event)
                self.recalibrate()
                stats.recalibrations += 1
            except ReadoutTimeout as fault:
                charged = fault.elapsed_us
                if self.config.call_deadline_us is not None:
                    charged = min(charged, self.config.call_deadline_us)
                self._charge(charged)
                last_fault = fault
                event = "readout_timeout"
                stats.count_fault(event)
                if fault.partial:
                    stats.partial_accepted += 1
                    stats.successes += 1
                    stats.retry_trace.append(
                        (call, attempt, "partial_accepted", 0.0)
                    )
                    self.breaker.record_success()
                    return AnnealResult(
                        samples=tuple(fault.partial),
                        qpu_time_us=charged,
                        dropped_reads=request.num_reads - len(fault.partial),
                    )
            else:
                self._charge(result.qpu_time_us)
                stats.successes += 1
                stats.retry_trace.append((call, attempt, "success", 0.0))
                self.breaker.record_success()
                return result

            # One failed attempt.
            stats.failed_attempts += 1
            if attempt >= max_attempts:
                stats.retry_trace.append((call, attempt, event, 0.0))
                break
            # Decorrelated jitter: sleep ~ U[base, min(max, 3*prev)],
            # charged to the budget in modelled microseconds.
            high = min(MAX_BACKOFF_US, 3.0 * backoff)
            low = min(BASE_BACKOFF_US, high)
            backoff = float(self._rng.uniform(low, high)) if high > 0 else 0.0
            stats.retry_trace.append((call, attempt, event, backoff))
            if not self._fits_budget(backoff):
                stats.unavailable += 1
                stats.retry_trace.append(
                    (call, attempt, "budget_exhausted", 0.0)
                )
                raise QaUnavailable(
                    "budget_exhausted",
                    "QA budget cannot absorb the retry backoff",
                    cause=last_fault,
                )
            self._charge(backoff)
            stats.backoff_us += backoff

        self.breaker.record_failure()
        stats.unavailable += 1
        if self.breaker.is_open:
            raise QaUnavailable(
                "breaker_open",
                f"call {call} exhausted its retries and opened the breaker",
                cause=last_fault,
            )
        raise QaUnavailable(
            "retries_exhausted",
            f"call {call} failed {max_attempts} attempts",
            cause=last_fault,
        )
