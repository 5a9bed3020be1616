"""Resilience layer: surviving QPU service failure, not just noise.

The paper's deployment is a CDCL loop calling a remote, shared D-Wave
2000Q; on live service, calls fail to program, time out, and drift out
of calibration.  This package wraps the simulated device with the
client-side machinery such a deployment needs:

- :class:`ResilientDevice` — retry with exponential backoff and
  decorrelated jitter, per-call deadlines, a global QA time budget on
  the modelled device clock, and a circuit breaker.
- :class:`CircuitBreaker` / :class:`BreakerState` — the closed →
  open → half-open state machine.
- :class:`QaUnavailable` — the single exception surfaced to callers;
  its ``persistent`` flag tells the hybrid loop whether to degrade to
  pure CDCL (the paper's Strategy 3 is the per-call fallback).

Policies are plain dataclasses in :mod:`repro.core.config`
(:class:`~repro.core.config.BreakerPolicy`,
:class:`~repro.core.config.ResilienceConfig`).
"""

from repro.core.config import BreakerPolicy, ResilienceConfig
from repro.resilience.breaker import BreakerState, CircuitBreaker
from repro.resilience.device import QaUnavailable, ResilienceStats, ResilientDevice

__all__ = [
    "BreakerPolicy",
    "BreakerState",
    "CircuitBreaker",
    "QaUnavailable",
    "ResilienceConfig",
    "ResilienceStats",
    "ResilientDevice",
]
