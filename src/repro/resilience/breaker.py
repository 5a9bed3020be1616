"""Circuit breaker over the modelled device clock.

Standard three-state breaker (closed → open → half-open) protecting
the hybrid loop from hammering a failing QPU service: after
``failure_threshold`` *consecutive* failures the breaker opens and
calls are refused outright; once ``cooldown_us`` of modelled time has
passed it admits one probe call, closing again if the probe succeeds.

The clock is injected as a callable returning *modelled microseconds*
(the :class:`~repro.annealer.timing.QpuTimingModel` accounting the
resilience layer maintains), never wall time, so breaker behaviour is
deterministic and replayable.  Every transition is recorded as
``(clock_us, from_state, to_state)`` for the determinism tests and the
CLI summary.
"""

from __future__ import annotations

import enum
import math
from typing import Callable, List, Tuple

from repro.core.config import BreakerPolicy


class BreakerState(enum.Enum):
    """The three breaker states."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


class CircuitBreaker:
    """Consecutive-failure circuit breaker with half-open probing."""

    def __init__(self, policy: BreakerPolicy, clock: Callable[[], float]):
        self.policy = policy
        self.clock = clock
        self.state = BreakerState.CLOSED
        self.transitions: List[Tuple[float, BreakerState, BreakerState]] = []
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._forced = False

    def _transition(self, to: BreakerState) -> None:
        self.transitions.append((self.clock(), self.state, to))
        self.state = to

    def force_open(self) -> None:
        """Open the breaker permanently (no cooldown recovery).

        Used to pin the solver to pure-CDCL mode: with the breaker
        forced open every QA call is refused before touching the
        device, so the hybrid run is bit-identical to classic CDCL.
        """
        self._forced = True
        if self.state is not BreakerState.OPEN:
            self._transition(BreakerState.OPEN)
        self._opened_at = math.inf

    def allow(self) -> bool:
        """Whether a call may proceed right now.

        An open breaker whose cooldown has expired moves to half-open
        as a side effect (the probe is this very call).
        """
        if self.state is BreakerState.CLOSED:
            return True
        if self.state is BreakerState.OPEN:
            if self._forced:
                return False
            if self.clock() - self._opened_at >= self.policy.cooldown_us:
                self._transition(BreakerState.HALF_OPEN)
                return True
            return False
        return True  # HALF_OPEN: probes flow through

    def record_success(self) -> None:
        """Note a successful call."""
        self._consecutive_failures = 0
        if self.state is BreakerState.HALF_OPEN:
            self._transition(BreakerState.CLOSED)

    def record_failure(self) -> None:
        """Note a failed call; may open the breaker."""
        if self.state is BreakerState.HALF_OPEN:
            self._opened_at = self.clock()
            self._transition(BreakerState.OPEN)
            return
        self._consecutive_failures += 1
        if (
            self.state is BreakerState.CLOSED
            and self._consecutive_failures >= self.policy.failure_threshold
        ):
            self._opened_at = self.clock()
            self._transition(BreakerState.OPEN)

    @property
    def is_open(self) -> bool:
        """True when calls are currently refused."""
        return self.state is BreakerState.OPEN
