"""Tests for the circuit breaker state machine."""

from repro.core.config import BreakerPolicy
from repro.resilience.breaker import BreakerState, CircuitBreaker


class FakeClock:
    """A settable modelled-microseconds clock."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, us):
        self.now += us


def _breaker(threshold=3, cooldown=100.0):
    clock = FakeClock()
    breaker = CircuitBreaker(
        BreakerPolicy(failure_threshold=threshold, cooldown_us=cooldown),
        clock=clock,
    )
    return breaker, clock


def test_starts_closed_and_allows():
    breaker, _ = _breaker()
    assert breaker.state is BreakerState.CLOSED
    assert breaker.allow()
    assert not breaker.is_open


def test_opens_after_consecutive_failures():
    breaker, _ = _breaker(threshold=3)
    breaker.record_failure()
    breaker.record_failure()
    assert breaker.state is BreakerState.CLOSED
    breaker.record_failure()
    assert breaker.state is BreakerState.OPEN
    assert not breaker.allow()


def test_success_resets_the_consecutive_count():
    breaker, _ = _breaker(threshold=3)
    breaker.record_failure()
    breaker.record_failure()
    breaker.record_success()
    breaker.record_failure()
    breaker.record_failure()
    assert breaker.state is BreakerState.CLOSED


def test_half_open_after_cooldown_then_closes_on_success():
    breaker, clock = _breaker(threshold=1, cooldown=100.0)
    breaker.record_failure()
    assert breaker.state is BreakerState.OPEN
    clock.advance(99.0)
    assert not breaker.allow()
    clock.advance(1.0)
    assert breaker.allow()  # the probe call
    assert breaker.state is BreakerState.HALF_OPEN
    breaker.record_success()
    assert breaker.state is BreakerState.CLOSED


def test_half_open_failure_reopens_and_restarts_cooldown():
    breaker, clock = _breaker(threshold=1, cooldown=100.0)
    breaker.record_failure()
    clock.advance(100.0)
    assert breaker.allow()
    breaker.record_failure()
    assert breaker.state is BreakerState.OPEN
    # The cooldown restarts from the reopen instant.
    clock.advance(99.0)
    assert not breaker.allow()
    clock.advance(1.0)
    assert breaker.allow()


def test_force_open_never_recovers():
    breaker, clock = _breaker(threshold=5, cooldown=1.0)
    breaker.force_open()
    assert breaker.is_open
    clock.advance(1e9)
    assert not breaker.allow()
    breaker.record_success()
    assert breaker.is_open


def test_transitions_recorded_with_clock_stamps():
    breaker, clock = _breaker(threshold=1, cooldown=50.0)
    clock.advance(7.0)
    breaker.record_failure()
    clock.advance(50.0)
    breaker.allow()
    breaker.record_success()
    assert breaker.transitions == [
        (7.0, BreakerState.CLOSED, BreakerState.OPEN),
        (57.0, BreakerState.OPEN, BreakerState.HALF_OPEN),
        (57.0, BreakerState.HALF_OPEN, BreakerState.CLOSED),
    ]
