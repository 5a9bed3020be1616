"""Fleet failover under chaos: quarantine, probation probes, breaker
HALF_OPEN races, and the all-quarantined cooldown wait."""

from __future__ import annotations

import numpy as np
import pytest

from repro.annealer import parse_fault_spec
from repro.annealer.device import AnnealerDevice
from repro.benchgen.random_ksat import random_3sat
from repro.core.config import BreakerPolicy, ResilienceConfig
from repro.resilience import BreakerState, CircuitBreaker, ResilientDevice
from repro.resilience.device import QaUnavailable
from repro.sat import to_dimacs
from repro.service import FleetDevice, FleetPolicy, JobSpec
from repro.service.jobs import run_job

from tests.chaos.conftest import det_view


@pytest.fixture(scope="module")
def storm_formula():
    return to_dimacs(random_3sat(20, 86, np.random.default_rng(5)))


class TestFleetVsSolo:
    def test_healthy_fleet_is_bit_identical_to_solo(self, storm_formula):
        solo = run_job(JobSpec(job_id="s", dimacs=storm_formula, seed=3))
        fleet = run_job(
            JobSpec(job_id="f", dimacs=storm_formula, seed=3, fleet=3)
        )
        assert det_view(fleet) == det_view(solo)

    def test_fleet_survives_a_storm_that_degrades_solo(self, storm_formula):
        faults = dict(
            qa_faults="dropout=0.7",
            fault_seed=11,
            qa_retries=1,
            qa_breaker_threshold=3,
        )
        solo = run_job(
            JobSpec(job_id="s", dimacs=storm_formula, seed=3, **faults)
        )
        fleet = run_job(
            JobSpec(
                job_id="f", dimacs=storm_formula, seed=3, fleet=3, **faults
            )
        )
        assert solo.degraded, "storm should take out the solo device"
        assert not fleet.degraded, "failover should absorb the storm"
        assert fleet.qa_calls > solo.qa_calls
        assert fleet.status == solo.status

    def test_storm_outcomes_are_deterministic(self, storm_formula):
        spec = JobSpec(
            job_id="d",
            dimacs=storm_formula,
            seed=3,
            fleet=3,
            qa_faults="dropout=0.7",
            fault_seed=11,
            qa_retries=1,
            qa_breaker_threshold=3,
        )
        assert det_view(run_job(spec)) == det_view(run_job(spec))


def _member(hardware, fault_spec=None, fault_seed=1, rng_seed=1):
    device = AnnealerDevice(
        hardware,
        seed=0,
        faults=parse_fault_spec(fault_spec) if fault_spec else None,
        fault_seed=fault_seed,
    )
    return ResilientDevice(
        device,
        ResilienceConfig(max_attempts=1, seed=rng_seed),
    )


class TestProbeRaces:
    """Direct FleetDevice scenarios around probation and HALF_OPEN."""

    def test_half_open_probe_race_reopens_then_closes_on_heal(
        self, small_hardware, tiny_request
    ):
        bad = _member(small_hardware, "dropout=1.0", fault_seed=1, rng_seed=1)
        good = _member(small_hardware, rng_seed=2)
        fleet = FleetDevice(
            [bad, good],
            FleetPolicy(quarantine_threshold=0.8, cooldown_us=500.0),
        )
        # An outage-style breaker: its cooldown runs on the fleet
        # clock, which keeps advancing while the healthy member
        # serves, so the breaker and the fleet probation window race.
        bad.breaker = CircuitBreaker(
            BreakerPolicy(failure_threshold=1, cooldown_us=300.0),
            clock=fleet._now_us,
        )
        for _ in range(6):
            fleet.run(tiny_request)
        # The probe raced the HALF_OPEN window, lost (still faulty),
        # reopened the breaker, and re-quarantined the member.
        transitions = [
            (a.value, b.value) for _, a, b in bad.breaker.transitions
        ]
        assert ("closed", "open") in transitions
        assert ("open", "half_open") in transitions
        assert ("half_open", "open") in transitions
        assert fleet._state[0] == "quarantined"
        assert fleet.fleet_stats.probes >= 1
        assert fleet.fleet_stats.quarantines >= 2

        # Heal the member: the next probe's HALF_OPEN attempt succeeds,
        # the breaker closes, and the member reactivates.
        bad.inner.fault_injector = None
        for _ in range(8):
            fleet.run(tiny_request)
        assert bad.breaker.state is BreakerState.CLOSED
        assert fleet._state[0] == "active"
        assert ("half_open", "closed") in [
            (a.value, b.value) for _, a, b in bad.breaker.transitions
        ]

    def test_probe_failure_falls_over_without_losing_the_call(
        self, small_hardware, tiny_request
    ):
        bad = _member(small_hardware, "dropout=1.0", fault_seed=1, rng_seed=1)
        good = _member(small_hardware, rng_seed=2)
        fleet = FleetDevice(
            [bad, good],
            FleetPolicy(quarantine_threshold=0.8, cooldown_us=200.0),
        )
        # Every call is served even while the bad member cycles
        # through quarantine → probation → failed probe.
        for _ in range(12):
            assert fleet.run(tiny_request) is not None
        assert fleet.fleet_stats.probes >= 1
        assert fleet.fleet_stats.quarantines >= 2

    def test_all_quarantined_fleet_waits_out_cooldown_and_recovers(
        self, small_hardware, tiny_request
    ):
        def build():
            bad = _member(
                small_hardware, "dropout=1.0", fault_seed=1, rng_seed=1
            )
            bad.breaker = CircuitBreaker(
                BreakerPolicy(failure_threshold=1, cooldown_us=100.0),
                clock=lambda: bad.stats.budget_spent_us,
            )
            flaky = _member(
                small_hardware, "dropout=0.5", fault_seed=2, rng_seed=2
            )
            return FleetDevice(
                [bad, flaky],
                FleetPolicy(quarantine_threshold=0.8, cooldown_us=500.0),
            )

        def drive(fleet, calls=40):
            served = 0
            for _ in range(calls):
                try:
                    fleet.run(tiny_request)
                except QaUnavailable:
                    continue
                served += 1
            return served

        fleet = build()
        served = drive(fleet)
        # Both members hit quarantine at some point; the modelled
        # clock freezes when nobody attempts, so without the cooldown
        # wait the fleet would refuse every call forever.
        assert fleet.fleet_stats.cooldown_waits >= 1
        assert fleet.fleet_stats.probes >= 1
        assert served >= 5, "the fleet must keep serving through waits"

        rerun = build()
        assert drive(rerun) == served
        assert rerun.fleet_stats == fleet.fleet_stats
        assert rerun.health == fleet.health
