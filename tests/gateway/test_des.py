"""Fleet DES: drift speed factors and the k x m makespan model."""

from __future__ import annotations

import pytest

from repro.annealer.faults import FaultModel
from repro.gateway.des import (
    DRIFT_RECAL_PENALTY,
    QpuLane,
    drift_speed_factors,
    simulate_fleet_makespan,
)

UNIT = [QpuLane("qpu0")]


class TestDriftSpeedFactors:
    def test_nominal_fleet_is_unit_speed(self):
        assert drift_speed_factors(3) == [1.0, 1.0, 1.0]
        assert drift_speed_factors(2, FaultModel()) == [1.0, 1.0]

    def test_deterministic_per_seed(self):
        faults = FaultModel(drift_onset_prob=0.3)
        assert drift_speed_factors(4, faults, seed=7) == drift_speed_factors(
            4, faults, seed=7
        )
        assert drift_speed_factors(4, faults, seed=7) != drift_speed_factors(
            4, faults, seed=8
        )

    def test_factors_bounded_by_recal_penalty(self):
        faults = FaultModel(drift_onset_prob=0.9, drift_bias_step=1.0)
        factors = drift_speed_factors(8, faults)
        assert all(1.0 <= f <= 1.0 + DRIFT_RECAL_PENALTY for f in factors)
        # A drift step past the fail threshold saturates immediately.
        assert max(factors) == pytest.approx(1.0 + DRIFT_RECAL_PENALTY)

    def test_devices_spread(self):
        faults = FaultModel(drift_onset_prob=0.3)
        factors = drift_speed_factors(8, faults)
        assert len(set(factors)) > 1  # heterogeneous calibration

    def test_rejects_empty_fleet(self):
        with pytest.raises(ValueError):
            drift_speed_factors(0)


class TestOneUnitLane:
    """k workers sharing one QPU: the service clock bench_service
    reports."""

    def test_cpu_bound_jobs_scale_with_workers(self):
        profiles = [(1.0, 0, 0.0)] * 4
        assert simulate_fleet_makespan(profiles, 1, UNIT) == pytest.approx(4.0)
        assert simulate_fleet_makespan(profiles, 4, UNIT) == pytest.approx(1.0)

    def test_qpu_bound_jobs_serialise(self):
        profiles = [(0.0, 1, 1e6)] * 2  # 1 modelled second each, pure QPU
        assert simulate_fleet_makespan(profiles, 2, UNIT) == pytest.approx(2.0)

    def test_mixed_jobs_overlap_cpu_with_qpu(self):
        profiles = [(1.0, 1, 1e5)] * 2
        serial = simulate_fleet_makespan(profiles, 1, UNIT)
        parallel = simulate_fleet_makespan(profiles, 2, UNIT)
        assert parallel < serial
        # QPU lane still serialises its 0.1s segments
        assert parallel >= 1.0 + 0.1

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            simulate_fleet_makespan([], 0, UNIT)


class TestFleetMakespan:
    PROFILES = [
        (0.4, 3, 900.0),
        (0.2, 5, 1500.0),
        (0.6, 2, 400.0),
        (0.3, 4, 1200.0),
        (0.5, 0, 0.0),
    ]

    def test_more_lanes_never_slower(self):
        one = simulate_fleet_makespan(self.PROFILES, 4, UNIT)
        two = simulate_fleet_makespan(
            self.PROFILES, 4, [QpuLane("a"), QpuLane("b")]
        )
        four = simulate_fleet_makespan(
            self.PROFILES, 4, [QpuLane(f"q{i}") for i in range(4)]
        )
        assert two <= one
        assert four <= two

    def test_qpu_bound_jobs_scale_with_lanes(self):
        # All-QPU jobs on ample workers: the device is the bottleneck,
        # so m lanes cut makespan by ~m.
        profiles = [(1e-9, 1, 1_000_000.0)] * 8
        one = simulate_fleet_makespan(profiles, 8, UNIT)
        four = simulate_fleet_makespan(
            profiles, 8, [QpuLane(f"q{i}") for i in range(4)]
        )
        assert one / four == pytest.approx(4.0, rel=0.01)

    def test_slow_lane_stretches_pinned_jobs(self):
        lanes = [QpuLane("good"), QpuLane("drifted", speed=1.25)]
        pinned_good = [(0.1, 2, 500_000.0, 0)]
        pinned_bad = [(0.1, 2, 500_000.0, 1)]
        assert simulate_fleet_makespan(
            pinned_bad, 1, lanes
        ) > simulate_fleet_makespan(pinned_good, 1, lanes)

    def test_unpinned_jobs_avoid_the_slow_lane(self):
        lanes = [QpuLane("good"), QpuLane("drifted", speed=100.0)]
        free = simulate_fleet_makespan([(0.1, 2, 500_000.0)], 1, lanes)
        forced = simulate_fleet_makespan([(0.1, 2, 500_000.0, 1)], 1, lanes)
        assert free < forced

    def test_deterministic(self):
        lanes = [QpuLane("a"), QpuLane("b", speed=1.1)]
        runs = {
            simulate_fleet_makespan(self.PROFILES, 3, lanes) for _ in range(5)
        }
        assert len(runs) == 1

    def test_validates_inputs(self):
        with pytest.raises(ValueError):
            simulate_fleet_makespan(self.PROFILES, 0, UNIT)
        with pytest.raises(ValueError):
            simulate_fleet_makespan(self.PROFILES, 1, [])
        with pytest.raises(ValueError):
            simulate_fleet_makespan([(0.1, 1, 100.0, 5)], 1, UNIT)
        with pytest.raises(ValueError):
            QpuLane("bad", speed=0.0)

    def test_empty_job_set(self):
        assert simulate_fleet_makespan([], 2, UNIT) == 0.0
