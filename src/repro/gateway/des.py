"""Capacity model: the k-workers x m-QPUs makespan DES.

The repo's one makespan model answers "how long does this job set
take on *k* workers sharing *m* QPUs?" — the paper's Table II
economics extended to a multi-tenant deployment.  The service
benchmark runs it on one unit-speed lane (one shared QPU); the
gateway and cache benchmarks on a fleet.

:func:`simulate_fleet_makespan` is a discrete-event model: each
profile ``(cpu_seconds, qa_calls, qpu_time_us)`` becomes
``qa_calls + 1`` equal CPU segments interleaved with ``qa_calls``
equal QPU segments; CPU segments overlap across the worker lanes and
each QPU segment runs on one of *m* device lanes.  An unpinned job
takes whichever lane finishes its segment earliest (lowest index on
ties — deterministic); a job pinned to a device (the router's
placement) always queues on its own lane.

Devices are heterogeneous: each :class:`QpuLane` carries a *speed
factor* scaling its modelled anneal time.  Factors come from
:func:`drift_speed_factors`, which turns the calibration-drift
channel of :class:`~repro.annealer.faults.FaultModel` into a
deterministic per-device slowdown — a drifted device spends extra
window time on recalibration, up to 25% at the drift-failure
threshold.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

#: Slowdown at (or past) the drift-failure threshold: a fully drifted
#: device pays 25% extra modelled time per window on recalibration.
DRIFT_RECAL_PENALTY = 0.25

#: Modelled QA calls over which a device's drift accumulates before
#: the factor is sampled (one calibration interval).
DRIFT_SAMPLE_CALLS = 100


@dataclass(frozen=True)
class QpuLane:
    """One fleet device in the DES: a name and a speed factor
    (``>= 1``; 1.0 = nominal calibration, 1.25 = fully drifted)."""

    name: str
    speed: float = 1.0

    def __post_init__(self) -> None:
        if self.speed <= 0:
            raise ValueError("speed must be positive")


def drift_speed_factors(
    num_devices: int,
    faults=None,
    seed: int = 0,
) -> List[float]:
    """Deterministic per-device speed factors from calibration drift.

    Device *i* replays ``DRIFT_SAMPLE_CALLS`` QA calls against the
    drift channel of ``faults`` (a
    :class:`~repro.annealer.faults.FaultModel`; None = nominal): each
    call triggers drift with ``drift_onset_prob`` and steps the bias
    offset by ``drift_bias_step`` in a random direction.  The final
    |offset| maps linearly onto ``[1, 1 + DRIFT_RECAL_PENALTY]``,
    saturating at ``drift_fail_threshold`` — the point where the real
    channel would fail the call outright.  Seeded per device, so a
    fleet's calibration spread is reproducible.
    """
    if num_devices < 1:
        raise ValueError("num_devices must be >= 1")
    if faults is None or faults.drift_onset_prob <= 0:
        return [1.0] * num_devices
    factors: List[float] = []
    for index in range(num_devices):
        rng = np.random.default_rng(seed + 1000003 * index)
        offset = 0.0
        for _ in range(DRIFT_SAMPLE_CALLS):
            if rng.random() < faults.drift_onset_prob:
                offset += faults.drift_bias_step * (1 if rng.random() < 0.5 else -1)
        drift = min(abs(offset) / faults.drift_fail_threshold, 1.0)
        factors.append(1.0 + DRIFT_RECAL_PENALTY * drift)
    return factors


def simulate_fleet_makespan(
    profiles: Sequence[Tuple],
    workers: int,
    lanes: Sequence[QpuLane],
) -> float:
    """Modelled makespan of a job set on *k* workers and *m* QPUs.

    Each profile is ``(cpu_seconds, qa_calls, qpu_time_us)`` or
    ``(cpu_seconds, qa_calls, qpu_time_us, lane_index)`` to pin the
    job's anneals to one device (the router's placement).  Unpinned
    jobs pick the lane with the earliest segment completion.  See the
    module docstring for the model.  Time is the modelled service
    clock: measured CPU time overlapped across workers plus modelled
    device time on the lanes, the honest throughput model on hosts
    without real CPU parallelism (docs/SERVICE.md#benchmark).
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if not lanes:
        raise ValueError("need at least one QPU lane")
    jobs = []
    for profile in profiles:
        if len(profile) == 4:
            cpu_s, qa_calls, qpu_us, lane_index = profile
            if not 0 <= int(lane_index) < len(lanes):
                raise ValueError(
                    f"lane_index {lane_index} outside 0..{len(lanes) - 1}"
                )
            pinned: Optional[int] = int(lane_index)
        else:
            cpu_s, qa_calls, qpu_us = profile
            pinned = None
        calls = max(0, int(qa_calls))
        jobs.append((
            calls,
            cpu_s / (calls + 1),
            (qpu_us * 1e-6 / calls) if calls else 0.0,
            pinned,
        ))

    # Events must interleave across lanes in global time order: a QPU
    # request queues only behind windows already granted *before* it,
    # not behind every window an earlier-submitted job will ever take.
    next_job = 0
    events: List[Tuple[float, int, int, int]] = []
    seq = 0
    qpu_free = [0.0] * len(lanes)
    makespan = 0.0

    def start_next(now: float) -> None:
        nonlocal next_job, seq
        calls, cpu_seg, _, _ = jobs[next_job]
        heapq.heappush(events, (now + cpu_seg, seq, next_job, calls))
        next_job += 1
        seq += 1

    def pick_lane(now: float, qpu_seg: float, pinned: Optional[int]) -> int:
        if pinned is not None:
            return pinned
        best, best_done = 0, None
        for index, lane in enumerate(lanes):
            done = max(now, qpu_free[index]) + qpu_seg * lane.speed
            if best_done is None or done < best_done:
                best, best_done = index, done
        return best

    while next_job < len(jobs) and next_job < workers:
        start_next(0.0)
    while events:
        now, _, index, remaining = heapq.heappop(events)
        _, cpu_seg, qpu_seg, pinned = jobs[index]
        if remaining:
            lane = pick_lane(now, qpu_seg, pinned)
            qpu_free[lane] = (
                max(now, qpu_free[lane]) + qpu_seg * lanes[lane].speed
            )
            heapq.heappush(
                events, (qpu_free[lane] + cpu_seg, seq, index, remaining - 1)
            )
            seq += 1
        else:
            makespan = max(makespan, now)
            if next_job < len(jobs):
                start_next(now)
    return makespan
