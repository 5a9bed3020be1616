"""QpuScheduler: one holder at a time, fair share, shared budget."""

from __future__ import annotations

import threading
import time
from types import SimpleNamespace

import pytest

from repro.qubo.ising import LogicalArrays, QuadraticObjective
from repro.resilience import QaUnavailable
from repro.service import QpuScheduler, ScheduledDevice


def wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError("timed out waiting for condition")
        time.sleep(0.001)


class TestLease:
    def test_idle_acquire_grants_immediately(self):
        sched = QpuScheduler()
        token = sched.acquire("a", 100.0)
        sched.release(token, 140.0)
        assert sched.stats.grants == 1
        assert sched.stats.busy_us == 140.0
        assert sched.stats.spent_by_job == {"a": 140.0}

    def test_release_without_grant_raises(self):
        sched = QpuScheduler()
        bogus = SimpleNamespace(job_id="x")
        with pytest.raises(RuntimeError):
            sched.release(bogus, 0.0)

    def test_waiters_are_granted_one_at_a_time(self):
        """Two waiters behind a holder each get a window of their own,
        billed to the timeline one after the other."""
        sched = QpuScheduler()
        holder = sched.acquire("holder", 0.0)
        holding, peak = [], []

        def worker(job_id):
            token = sched.acquire(job_id, 100.0)
            holding.append(job_id)
            peak.append(len(holding))
            time.sleep(0.01)
            holding.remove(job_id)
            sched.release(token, 140.0)

        threads = [
            threading.Thread(target=worker, args=(name,)) for name in ("a", "b")
        ]
        for thread in threads:
            thread.start()
        wait_for(lambda: len(sched._waiters) == 2)
        sched.release(holder, 0.0)
        for thread in threads:
            thread.join(timeout=5)

        assert peak == [1, 1]
        assert sched.stats.grants == 3
        assert sched.stats.busy_us == 280.0
        assert sched.stats.spent_by_job == {"holder": 0.0, "a": 140.0, "b": 140.0}


class TestFairShare:
    def test_least_spent_job_granted_first(self):
        sched = QpuScheduler()
        sched.replay("rich", 1, 1000.0)  # bias: rich has spent a lot
        holder = sched.acquire("holder", 0.0)

        order = []

        def worker(job_id):
            token = sched.acquire(job_id, 0.0)
            order.append(job_id)
            sched.release(token, 0.0)

        # rich queues FIRST (lower seq) but poor must still win.
        rich = threading.Thread(target=worker, args=("rich",))
        rich.start()
        wait_for(lambda: len(sched._waiters) == 1)
        poor = threading.Thread(target=worker, args=("poor",))
        poor.start()
        wait_for(lambda: len(sched._waiters) == 2)

        sched.release(holder, 0.0)
        rich.join(timeout=5)
        poor.join(timeout=5)
        assert order == ["poor", "rich"]


class TestSharedBudget:
    def test_over_budget_acquire_is_refused(self):
        sched = QpuScheduler(budget_us=100.0)
        with pytest.raises(QaUnavailable) as excinfo:
            sched.acquire("a", 200.0)
        assert excinfo.value.reason == "budget_exhausted"
        assert excinfo.value.persistent
        assert sched.stats.budget_denied == 1

    def test_budget_tracks_billed_time(self):
        sched = QpuScheduler(budget_us=100.0)
        token = sched.acquire("a", 50.0)
        sched.release(token, 60.0)
        assert sched.budget_remaining_us() == pytest.approx(40.0)
        with pytest.raises(QaUnavailable):
            sched.acquire("a", 50.0)

    def test_unlimited_budget(self):
        sched = QpuScheduler()
        assert sched.budget_remaining_us() == float("inf")


class TestReplay:
    def test_replay_folds_into_ledger(self):
        sched = QpuScheduler()
        sched.replay("a", 3, 420.0)
        sched.replay("a", 2, 280.0)
        assert sched.stats.grants == 5
        assert sched.stats.busy_us == 700.0
        assert sched.stats.spent_by_job == {"a": 700.0}


class _FakeTiming:
    def total_us(self, reads):
        return 100.0


class _FakeDevice:
    def __init__(self, fail=False):
        self.seed = 7
        self._call_count = 0
        self.timing = _FakeTiming()
        self.total_modelled_us = 0.0
        self.fail = fail

    def run(self, request):
        self._call_count += 1
        self.total_modelled_us += 140.0
        if self.fail:
            raise RuntimeError("device exploded")
        return "samples"


def _request():
    return SimpleNamespace(
        terms=LogicalArrays.from_objective(QuadraticObjective()),
        num_reads=1,
        energy_scale=1.0,
    )


class TestScheduledDevice:
    def test_run_goes_through_the_scheduler(self):
        sched = QpuScheduler()
        device = ScheduledDevice(_FakeDevice(), sched, "job")
        assert device.run(_request()) == "samples"
        assert sched.stats.grants == 1
        assert sched.stats.busy_us == 140.0
        assert sched.stats.spent_by_job == {"job": 140.0}

    def test_attribute_delegation(self):
        device = ScheduledDevice(_FakeDevice(), QpuScheduler(), "job")
        assert device.seed == 7

    def test_release_happens_even_on_device_fault(self):
        sched = QpuScheduler()
        device = ScheduledDevice(_FakeDevice(fail=True), sched, "job")
        with pytest.raises(RuntimeError):
            device.run(_request())
        # billed (hardware charges faulted calls) and the lease is free
        assert sched.stats.busy_us == 140.0
        token = sched.acquire("other", 0.0)
        sched.release(token, 0.0)

