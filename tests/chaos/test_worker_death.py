"""Worker-process death: the pool respawns and journaled retries land.

SIGKILLs the live process-pool workers mid-batch and asserts the
service resubmits the in-flight jobs (bounded by
``MAX_WORKER_RETRIES``) instead of hanging or failing the batch.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from collections import Counter

import numpy as np
import pytest

from repro.benchgen.random_ksat import random_3sat
from repro.sat import to_dimacs
from repro.observability import Observability
from repro.service import JobSpec, read_journal
from repro.service.service import (
    MAX_WORKER_RETRIES,
    ServiceConfig,
    SolverService,
)

from tests.chaos.conftest import det_view


def _specs(count=6, num_vars=90):
    return [
        JobSpec(
            job_id=f"j{i}",
            dimacs=to_dimacs(
                random_3sat(
                    num_vars,
                    int(round(num_vars * 4.3)),
                    np.random.default_rng(300 + i),
                )
            ),
            seed=i,
        )
        for i in range(count)
    ]


def _kill_workers(pool, deadline_s=30.0):
    """SIGKILL every live worker process once the pool has spawned."""
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        processes = dict(getattr(pool._executor, "_processes", {}) or {})
        if processes:
            for pid in processes:
                try:
                    os.kill(pid, signal.SIGKILL)
                except (OSError, ProcessLookupError):
                    pass
            return True
        time.sleep(0.05)
    return False


def test_killed_workers_are_respawned_and_jobs_retried(tmp_path):
    specs = _specs()
    journal = str(tmp_path / "journal.jsonl")
    obs = Observability.profiling()
    service = SolverService(
        ServiceConfig(
            workers=2,
            pool_mode="process",
            journal_path=journal,
        ),
        observability=obs,
    )
    outcomes = []
    runner = threading.Thread(
        target=lambda: outcomes.extend(service.run(specs)), daemon=True
    )
    runner.start()
    # Murder the workers as soon as they exist: the pool starts its
    # processes on the coordinator's first submit, so the batch is in
    # flight however fast its jobs solve (a fixed wait outlasted it).
    killed = _kill_workers(service.pool)
    runner.join(timeout=240.0)
    assert not runner.is_alive(), "service hung after worker death"
    assert killed, "no worker processes ever appeared"

    assert [o.job_id for o in outcomes] == [s.job_id for s in specs]
    assert all(o.state == "done" for o in outcomes), [
        (o.job_id, o.state, o.error) for o in outcomes
    ]
    # Each retry was journaled before resubmission.  The service drops
    # its per-job retry counts once the batch is over, so the journal
    # and the retry counter are the record.
    records, _, torn = read_journal(journal)
    assert torn == 0
    retried = Counter(r["id"] for r in records if r["k"] == "retry")
    assert retried, "the kill landed but nothing retried"
    assert max(retried.values()) <= MAX_WORKER_RETRIES
    assert sum(retried.values()) == (
        obs.metrics.counter("hyqsat_service_worker_retries_total").value
    )
    assert not service._worker_retries

    # Retried jobs still produce the canonical deterministic results.
    reference = SolverService(ServiceConfig(workers=2)).run(specs)
    assert [det_view(o) for o in outcomes] == [
        det_view(o) for o in reference
    ]


def test_respawn_is_a_noop_on_a_healthy_pool():
    service = SolverService(ServiceConfig(workers=1, pool_mode="process"))
    try:
        assert service.pool.respawn() is False
    finally:
        service.pool.shutdown()


def test_respawn_refuses_thread_pools():
    service = SolverService(ServiceConfig(workers=1, pool_mode="thread"))
    try:
        assert service.pool.respawn() is False
    finally:
        service.pool.shutdown()
