"""SolverService integration: bit-identity, dedup, fault isolation,
shared budget, lifecycle states, and service observability."""

from __future__ import annotations

import numpy as np
import pytest

import repro.service.service as service_module
from repro.observability import Observability, read_trace
from repro.service import (
    JobOutcome,
    JobSpec,
    SolverService,
    ServiceConfig,
    run_batch,
    run_job,
)

from tests.service.conftest import solver_view

DIMACS = "p cnf 3 2\n1 2 3 0\n-1 2 3 0\n"


class TestBitIdentity:
    """The acceptance property: service results == solo results, per
    fixed job seed, at any worker count and pool mode."""

    def test_mixed_set_is_actually_mixed(self, solo_outcomes):
        statuses = {o.status for o in solo_outcomes.values()}
        assert statuses == {"sat", "unsat"}

    @pytest.mark.parametrize("workers,pool_mode", [
        (4, "thread"),
        (1, "inline"),
    ])
    def test_parallel_matches_serial(
        self, mixed_specs, solo_outcomes, workers, pool_mode
    ):
        outcomes, stats = run_batch(
            mixed_specs, workers=workers, pool_mode=pool_mode
        )
        assert [o.job_id for o in outcomes] == [s.job_id for s in mixed_specs]
        for outcome in outcomes:
            assert outcome.state == "done"
            assert solver_view(outcome) == solver_view(
                solo_outcomes[outcome.job_id]
            )
        assert stats.jobs_by_state == {"done": len(mixed_specs)}

    def test_process_pool_matches_serial(self, mixed_specs, solo_outcomes):
        subset = mixed_specs[:4]
        outcomes, stats = run_batch(subset, workers=2, pool_mode="process")
        for outcome in outcomes:
            assert solver_view(outcome) == solver_view(
                solo_outcomes[outcome.job_id]
            )
        # replayed accounting still lands in the shared ledger
        assert stats.qpu_grants == sum(o.qa_calls for o in outcomes)
        assert stats.qpu_busy_us == pytest.approx(
            sum(o.qpu_time_us for o in outcomes)
        )


class TestDedup:
    def test_duplicates_solved_once(self, instance_texts):
        text = instance_texts[0]
        specs = [
            JobSpec(job_id="primary", dimacs=text, seed=3),
            JobSpec(job_id="dup1", dimacs=text, seed=3),
            JobSpec(job_id="dup2", dimacs=text, seed=3),
            JobSpec(job_id="other", dimacs=instance_texts[1], seed=3),
        ]
        outcomes, stats = run_batch(specs, workers=2)
        by_id = {o.job_id: o for o in outcomes}

        assert stats.dedup_hits == 2
        assert by_id["primary"].state == "done"
        for dup in ("dup1", "dup2"):
            assert by_id[dup].state == "deduped"
            assert by_id[dup].dedup_of == "primary"
            assert solver_view(by_id[dup]) == solver_view(by_id["primary"])
        assert by_id["other"].state == "done"
        assert stats.jobs_by_state == {"done": 2, "deduped": 2}

    @pytest.mark.parametrize("pool_mode,workers", [
        ("inline", 1),
        ("thread", 2),
        ("process", 2),
    ])
    def test_duplicates_solve_once_on_every_pool(
        self, instance_texts, pool_mode, workers
    ):
        specs = [
            JobSpec(job_id=f"d{i}", dimacs=instance_texts[0], seed=3)
            for i in range(3)
        ]
        outcomes, stats = run_batch(
            specs, workers=workers, pool_mode=pool_mode
        )
        primary = outcomes[0]
        assert primary.state == "done" and primary.qa_calls > 0
        for twin in outcomes[1:]:
            assert twin.state == "deduped" and twin.dedup_of == "d0"
            assert solver_view(twin) == solver_view(primary)
        assert stats.dedup_hits == 2
        # One solve's anneals reach the shared ledger, not three.
        assert stats.qpu_grants == primary.qa_calls

    def test_followers_of_a_failed_primary_fail_too(self, monkeypatch):
        """Duplicates parked on a primary that fails got no answer:
        they finalise ``failed`` (naming the primary), not
        ``deduped``."""

        def failing(spec, *_args):
            return JobOutcome(
                job_id=spec.job_id, state="failed", error="boom",
                seed=spec.seed,
            )

        monkeypatch.setattr(service_module, "run_job", failing)
        specs = [
            JobSpec(job_id=f"j{i}", dimacs=DIMACS, seed=1) for i in range(3)
        ]
        obs = Observability.profiling()
        outcomes, stats = run_batch(specs, workers=2, observability=obs)
        assert [o.state for o in outcomes] == ["failed"] * 3
        assert [o.dedup_of for o in outcomes] == [None, "j0", "j0"]
        assert all(o.error == "boom" for o in outcomes)
        assert stats.jobs_by_state == {"failed": 3}
        assert stats.dedup_hits == 2
        # Only the primary ran: followers add no wait/run samples.
        metrics = obs.metrics
        assert metrics.histogram("hyqsat_service_job_run_seconds").count == 1
        assert (
            metrics.histogram("hyqsat_service_queue_wait_seconds").count == 1
        )

    def test_failed_primary_releases_its_claim(self, monkeypatch):
        """A duplicate admitted after the primary failed re-solves
        instead of inheriting the failure."""
        calls = []

        def fail_first(spec, *args):
            calls.append(spec.job_id)
            if len(calls) == 1:
                return JobOutcome(
                    job_id=spec.job_id, state="failed", error="boom",
                    seed=spec.seed,
                )
            return run_job(spec, *args)

        monkeypatch.setattr(service_module, "run_job", fail_first)
        specs = [
            JobSpec(job_id="a", dimacs=DIMACS, seed=1),
            JobSpec(job_id="b", dimacs=DIMACS, seed=1),
        ]
        outcomes, stats = run_batch(specs, workers=1)
        assert calls == ["a", "b"]
        assert [o.state for o in outcomes] == ["failed", "done"]
        assert outcomes[1].dedup_of is None
        assert stats.dedup_hits == 0

    def test_clause_order_does_not_defeat_dedup(self):
        shuffled = "p cnf 3 2\n3 2 -1 0\n2 1 3 0\n"
        specs = [
            JobSpec(job_id="a", dimacs=DIMACS, seed=1),
            JobSpec(job_id="b", dimacs=shuffled, seed=1),
        ]
        _, stats = run_batch(specs, workers=1)
        assert stats.dedup_hits == 1

    def test_different_seeds_do_not_dedup(self):
        specs = [
            JobSpec(job_id="a", dimacs=DIMACS, seed=1),
            JobSpec(job_id="b", dimacs=DIMACS, seed=2),
        ]
        _, stats = run_batch(specs, workers=1)
        assert stats.dedup_hits == 0

    def test_no_dedup_flag(self):
        specs = [
            JobSpec(job_id="a", dimacs=DIMACS, seed=1),
            JobSpec(job_id="b", dimacs=DIMACS, seed=1),
        ]
        outcomes, stats = run_batch(specs, workers=2, dedup=False)
        assert stats.dedup_hits == 0
        assert all(o.state == "done" for o in outcomes)
        # still bit-identical, by determinism rather than by sharing
        assert solver_view(outcomes[0]) == solver_view(outcomes[1])


class TestFaultIsolation:
    """One faulty job degrades alone; siblings stay bit-identical to
    their solo runs (the scheduler-under-faults satellite)."""

    def test_faulty_job_does_not_perturb_siblings(self, instance_texts):
        faulty = JobSpec(
            job_id="faulty",
            dimacs=instance_texts[0],
            seed=0,
            qa_faults="0.8",
            qa_retries=2,
            qa_breaker_threshold=2,
            qa_budget_us=2000.0,
        )
        siblings = [
            JobSpec(job_id=f"clean{i}", dimacs=instance_texts[i], seed=i)
            for i in (1, 2)
        ]
        solo = {s.job_id: run_job(s) for s in [faulty] + siblings}

        outcomes, _ = run_batch([faulty] + siblings, workers=3)
        by_id = {o.job_id: o for o in outcomes}

        # the faulty job's failures/breaker/budget are its own — and
        # even it reproduces its solo run exactly
        assert by_id["faulty"].qa_failures > 0
        assert solver_view(by_id["faulty"]) == solver_view(solo["faulty"])
        # siblings never see the faults
        for spec in siblings:
            out = by_id[spec.job_id]
            assert out.qa_failures == 0
            assert out.breaker_state == "closed"
            assert solver_view(out) == solver_view(solo[spec.job_id])


class TestSharedBudget:
    def test_exhausted_pool_budget_degrades_not_crashes(self, instance_texts):
        specs = [
            JobSpec(job_id=f"j{i}", dimacs=instance_texts[i], seed=i)
            for i in range(3)
        ]
        solo = {s.job_id: run_job(s) for s in specs}
        # a budget no call fits in: every job degrades to pure CDCL
        outcomes, stats = run_batch(specs, workers=2, qpu_budget_us=1.0)
        for outcome in outcomes:
            assert outcome.state == "done"
            # SAT/UNSAT is ground truth, unaffected by degradation
            assert outcome.status == solo[outcome.job_id].status
            assert outcome.qa_calls == 0
        assert stats.qpu_busy_us == 0.0


class TestLifecycle:
    def test_rejected_over_max_depth(self):
        specs = [
            JobSpec(job_id=f"j{i}", dimacs=DIMACS, seed=i) for i in range(3)
        ]
        outcomes, stats = run_batch(specs, workers=1, max_depth=1)
        states = [o.state for o in outcomes]
        assert states.count("rejected") == 2
        assert states.count("done") == 1
        rejected = [o for o in outcomes if o.state == "rejected"]
        assert all("full" in o.error for o in rejected)
        assert stats.jobs_by_state == {"done": 1, "rejected": 2}

    def test_expired_deadline(self):
        specs = [
            JobSpec(job_id="a", dimacs=DIMACS),
            JobSpec(job_id="late", dimacs=DIMACS, deadline_s=1e-12),
        ]
        outcomes, stats = run_batch(specs, workers=1)
        by_id = {o.job_id: o for o in outcomes}
        assert by_id["a"].state == "done"
        assert by_id["late"].state == "expired"
        assert stats.jobs_by_state == {"done": 1, "expired": 1}

    def test_cancel_queued_job(self, instance_texts):
        specs = [
            JobSpec(job_id=f"j{i}", dimacs=instance_texts[i], seed=i)
            for i in range(3)
        ]
        service = SolverService(ServiceConfig(workers=1, pool_mode="thread"))

        def on_outcome(outcome):
            # fires on the coordinator thread as the first job lands;
            # the last job is still queued behind the 1-slot pool.
            if outcome.job_id == "j0":
                assert service.cancel("j2") is True

        outcomes = service.run(specs, on_outcome=on_outcome)
        by_id = {o.job_id: o for o in outcomes}
        assert by_id["j0"].state == "done"
        assert by_id["j1"].state == "done"
        assert by_id["j2"].state == "cancelled"

    def test_cancel_unknown_job_is_false(self):
        service = SolverService(ServiceConfig(workers=1))
        assert service.cancel("ghost") is False

    def test_outcomes_in_submission_order_streaming_in_completion_order(
        self, mixed_specs
    ):
        streamed = []
        outcomes, _ = run_batch(
            mixed_specs[:4], workers=2, on_outcome=lambda o: streamed.append(o)
        )
        assert [o.job_id for o in outcomes] == [
            s.job_id for s in mixed_specs[:4]
        ]
        assert sorted(o.job_id for o in streamed) == sorted(
            o.job_id for o in outcomes
        )


class TestServiceObservability:
    def test_trace_and_metrics(self, tmp_path, instance_texts):
        trace_path = tmp_path / "service.jsonl"
        obs = Observability.tracing(str(trace_path), metrics=True)
        text = instance_texts[0]
        specs = [
            JobSpec(job_id="a", dimacs=text, seed=5),
            JobSpec(job_id="b", dimacs=text, seed=5),  # deduped
            JobSpec(job_id="c", dimacs=instance_texts[1], seed=5),
        ]
        outcomes, _ = run_batch(specs, workers=2, observability=obs)
        obs.close()

        records = read_trace(str(trace_path))
        spans = [r for r in records if r.get("type") == "span"]
        events = [r for r in records if r.get("type") == "event"]
        batch = [r for r in spans if r["name"] == "service.batch"]
        jobs = [r for r in spans if r["name"] == "service.job"]
        assert len(batch) == 1
        assert batch[0]["parent"] is None
        assert batch[0]["attrs"]["jobs"] == 3
        assert batch[0]["attrs"]["done"] == 2
        assert batch[0]["attrs"]["deduped"] == 1
        assert len(jobs) == 3
        for job in jobs:
            assert job["parent"] == batch[0]["id"]
            assert job["attrs"]["state"] in ("done", "deduped")
        assert sum(1 for e in events if e["name"] == "service.admit") == 3
        assert sum(1 for e in events if e["name"] == "service.dedup") == 1

        metrics = obs.metrics
        jobs_total = metrics.counter("hyqsat_service_jobs_total")
        assert jobs_total.labels(state="done").value == 2
        assert jobs_total.labels(state="deduped").value == 1
        assert (
            metrics.counter("hyqsat_service_dedup_hits_total").value == 1
        )
        assert metrics.counter("hyqsat_service_qpu_grants_total").value > 0
