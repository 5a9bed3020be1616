"""Service-level cache integration: bit-identical replay through
run_batch, subsumption certificates, warm starts, and the
no-double-billing guarantee."""

from __future__ import annotations

import sqlite3

import numpy as np
import pytest

from repro.benchgen.random_ksat import random_3sat
from repro.cache import PersistentResultStore
from repro.sat import to_dimacs
from repro.service import JobSpec, run_job
from repro.service.service import run_batch

from tests.service.conftest import solver_view


@pytest.fixture(scope="module")
def specs():
    """Four deterministic uf20-91 instances (mixed sat/unsat)."""
    return [
        JobSpec(
            job_id=f"j{i}",
            dimacs=to_dimacs(random_3sat(20, 91, np.random.default_rng(100 + i))),
            seed=i,
        )
        for i in range(4)
    ]


@pytest.fixture()
def db_path(tmp_path):
    return str(tmp_path / "cache.sqlite")


class TestExactReplayThroughService:
    def test_second_batch_is_bit_identical_and_all_cached(
        self, specs, db_path
    ):
        fresh, fresh_stats = run_batch(specs, cache_path=db_path)
        cached, cached_stats = run_batch(specs, cache_path=db_path)

        assert fresh_stats.cache_hits == 0
        assert fresh_stats.cache_misses == len(specs)
        assert cached_stats.cache_hits == len(specs)
        assert cached_stats.cache_misses == 0

        for a, b in zip(fresh, cached):
            assert solver_view(a) == solver_view(b)
            assert b.cached is True and b.cache_kind == "exact"
            assert not a.cached

    def test_hits_never_bill_modelled_qpu_time(self, specs, db_path):
        _, fresh_stats = run_batch(
            specs, cache_path=db_path, qpu_budget_us=10_000_000.0
        )
        _, cached_stats = run_batch(
            specs, cache_path=db_path, qpu_budget_us=10_000_000.0
        )
        assert fresh_stats.qpu_grants > 0
        assert cached_stats.qpu_grants == 0
        assert cached_stats.qpu_busy_us == 0.0

    def test_cache_survives_across_batches_with_process_pool(
        self, specs, db_path
    ):
        fresh, _ = run_batch(specs, cache_path=db_path)
        cached, stats = run_batch(
            specs, workers=2, pool_mode="process", cache_path=db_path
        )
        assert stats.cache_hits == len(specs)
        for a, b in zip(fresh, cached):
            assert solver_view(a) == solver_view(b)

    def test_no_cache_means_no_counters(self, specs):
        _, stats = run_batch(specs[:1])
        assert stats.cache_hits == 0 and stats.cache_misses == 0

    def test_learned_clauses_never_leak_into_outcomes(self, specs, db_path):
        fresh, _ = run_batch(specs, cache_path=db_path)
        assert all(o.learned is None for o in fresh)

    def test_cache_hit_answers_its_duplicates(self, specs, db_path):
        run_batch(specs[:1], cache_path=db_path)
        dups = [
            JobSpec(job_id=f"d{i}", dimacs=specs[0].dimacs, seed=0)
            for i in range(3)
        ]
        outcomes, stats = run_batch(dups, workers=2, cache_path=db_path)
        hit = outcomes[0]
        assert hit.state == "done" and hit.cached
        for twin in outcomes[1:]:
            assert twin.state == "deduped" and twin.dedup_of == "d0"
            assert solver_view(twin) == solver_view(hit)
        assert stats.cache_hits == 1 and stats.cache_misses == 0
        assert stats.dedup_hits == 2


def _broken(*_args):
    raise sqlite3.OperationalError("disk I/O error")


class TestBrokenCache:
    def test_failing_lookup_and_record_still_answer(
        self, specs, db_path, monkeypatch
    ):
        """Cache errors are misses: every job still solves, answers as
        a solo run does, and leaks no clause-bank payload."""
        monkeypatch.setattr(PersistentResultStore, "lookup", _broken)
        monkeypatch.setattr(PersistentResultStore, "record", _broken)
        outcomes, stats = run_batch(specs, workers=2, cache_path=db_path)
        for spec, outcome in zip(specs, outcomes):
            assert outcome.state == "done" and not outcome.cached
            assert outcome.learned is None
            assert solver_view(outcome) == solver_view(run_job(spec))
        assert stats.cache_hits == 0


class TestSubsumptionThroughService:
    def test_option_change_gets_certificate(self, specs, db_path):
        fresh, _ = run_batch(specs, cache_path=db_path)
        reseeded = [
            JobSpec(job_id=s.job_id, dimacs=s.dimacs, seed=s.seed + 50)
            for s in specs
        ]
        certs, stats = run_batch(reseeded, cache_path=db_path)
        assert stats.cache_subsumption_hits == len(specs)
        for a, b in zip(fresh, certs):
            assert a.status == b.status
            assert b.cached and b.cache_kind in ("model", "unsat")
            assert b.iterations == 0 and b.conflicts == 0
            assert b.qa_calls == 0 and b.qpu_time_us == 0.0

    def test_superset_of_unsat_served_free(self, specs, db_path):
        fresh, _ = run_batch(specs, cache_path=db_path)
        unsat = [
            (spec, outcome)
            for spec, outcome in zip(specs, fresh)
            if outcome.status == "unsat"
        ]
        assert unsat, "fixture set must mix sat and unsat"
        spec, _ = unsat[0]
        extended = spec.dimacs.replace(
            "p cnf 20 91", "p cnf 20 92"
        ) + "1 2 3 0\n"
        certs, stats = run_batch(
            [JobSpec(job_id="super", dimacs=extended, seed=9)],
            cache_path=db_path,
        )
        assert certs[0].status == "unsat"
        assert certs[0].cached and certs[0].cache_kind == "unsat"
        assert stats.cache_subsumption_hits == 1


class TestWarmStartThroughService:
    def test_near_miss_is_warm_started(self, specs, db_path):
        fresh, _ = run_batch(specs, cache_path=db_path)
        sat = [
            (spec, outcome)
            for spec, outcome in zip(specs, fresh)
            if outcome.status == "sat"
        ]
        assert sat, "fixture set must mix sat and unsat"
        spec, _ = sat[0]
        # A strict superset the subsumption layer cannot certify: add
        # a clause the cached model leaves unsatisfied but that the
        # formula may still satisfy another way.
        base_lines = spec.dimacs.strip().splitlines()
        model = [o for o in fresh if o.job_id == spec.job_id][0].model
        blocker = " ".join(str(-lit) for lit in model[:3]) + " 0"
        extended = "\n".join(
            ["p cnf 20 92"] + base_lines[1:] + [blocker]
        ) + "\n"
        outcomes, stats = run_batch(
            [JobSpec(job_id="near", dimacs=extended, seed=3)],
            cache_path=db_path,
        )
        outcome = outcomes[0]
        assert outcome.state == "done"
        assert not outcome.cached
        assert outcome.warm_clauses and outcome.warm_clauses > 0
        assert stats.cache_warm_starts == 1

    def test_warm_started_answer_matches_cold_solve_status(
        self, specs, db_path
    ):
        fresh, _ = run_batch(specs, cache_path=db_path)
        spec = specs[0]
        extended = spec.dimacs.replace(
            "p cnf 20 91", "p cnf 20 92"
        ) + "1 -2 3 0\n"
        near = JobSpec(job_id="near", dimacs=extended, seed=5)
        warm, _ = run_batch([near], cache_path=db_path)
        cold, _ = run_batch([near])
        assert warm[0].status == cold[0].status
        if warm[0].status == "sat":
            from repro.cache import model_satisfies

            assert model_satisfies(near.load_formula(), warm[0].model)
