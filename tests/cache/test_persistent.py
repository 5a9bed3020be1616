"""PersistentResultStore unit tests: exact replay, eviction policy,
restart survival, and the maintenance/introspection surface."""

from __future__ import annotations

import pytest

from repro.cache import CacheStats, PersistentResultStore
from repro.sat import fingerprint
from repro.service import JobSpec

from tests.cache.conftest import (
    SAT_DIMACS,
    UNSAT_DIMACS,
    done_outcome,
    record_solve,
    spec_for,
)


class TestExactReplay:
    def test_round_trip_is_bit_identical(self, store):
        spec, key, original = record_solve(
            store, SAT_DIMACS, "sat", model=[1, 2, 3]
        )
        hit = store.lookup(key, spec, spec.load_formula())
        assert hit is not None
        assert hit.cached is True and hit.cache_kind == "exact"
        for name in ("status", "model", "iterations", "conflicts", "seed"):
            assert getattr(hit, name) == getattr(original, name)
        assert hit.run_seconds == 0.0
        assert store.stats.hits == 1 and store.stats.misses == 0

    def test_hit_takes_requesting_job_id(self, store):
        _, key, _ = record_solve(store, SAT_DIMACS, "sat", model=[1, 2, 3])
        other = spec_for(SAT_DIMACS, job_id="someone-else")
        hit = store.lookup(key, other, other.load_formula())
        assert hit.job_id == "someone-else"
        assert hit.dedup_of is None

    def test_unknown_key_is_a_miss(self, store):
        spec = spec_for(SAT_DIMACS)
        assert store.lookup("nope", spec, spec.load_formula()) is None
        assert store.stats.misses == 1

    def test_unfinished_outcomes_are_not_recorded(self, store):
        spec = spec_for(SAT_DIMACS)
        formula = spec.load_formula()
        key = spec.solve_key(fingerprint(formula))
        failed = done_outcome(spec)
        failed.state = "failed"
        store.record(key, formula, failed)
        assert store.entry_count() == 0

    def test_cached_outcomes_are_never_re_recorded(self, store):
        spec = spec_for(SAT_DIMACS)
        formula = spec.load_formula()
        key = spec.solve_key(fingerprint(formula))
        replay = done_outcome(spec, model=[1, 2, 3])
        replay.cached = True
        store.record(key, formula, replay)
        assert store.entry_count() == 0

    def test_warm_started_outcome_skips_results_table(self, store):
        """A warm-started solve has foreign clauses in its counters,
        so its outcome must not be replayed as an exact hit — but its
        sat/unsat answer still feeds the instance index."""
        spec = spec_for(SAT_DIMACS)
        formula = spec.load_formula()
        key = spec.solve_key(fingerprint(formula))
        outcome = done_outcome(
            spec, status="sat", model=[1, 2, 3], warm_clauses=4
        )
        store.record(key, formula, outcome)
        assert store.entry_count() == 0
        assert store.describe()["instances"] == 1


class TestEviction:
    def test_lru_cap(self, tmp_path):
        with PersistentResultStore(
            str(tmp_path / "c.sqlite"), max_entries=2
        ) as store:
            for index, dimacs in enumerate(
                (SAT_DIMACS, UNSAT_DIMACS, "p cnf 2 1\n1 2 0\n")
            ):
                spec = spec_for(dimacs, seed=index)
                formula = spec.load_formula()
                store.record(
                    spec.solve_key(fingerprint(formula)), formula, done_outcome(spec)
                )
            assert store.entry_count() == 2
            assert store.stats.evictions == 1
            # The first-recorded (least recently hit) entry went.
            first = spec_for(SAT_DIMACS, seed=0)
            formula = first.load_formula()
            assert (
                store.lookup(first.solve_key(fingerprint(formula)), first, formula)
                is None
            )

    def test_ttl_expiry(self, tmp_path):
        with PersistentResultStore(
            str(tmp_path / "c.sqlite"), ttl_s=60.0
        ) as store:
            spec, key, _ = record_solve(
                store, SAT_DIMACS, "sat", model=[1, 2, 3]
            )
            # Rewind the entry's clock past the TTL.
            with store._db:
                store._db.execute(
                    "UPDATE results SET last_hit_s = last_hit_s - 3600"
                )
            hit = store.lookup(key, spec, spec.load_formula())
            assert store.stats.evictions == 1
            assert store.entry_count() == 0
            # The replayable result is gone; the instance certificate
            # is timeless and may still answer via subsumption.
            assert hit is None or hit.cache_kind != "exact"

    def test_constructor_validation(self, tmp_path):
        with pytest.raises(ValueError):
            PersistentResultStore(str(tmp_path / "a.sqlite"), max_entries=0)
        with pytest.raises(ValueError):
            PersistentResultStore(str(tmp_path / "b.sqlite"), ttl_s=0.0)


class TestRestartSurvival:
    def test_hit_after_reopen(self, tmp_path):
        path = str(tmp_path / "c.sqlite")
        with PersistentResultStore(path) as store:
            spec, key, original = record_solve(
                store, SAT_DIMACS, "sat", model=[1, 2, 3]
            )
        with PersistentResultStore(path) as reopened:
            hit = reopened.lookup(key, spec, spec.load_formula())
            assert hit is not None and hit.cached
            assert hit.model == original.model
            assert hit.iterations == original.iterations

    def test_stats_are_per_instance(self, tmp_path):
        path = str(tmp_path / "c.sqlite")
        with PersistentResultStore(path) as store:
            spec, key, _ = record_solve(
                store, SAT_DIMACS, "sat", model=[1, 2, 3]
            )
            store.lookup(key, spec, spec.load_formula())
            assert store.stats.hits == 1
        with PersistentResultStore(path) as reopened:
            assert reopened.stats == CacheStats()
            # ...but lifetime hit counts live in the DB.
            assert reopened.describe()["lifetime_hits"] == 1


class TestMaintenance:
    def test_describe_shape(self, store):
        record_solve(store, SAT_DIMACS, "sat", model=[1, 2, 3])
        info = store.describe()
        assert info["results"] == 1
        assert info["instances"] == 1
        assert info["clause_banks"] == 0
        assert info["db_bytes"] > 0
        assert info["path"] == store.path

    def test_export_rows(self, store):
        _, key, _ = record_solve(store, SAT_DIMACS, "sat", model=[1, 2, 3])
        rows = list(store.export_rows())
        assert len(rows) == 1
        assert rows[0]["solve_key"] == key
        assert rows[0]["outcome"]["model"] == [1, 2, 3]
        assert rows[0]["hits"] == 0

    def test_gc_applies_overrides_and_drops_orphans(self, store):
        for index, (dimacs, status, model) in enumerate(
            ((SAT_DIMACS, "sat", [1, 2, 3]), (UNSAT_DIMACS, "unsat", None))
        ):
            spec = spec_for(dimacs, seed=index)
            formula = spec.load_formula()
            store.record(
                spec.solve_key(fingerprint(formula)),
                formula,
                done_outcome(spec, status=status, model=model),
            )
        dropped = store.gc(max_entries=1)
        assert dropped >= 1
        assert store.entry_count() == 1
        info = store.describe()
        # Orphaned instance rows went with their results row.
        assert info["instances"] == 1

    def test_learned_clauses_never_stored_in_results_payload(self, store):
        spec = spec_for(SAT_DIMACS)
        formula = spec.load_formula()
        key = spec.solve_key(fingerprint(formula))
        outcome = done_outcome(
            spec, status="sat", model=[1, 2, 3], learned=[[1, 2], [2, 3]]
        )
        store.record(key, formula, outcome)
        rows = list(store.export_rows())
        assert rows[0]["outcome"].get("learned") is None
        assert store.describe()["clause_banks"] == 1
