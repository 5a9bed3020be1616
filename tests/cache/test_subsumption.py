"""Subsumption-layer tests: certificate transfer across solve options,
subset/superset serving, soundness of every served answer, and the
clause-bank warm-start donor selection."""

from __future__ import annotations

import numpy as np

from repro.benchgen.random_ksat import random_3sat
from repro.cache import (
    clause_signatures,
    model_completed,
    model_satisfies,
    signature_mask,
    sigs_subset,
)
from repro.sat import fingerprint, to_dimacs

from tests.cache.conftest import (
    SAT_DIMACS,
    SAT_SUBSET_DIMACS,
    SAT_SUPERSET_DIMACS,
    UNSAT_DIMACS,
    UNSAT_SUPERSET_DIMACS,
    done_outcome,
    record_solve,
    spec_for,
)


def lookup(store, dimacs, **spec_kwargs):
    spec = spec_for(dimacs, **spec_kwargs)
    formula = spec.load_formula()
    key = spec.solve_key(fingerprint(formula))
    return store.lookup(key, spec, formula), formula


def warm_clauses(store, dimacs):
    spec = spec_for(dimacs)
    formula = spec.load_formula()
    return store.warm_clauses(formula, spec.solve_key(fingerprint(formula)))


class TestSignatures:
    def test_signatures_ignore_clause_and_literal_order(self):
        spec_a = spec_for("p cnf 3 2\n1 2 0\n2 3 0\n")
        spec_b = spec_for("p cnf 3 2\n3 2 0\n2 1 0\n")
        assert clause_signatures(spec_a.load_formula()) == clause_signatures(
            spec_b.load_formula()
        )

    def test_subset_relation(self):
        small = clause_signatures(
            spec_for(SAT_SUBSET_DIMACS).load_formula()
        )
        big = clause_signatures(spec_for(SAT_DIMACS).load_formula())
        assert sigs_subset(small, big)
        assert not sigs_subset(big, small)

    def test_mask_is_a_sound_prefilter(self):
        small = clause_signatures(
            spec_for(SAT_SUBSET_DIMACS).load_formula()
        )
        big = clause_signatures(spec_for(SAT_DIMACS).load_formula())
        small_mask, big_mask = signature_mask(small), signature_mask(big)
        assert (small_mask & big_mask) == small_mask
        # Fits SQLite's signed 64-bit INTEGER.
        assert 0 <= big_mask < (1 << 63)

    def test_model_completion_and_check(self):
        formula = spec_for(SAT_DIMACS).load_formula()
        model = model_completed([-1, 2], formula.num_vars)
        assert len(model) == formula.num_vars
        assert model_satisfies(formula, model)
        assert not model_satisfies(formula, [-1, -2, -3])


class TestCertificateTransfer:
    def test_same_formula_different_options(self, store):
        record_solve(store, SAT_DIMACS, "sat", model=[1, 2, 3])
        hit, _ = lookup(store, SAT_DIMACS, seed=99)
        assert hit is not None
        assert hit.cache_kind == "model" and hit.status == "sat"
        assert hit.iterations == 0 and hit.conflicts == 0
        assert store.stats.subsumption_hits == {"model": 1}

    def test_unsat_transfers_across_options(self, store):
        record_solve(store, UNSAT_DIMACS, "unsat")
        hit, _ = lookup(store, UNSAT_DIMACS, seed=7)
        assert hit is not None and hit.status == "unsat"
        assert hit.cache_kind == "unsat" and hit.model is None


class TestSubsetSuperset:
    def test_subset_of_sat_served_from_model(self, store):
        record_solve(store, SAT_DIMACS, "sat", model=[1, 2, 3])
        hit, formula = lookup(store, SAT_SUBSET_DIMACS)
        assert hit is not None and hit.status == "sat"
        assert hit.cache_kind == "model"
        assert model_satisfies(formula, hit.model)

    def test_superset_of_unsat_is_unsat(self, store):
        record_solve(store, UNSAT_DIMACS, "unsat")
        hit, _ = lookup(store, UNSAT_SUPERSET_DIMACS)
        assert hit is not None and hit.status == "unsat"
        assert hit.cache_kind == "unsat"

    def test_superset_of_sat_revalidates_model(self, store):
        record_solve(store, SAT_DIMACS, "sat", model=[1, 2, 3])
        hit, formula = lookup(store, SAT_SUPERSET_DIMACS)
        assert hit is not None and hit.status == "sat"
        assert model_satisfies(formula, hit.model)

    def test_superset_whose_extra_clause_kills_the_model_misses(
        self, store
    ):
        """[1, 2, 3] satisfies the base formula but not ``-3 0``; the
        cache must re-solve, not guess."""
        record_solve(store, SAT_DIMACS, "sat", model=[1, 2, 3])
        killer = "p cnf 3 4\n1 2 0\n2 3 0\n-1 3 0\n-3 0\n"
        hit, _ = lookup(store, killer)
        assert hit is None
        assert store.stats.misses == 1

    def test_subset_of_unsat_gives_nothing(self, store):
        """A subset of an UNSAT instance can be SAT — no certificate
        may transfer in that direction."""
        record_solve(store, UNSAT_SUPERSET_DIMACS, "unsat")
        hit, _ = lookup(store, "p cnf 2 2\n1 0\n2 0\n")
        assert hit is None

    def test_corrupted_model_is_never_served(self, store):
        """Hash-defence: even an exact-fingerprint instance row is
        re-validated against the actual formula before serving."""
        record_solve(store, SAT_DIMACS, "sat", model=[-1, -2, -3])
        hit, _ = lookup(store, SAT_DIMACS, seed=5)
        assert hit is None


class TestWarmClauses:
    def test_largest_subset_donor_wins(self, store):
        record_solve(
            store,
            SAT_SUBSET_DIMACS,
            "sat",
            model=[1, 2, 3],
            learned=[[1, 3]],
            conflicts=11,
        )
        record_solve(
            store,
            SAT_DIMACS,
            "sat",
            model=[1, 2, 3],
            learned=[[2, 3], [1, 3]],
            conflicts=29,
        )
        warm = warm_clauses(store, SAT_SUPERSET_DIMACS)
        assert warm is not None
        assert warm.clauses == [[2, 3], [1, 3]]
        assert warm.donor_conflicts == 29

    def test_non_subset_donates_nothing(self, store):
        record_solve(
            store, SAT_DIMACS, "sat", model=[1, 2, 3], learned=[[1, 3]]
        )
        warm = warm_clauses(store, "p cnf 2 1\n1 2 0\n")
        assert warm is None

    def test_out_of_range_literals_filtered(self, store):
        """A donor that declared more variables may have banked
        clauses over variables the acceptor does not have."""
        record_solve(
            store,
            "p cnf 4 2\n1 2 0\n2 3 0\n",
            "sat",
            model=[1, 2, 3, 4],
            learned=[[1, 3], [2, 4]],
        )
        warm = warm_clauses(store, "p cnf 3 3\n1 2 0\n2 3 0\n-1 3 0\n")
        assert warm is not None
        assert warm.clauses == [[1, 3]]

    def test_note_warm_start_counts_savings(self, store):
        store.note_warm_start(donor_conflicts=40, conflicts=10)
        store.note_warm_start(donor_conflicts=5, conflicts=10)
        assert store.stats.warm_starts == 2
        assert store.stats.warm_start_conflicts_saved == 30


class TestSweepSoundness:
    def test_served_certificates_match_fresh_answers(self, store):
        """Populate with a seeded sweep, then query subsets and
        supersets; every served certificate must be sound."""
        from repro.cdcl import minisat_solver

        rng = np.random.default_rng(4242)
        for index in range(12):
            num_vars = int(rng.integers(8, 14))
            num_clauses = int(num_vars * 4.3)
            formula = random_3sat(
                num_vars, num_clauses, np.random.default_rng(7000 + index)
            )
            result = minisat_solver(formula).solve()
            spec = spec_for(to_dimacs(formula), job_id=f"s{index}")
            loaded = spec.load_formula()
            store.record(
                spec.solve_key(fingerprint(loaded)),
                loaded,
                done_outcome(
                    spec,
                    status=result.status.value,
                    model=(
                        [lit.value for lit in result.model.as_literals()]
                        if result.model is not None
                        else None
                    ),
                ),
            )
            # Query a strict subset (drop the last clause).
            subset = to_dimacs(
                type(formula)(
                    formula.clauses[:-1], num_vars=formula.num_vars
                )
            )
            hit, sub_formula = lookup(store, subset, job_id=f"q{index}")
            if hit is not None and hit.status == "sat":
                assert model_satisfies(sub_formula, hit.model)
            if hit is not None and hit.status == "unsat":
                assert (
                    minisat_solver(sub_formula).solve().status.value == "unsat"
                )
