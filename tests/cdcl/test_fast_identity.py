"""Property sweep: the fast engine is bit-identical to the reference.

ISSUE 6's acceptance gate: same status, same model, same stats
(conflicts, propagations, decisions, learned clauses, restarts), and
same per-clause counters for every (formula, config, seed) — across
>= 200 random k-SAT instances mixing SAT and UNSAT, both heuristics,
and the preset configurations.
"""

import numpy as np
import pytest

from repro.benchgen.random_ksat import random_3sat
from repro.cdcl.fast import FastCdclSolver
from repro.cdcl.heuristics import ChbHeuristic, VsidsHeuristic
from repro.cdcl.native import native_available
from repro.cdcl.solver import CdclSolver, SolverConfig
from repro.sat.cnf import CNF, Clause, Lit

pytestmark = pytest.mark.skipif(
    not native_available(), reason="no C compiler for the native kernel"
)

#: (num_vars, num_clauses): ratios ~3.4 (mostly SAT), ~4.3 (mixed),
#: ~6 (mostly UNSAT).
SIZES = [(12, 41), (16, 68), (20, 85), (20, 120), (24, 103), (24, 144)]


def assert_identical(formula, config):
    ref = CdclSolver(formula, config=config)
    fast = FastCdclSolver(formula, config=config)
    r1 = ref.solve()
    r2 = fast.solve()
    assert r1.status == r2.status
    assert r1.stats.as_dict() == r2.stats.as_dict()
    if r1.model is None:
        assert r2.model is None
    else:
        assert r1.model.frozen() == r2.model.frozen()
        assert r2.model.satisfies(formula)
    assert list(ref.counters.propagation_visits) == [
        int(x) for x in fast.counters.propagation_visits
    ]
    assert list(ref.counters.conflict_visits) == [
        int(x) for x in fast.counters.conflict_visits
    ]
    assert list(ref.counters.activity) == [
        float(x) for x in fast.counters.activity
    ]
    return r1.status


def random_ksat(num_vars, num_clauses, rng):
    """Random CNF with clause widths 1-4 (the 3-SAT generator only
    makes width-3 clauses; the engines must agree on any k)."""
    clauses = []
    for _ in range(num_clauses):
        width = int(rng.integers(1, 5))
        variables = rng.choice(num_vars, size=min(width, num_vars), replace=False)
        signs = rng.integers(0, 2, size=len(variables))
        clauses.append(
            Clause(
                Lit(int(v) + 1 if s else -(int(v) + 1))
                for v, s in zip(variables, signs)
            )
        )
    return CNF(clauses, num_vars=num_vars)


class TestPropertySweep:
    @pytest.mark.parametrize("heuristic", [VsidsHeuristic, ChbHeuristic])
    @pytest.mark.parametrize("seed", range(17))
    def test_random_3sat_sweep(self, seed, heuristic):
        """17 seeds x 2 heuristics x 6 sizes = 204 instances."""
        statuses = set()
        for num_vars, num_clauses in SIZES:
            formula = random_3sat(
                num_vars, num_clauses, np.random.default_rng(100 * seed)
            )
            status = assert_identical(
                formula,
                SolverConfig(heuristic_factory=heuristic, seed=seed),
            )
            statuses.add(status.value)

    @pytest.mark.parametrize("seed", range(12))
    def test_random_ksat_mixed_widths(self, seed):
        rng = np.random.default_rng(9000 + seed)
        formula = random_ksat(18, 90, rng)
        assert_identical(formula, SolverConfig(seed=seed))

    def test_sweep_covers_both_outcomes(self):
        """The sweep's sizes genuinely mix SAT and UNSAT."""
        statuses = set()
        for seed in range(6):
            for num_vars, num_clauses in SIZES:
                formula = random_3sat(
                    num_vars, num_clauses, np.random.default_rng(100 * seed)
                )
                statuses.add(CdclSolver(formula).solve().status.value)
        assert {"sat", "unsat"} <= statuses


class TestConfigVariants:
    @pytest.mark.parametrize(
        "config_kwargs",
        [
            dict(heuristic_factory=lambda: VsidsHeuristic(decay=0.95)),
            dict(
                heuristic_factory=ChbHeuristic,
                luby_base=50,
                default_phase=True,
            ),
            dict(restart_strategy="geometric"),
            dict(restart_strategy="none"),
            dict(phase_saving=False),
            dict(random_decision_freq=0.25),
            dict(max_conflicts=15),
        ],
        ids=[
            "minisat",
            "kissat",
            "geometric",
            "no-restarts",
            "no-phase-saving",
            "random-decisions",
            "budget",
        ],
    )
    @pytest.mark.parametrize("seed", range(4))
    def test_variant(self, config_kwargs, seed):
        formula = random_3sat(22, 110, np.random.default_rng(40 + seed))
        assert_identical(formula, SolverConfig(seed=seed, **config_kwargs))

    @pytest.mark.parametrize("seed", range(5))
    def test_assumptions_identical(self, seed):
        formula = random_3sat(20, 88, np.random.default_rng(60 + seed))
        config = SolverConfig(seed=seed)
        assumptions = [Lit(1), Lit(-3), Lit(7)]
        r1 = CdclSolver(formula, config=config).solve(assumptions=assumptions)
        r2 = FastCdclSolver(formula, config=config).solve(
            assumptions=assumptions
        )
        assert r1.status == r2.status
        assert r1.stats.as_dict() == r2.stats.as_dict()

    def test_edge_cases(self):
        for formula in (
            CNF([], num_vars=3),  # no clauses
            CNF([Clause([])], num_vars=1),  # empty clause
            CNF([[1], [-1]]),  # contradictory units
            CNF([[1, -1], [2]]),  # tautology + unit
            CNF([[1], [-1, 2], [-2, 3]]),  # unit chain
        ):
            assert_identical(formula, SolverConfig())


class TestClauseStore:
    def test_table_store_matches_the_reference_constructor(self):
        """The fast engine builds its clause store from the formula's
        clause table, the reference from its ``Clause`` objects: same
        clauses in the same order and slots, same original indices,
        root units and trivial-UNSAT flag, tautologies skipped — and
        a parsed formula never builds its ``Clause`` tuple."""
        from repro.sat.dimacs import parse_dimacs
        from tests.sat.test_table_keys import random_rows, raw_dimacs

        rng = np.random.default_rng(11)
        for _ in range(400):
            rows, num_vars = random_rows(rng)
            formula = parse_dimacs(raw_dimacs(rows, num_vars))
            fast = FastCdclSolver(formula)
            assert formula._clauses is None
            ref = CdclSolver(CNF(rows, num_vars=num_vars))
            assert fast._trivially_unsat == ref._trivially_unsat
            assert fast._root_units == ref._root_units
            arr = fast._arr
            store = [
                (
                    arr["pool"][start : start + size].tolist(),
                    int(arr["c_orig"][ci]),
                )
                for ci in fast._orig_cis
                for start, size in [(arr["c_start"][ci], arr["c_size"][ci])]
            ]
            assert store == [(r.lits, r.orig_index) for r in ref._clauses]
