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
from repro.cdcl.proof import DratProof
from repro.cdcl.solver import CdclSolver, SolverConfig
from repro.observability import Observability
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


class SteeringHook:
    """Steers the search the way the hybrid hook does: every third
    call it bumps a variable and forces two decisions (the first on an
    assigned variable whenever one exists, so it is skipped); it reports
    itself finished after ``calls`` calls."""

    def __init__(self, calls=40):
        self.calls = 0
        self.limit = calls
        self.finished = False

    def on_iteration(self, solver):
        self.calls += 1
        if self.calls % 3 == 0:
            n = solver.num_vars
            var = (7 * self.calls) % n + 1
            solver.bump_variable(var, 2.0)
            order = sorted(
                range(1, n + 1), key=lambda v: solver.value_of_var(v) is None
            )
            for v in (order[0], order[-1]):
                solver.enqueue_decision(Lit(v if self.calls % 2 else -v))
        self.finished = self.calls >= self.limit
        return None


#: The four kinds of solve whose DRAT proofs must match:
#: (SolverConfig overrides, assumptions, hook factory).
SOLVE_KINDS = {
    "plain": ({}, (), None),
    "random-decisions": ({"random_decision_freq": 0.2}, (), None),
    "assumptions": ({}, (Lit(1), Lit(-3), Lit(7)), None),
    "hooked": ({}, (), SteeringHook),
}


def assert_same_proof(formula, config, assumptions=(), hook_factory=None):
    """Both engines log the same DRAT steps and reach the same result."""
    outcomes = []
    for engine in (CdclSolver, FastCdclSolver):
        proof = DratProof()
        hook = hook_factory() if hook_factory is not None else None
        result = engine(formula, config=config, proof=proof).solve(
            assumptions=assumptions, hook=hook
        )
        outcomes.append(
            (result.status, result.stats.as_dict(), proof.steps,
             hook.calls if hook is not None else None)
        )
    assert outcomes[0] == outcomes[1]
    return outcomes[0][2]


def untimed(records):
    """Trace records without their wall-clock fields."""
    return [
        {k: v for k, v in r.items() if k not in ("t_wall_s", "wall_dur_s")}
        for r in records
    ]


class TestProofIdentity:
    """DRAT step identity: every added, deleted and empty clause."""

    @pytest.mark.parametrize("kind", sorted(SOLVE_KINDS))
    @pytest.mark.parametrize("heuristic", [VsidsHeuristic, ChbHeuristic])
    @pytest.mark.parametrize("seed", range(3))
    def test_proof_steps_match(self, kind, heuristic, seed):
        overrides, assumptions, hook_factory = SOLVE_KINDS[kind]
        config = SolverConfig(heuristic_factory=heuristic, seed=seed, **overrides)
        steps = 0
        for num_vars, num_clauses in SIZES:
            formula = random_3sat(
                num_vars, num_clauses, np.random.default_rng(100 * seed + 7)
            )
            steps += len(
                assert_same_proof(formula, config, assumptions, hook_factory)
            )
        assert steps > 0

    @pytest.mark.parametrize("kind", sorted(SOLVE_KINDS))
    def test_proof_with_deletions_matches(self, kind):
        """A longer UNSAT search reduces its learned-clause database,
        so the proof carries deletion steps too."""
        overrides, assumptions, hook_factory = SOLVE_KINDS[kind]
        formula = random_3sat(80, 344, np.random.default_rng(4))
        steps = assert_same_proof(
            formula,
            SolverConfig(seed=1, **overrides),
            assumptions[:1],  # three refute this formula too soon
            hook_factory,
        )
        assert any(step.is_deletion for step in steps)


class TestTraceIdentity:
    """Both engines emit the same trace records, wall clock aside."""

    @pytest.mark.parametrize("heuristic", [VsidsHeuristic, ChbHeuristic])
    @pytest.mark.parametrize("seed", range(3))
    def test_cdcl_trace_matches(self, heuristic, seed):
        formula = random_3sat(24, 103, np.random.default_rng(100 * seed))
        config = SolverConfig(heuristic_factory=heuristic, seed=seed)
        traces = []
        for engine in (CdclSolver, FastCdclSolver):
            observability = Observability.tracing()
            engine(formula, config=config, observability=observability).solve()
            traces.append(untimed(observability.tracer.records))
        assert traces[0] == traces[1]
        assert any(r.get("name") == "cdcl.conflict" for r in traces[0])

    @pytest.mark.parametrize("seed", range(3))
    def test_hybrid_trace_matches(self, seed):
        from repro.core.config import HyQSatConfig
        from repro.core.hyqsat import HyQSatSolver

        formula = random_3sat(50, 218, np.random.default_rng(seed))
        traces = []
        for engine in ("reference", "fast"):
            observability = Observability.tracing()
            HyQSatSolver(
                formula,
                config=HyQSatConfig(seed=seed, engine=engine),
                observability=observability,
            ).solve()
            traces.append(untimed(observability.tracer.records))
        assert traces[0] == traces[1]
        names = {r.get("name") for r in traces[0]}
        assert {"iteration", "cdcl.conflict", "anneal"} <= names
