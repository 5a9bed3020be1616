"""The closed-form Section IV-C scale against a bisection oracle.

The oracle below is the 30-step bisection on ``α' = 1 + s·(α − 1)``
that rebuilds the whole objective at every step.  It lives here only,
as the reference the closed form must match bit for bit: on random
mixed-width clause sets, and on conditioned clause queues built the
way the hybrid frontend builds them, from real CDCL trails of every
benchgen family and of uniform random 3-SAT at 170 variables.
"""

import numpy as np
import pytest

from repro.benchgen import random_3sat
from repro.benchgen.suites import BENCHMARKS
from repro.cdcl.engine import create_solver
from repro.cdcl.solver import SolverConfig
from repro.core.clause_queue import ClauseQueueGenerator
from repro.qubo.coefficients import adjust_coefficients
from repro.qubo.encoding import encode_formula
from repro.sat.cnf import Clause


def bisection_alphas(encoding):
    """``(alphas, scaled_back)`` chosen by the 30-step bisection."""
    d_star = encoding.objective.d_star()
    alphas = {}
    for sub in encoding.sub_objectives:
        d_ij = sub.d_value()
        key = (sub.clause_index, sub.part)
        if d_ij <= 0.0 or d_star <= 0.0:
            alphas[key] = 1.0
        else:
            alphas[key] = max(1.0, d_star / d_ij)

    def scaled(scale):
        return {key: 1.0 + scale * (alpha - 1.0) for key, alpha in alphas.items()}

    limit = d_star * (1.0 + 1e-9)
    if d_star <= 0.0 or encoding.with_coefficients(alphas).objective.d_star() <= limit:
        return alphas, False
    lo, hi = 0.0, 1.0
    for _ in range(30):
        mid = (lo + hi) / 2.0
        if encoding.with_coefficients(scaled(mid)).objective.d_star() <= limit:
            lo = mid
        else:
            hi = mid
    return scaled(lo), True


def assert_matches_oracle(clauses, num_vars):
    """Bit-for-bit α and objective equality; returns whether the
    oracle had to scale the boost back."""
    encoding = encode_formula(clauses, num_vars)
    expected, scaled_back = bisection_alphas(encoding)
    adjusted = adjust_coefficients(encoding)
    assert list(adjusted.alphas) == list(expected)
    assert [a.hex() for a in adjusted.alphas.values()] == [
        a.hex() for a in expected.values()
    ]
    assert (
        adjusted.encoding.objective
        == encoding.with_coefficients(expected).objective
    )
    return scaled_back


def _mixed_width_clauses(rng, num_vars, num_clauses):
    clauses = []
    for _ in range(num_clauses):
        width = int(rng.integers(1, min(3, num_vars) + 1))
        variables = rng.choice(np.arange(1, num_vars + 1), size=width, replace=False)
        clauses.append(
            Clause([int(v) if rng.integers(0, 2) else -int(v) for v in variables])
        )
    return clauses


def frontend_queues(formula, capacity, seed, snapshots=5, every=7):
    """Clause queues conditioned on the trail, as the frontend encodes
    them, taken from a real CDCL search of ``formula``."""
    generator = ClauseQueueGenerator(formula, seed=seed)
    queues = []

    class Snapshot:
        def on_iteration(self, solver):
            if len(queues) < snapshots and solver.stats.iterations % every == 0:
                unsat = solver.unsatisfied_original_clauses()
                if unsat:
                    queue = generator.generate(
                        list(solver.counters.activity), capacity, candidates=unsat
                    )
                    queues.append((queue, solver.current_assignment()))
            return None

    create_solver(
        formula, config=SolverConfig(seed=seed, max_conflicts=300)
    ).solve(hook=Snapshot())
    for queue, assignment in queues:
        clauses = []
        for index in queue:
            residual = [
                lit for lit in formula.clauses[index].lits
                if lit.var not in assignment
            ]
            if residual:
                clauses.append(Clause(residual))
        if clauses:
            yield clauses


def test_random_mixed_widths_take_both_branches():
    rng = np.random.default_rng(2024)
    outcomes = []
    for _ in range(180):
        num_vars = int(rng.integers(2, 40))
        clauses = _mixed_width_clauses(rng, num_vars, int(rng.integers(1, 60)))
        outcomes.append(assert_matches_oracle(clauses, num_vars))
    assert any(outcomes) and not all(outcomes)


@pytest.mark.parametrize("family", sorted(BENCHMARKS))
def test_frontend_queues_of_every_family(family):
    formula = BENCHMARKS[family].generate(0, seed=0)
    outcomes = [
        assert_matches_oracle(clauses, formula.num_vars)
        for clauses in frontend_queues(formula, capacity=48, seed=1)
    ]
    assert outcomes, f"{family}: the search left no queue to encode"
    assert any(outcomes), f"{family}: no queue needed the scale-back"


@pytest.mark.parametrize("seed", range(3))
def test_frontend_queues_uf170(seed):
    formula = random_3sat(170, 724, np.random.default_rng(seed))
    outcomes = []
    for capacity in (48, 192):
        outcomes += [
            assert_matches_oracle(clauses, formula.num_vars)
            for clauses in frontend_queues(
                formula, capacity=capacity, seed=seed, snapshots=2
            )
        ]
    assert len(outcomes) == 4 and all(outcomes)
