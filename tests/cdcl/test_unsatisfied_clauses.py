"""``unsatisfied_original_clauses``: the fast engine against the reference.

The list is the hybrid frontend's candidate pool.  Both engines walk
the same search for a fixed seed, so at every iteration their lists
must be equal — through random trails, clauses added between solves,
push/pop groups, clauses seeded before the first solve, and
learned-clause DB reductions.
"""

import numpy as np
import pytest

from repro.benchgen.random_ksat import random_3sat
from repro.cdcl.fast import FastCdclSolver
from repro.cdcl.native import native_available
from repro.cdcl.solver import CdclSolver, SolverConfig
from repro.sat.cnf import CNF, Clause

pytestmark = pytest.mark.skipif(
    not native_available(), reason="no C compiler for the native kernel"
)


class Recorder:
    """Iteration hook recording the candidate pool every iteration."""

    def __init__(self):
        self.pools = []

    def on_iteration(self, solver):
        self.pools.append(solver.unsatisfied_original_clauses())
        return None


def both(formula, **config):
    config = SolverConfig(**config)
    return CdclSolver(formula, config=config), FastCdclSolver(formula, config=config)


def solve_and_compare(ref, fast):
    """Solve both engines with recording hooks; the pools must match
    at the root before the search and at every iteration of it."""
    assert ref.unsatisfied_original_clauses() == fast.unsatisfied_original_clauses()
    hooks = Recorder(), Recorder()
    results = ref.solve(hook=hooks[0]), fast.solve(hook=hooks[1])
    assert results[0].status == results[1].status
    assert hooks[0].pools == hooks[1].pools
    assert hooks[0].pools
    return hooks[0].pools


def mixed_width(num_vars, num_clauses, seed, min_width=1):
    rng = np.random.default_rng(seed)
    clauses = []
    for _ in range(num_clauses):
        width = int(rng.integers(min_width, 5))
        variables = rng.choice(num_vars, size=width, replace=False) + 1
        clauses.append(
            Clause([int(v) if rng.integers(0, 2) else -int(v) for v in variables])
        )
    return clauses


@pytest.mark.parametrize("seed", range(6))
def test_random_trails(seed):
    formula = random_3sat(40, 172, np.random.default_rng(300 + seed))
    pools = solve_and_compare(*both(formula, seed=seed))
    assert any(0 < len(pool) < formula.num_clauses for pool in pools)


@pytest.mark.parametrize("seed", range(3))
def test_mixed_widths_and_tautologies(seed):
    clauses = mixed_width(25, 90, seed, min_width=2) + [Clause([1, -1, 2])]
    formula = CNF(clauses, num_vars=25)
    pools = solve_and_compare(*both(formula, seed=seed))
    tautology = len(clauses) - 1
    assert all(tautology not in pool for pool in pools)


@pytest.mark.parametrize("seed", range(4))
def test_add_clause_and_push_pop(seed):
    formula = random_3sat(30, 110, np.random.default_rng(400 + seed))
    extra = mixed_width(30, 12, 500 + seed)
    ref, fast = both(formula, seed=seed)
    solve_and_compare(ref, fast)
    for solver in (ref, fast):
        solver.add_clause(extra[0])
    solve_and_compare(ref, fast)
    for solver in (ref, fast):
        solver.push()
        for clause in extra[1:6]:
            solver.add_clause(clause)
        solver.push()
        for clause in extra[6:]:
            solver.add_clause(clause)
    solve_and_compare(ref, fast)
    for solver in (ref, fast):
        solver.pop()
    solve_and_compare(ref, fast)
    for solver in (ref, fast):
        solver.pop()
        solver.add_clause(extra[-1])
    solve_and_compare(ref, fast)


@pytest.mark.parametrize("seed", range(3))
def test_preseeded_clauses(seed):
    """Clauses added before the first solve (the cache's warm start)
    get indices past the formula's clauses and join the pool."""
    formula = random_3sat(30, 128, np.random.default_rng(600 + seed))
    donor = CdclSolver(formula, config=SolverConfig(seed=seed, max_conflicts=60))
    donor.solve()
    seeded = donor.learned_clause_lits(max_len=8, limit=20)
    assert seeded
    ref, fast = both(formula, seed=seed)
    for solver in (ref, fast):
        for lits in seeded:
            solver.add_clause(lits)
    pools = solve_and_compare(ref, fast)
    assert any(
        index >= formula.num_clauses for pool in pools for index in pool
    )


def test_db_reductions():
    formula = random_3sat(100, 426, np.random.default_rng(2))
    ref, fast = both(formula, seed=2, max_conflicts=800)
    solve_and_compare(ref, fast)
    assert ref.stats.deleted_clauses == fast.stats.deleted_clauses > 0
