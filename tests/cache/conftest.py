"""Shared fixtures for the persistent result-cache tests.

Tiny hand-written formulas with known answers drive the unit tests
(the store's behaviour is independent of how hard the instance was);
the service-level tests solve real uf20-91 instances.
"""

from __future__ import annotations

import pytest

from repro.cache import PersistentResultStore
from repro.sat import fingerprint
from repro.service import JobSpec
from repro.service.jobs import JobOutcome

#: A 3-var SAT formula; [1, 2, 3] is a model.
SAT_DIMACS = "p cnf 3 3\n1 2 0\n2 3 0\n-1 3 0\n"

#: The same formula minus its last clause (a strict subset).
SAT_SUBSET_DIMACS = "p cnf 3 2\n1 2 0\n2 3 0\n"

#: The same formula plus -2 3 0 (a strict superset; still SAT).
SAT_SUPERSET_DIMACS = "p cnf 3 4\n1 2 0\n2 3 0\n-1 3 0\n-2 3 0\n"

#: A 1-var UNSAT core.
UNSAT_DIMACS = "p cnf 1 2\n1 0\n-1 0\n"

#: The UNSAT core plus an unrelated clause (superset, still UNSAT).
UNSAT_SUPERSET_DIMACS = "p cnf 2 3\n1 0\n-1 0\n2 0\n"


def spec_for(dimacs: str, job_id: str = "job", **kwargs) -> JobSpec:
    return JobSpec(job_id=job_id, dimacs=dimacs, **kwargs)


def done_outcome(
    spec: JobSpec,
    status: str = "sat",
    model=None,
    iterations: int = 7,
    conflicts: int = 3,
    **kwargs,
) -> JobOutcome:
    """A synthetic finished solve for store unit tests."""
    return JobOutcome(
        job_id=spec.job_id,
        state="done",
        status=status,
        model=model,
        iterations=iterations,
        conflicts=conflicts,
        seed=spec.seed,
        run_seconds=0.25,
        **kwargs,
    )


def record_solve(
    store: PersistentResultStore, dimacs: str, status: str, model=None, **kwargs
):
    """Record one synthetic solve; returns (spec, key, outcome)."""
    spec = spec_for(dimacs)
    formula = spec.load_formula()
    key = spec.solve_key(fingerprint(formula))
    outcome = done_outcome(spec, status=status, model=model, **kwargs)
    store.record(key, formula, outcome)
    return spec, key, outcome


@pytest.fixture
def store(tmp_path):
    with PersistentResultStore(str(tmp_path / "cache.sqlite")) as s:
        yield s
