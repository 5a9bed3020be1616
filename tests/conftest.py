"""Shared fixtures for the test suite."""

from __future__ import annotations

import sys
from collections import Counter

import numpy as np
import pytest

from repro.benchgen.random_ksat import random_3sat
from repro.sat.cnf import CNF, Clause
from repro.topology.chimera import ChimeraGraph


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic RNG per test."""
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def small_hardware() -> ChimeraGraph:
    """A 4x4 Chimera lattice (128 qubits) for fast embedding tests."""
    return ChimeraGraph(4, 4, 4)


@pytest.fixture(scope="session")
def c16_hardware() -> ChimeraGraph:
    """The D-Wave 2000Q-sized lattice."""
    return ChimeraGraph(16, 16, 4)


@pytest.fixture
def tiny_sat_formula() -> CNF:
    """A small satisfiable 3-SAT formula (the paper's Figure 2 example)."""
    return CNF(
        [Clause([1, 2, 3]), Clause([2, -3, 4])],
        num_vars=4,
    )


@pytest.fixture
def tiny_unsat_formula() -> CNF:
    """The smallest interesting unsatisfiable formula."""
    return CNF(
        [
            Clause([1, 2]),
            Clause([1, -2]),
            Clause([-1, 2]),
            Clause([-1, -2]),
        ],
        num_vars=2,
    )


def make_random_3sat(num_vars: int, num_clauses: int, seed: int) -> CNF:
    """Deterministic random instance helper for parametrised tests."""
    return random_3sat(num_vars, num_clauses, np.random.default_rng(seed))


@pytest.fixture
def read_counts(monkeypatch) -> Counter:
    """Counts instance reads while the test runs: ``parse`` per
    ``JobSpec.load_formula`` call and ``fingerprint`` per
    ``repro.sat.cnf.fingerprint`` call, under every ``repro`` module
    name it is imported as."""
    from repro.sat import cnf
    from repro.service.jobs import JobSpec

    counts: Counter = Counter()
    load, fingerprint = JobSpec.load_formula, cnf.fingerprint

    def counted_load(spec):
        counts["parse"] += 1
        return load(spec)

    def counted_fingerprint(formula):
        counts["fingerprint"] += 1
        return fingerprint(formula)

    monkeypatch.setattr(JobSpec, "load_formula", counted_load)
    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and (
            getattr(module, "fingerprint", None) is fingerprint
        ):
            monkeypatch.setattr(module, "fingerprint", counted_fingerprint)
    return counts


@pytest.fixture
def clause_tuple_builds(monkeypatch) -> list:
    """The formulas whose ``Clause`` tuple is built from their table
    while the test runs (parsed formulas build it on first read)."""
    clauses = CNF.clauses
    built: list = []

    def counted(formula):
        if formula._clauses is None:
            built.append(formula)
        return clauses.fget(formula)

    monkeypatch.setattr(CNF, "clauses", property(counted))
    return built


@pytest.fixture
def read_paths(monkeypatch):
    """The formula read's two paths, to loop over inside one test:
    ``for path in read_paths():`` runs the body with the formula-read
    library (``repro/sat/table.c``) loaded, when it builds, and then
    blocked, so DIMACS reads and row texts take their NumPy paths."""
    from repro.cdcl import native

    def paths():
        if native.load_table_kernel() is not None:
            yield "loaded"
        monkeypatch.setattr(native, "load_table_kernel", lambda: None)
        yield "blocked"

    return paths
