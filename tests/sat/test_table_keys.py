"""The table-based keys and counts against their per-``Clause`` oracles.

``fingerprint``, ``clause_signatures`` and the signature mask are
persisted (cache DB rows, dedup keys), so the table code must reproduce
the old per-``Clause`` loops byte for byte; ``model_satisfies`` and the
counts must answer as
they did, and so must ``satisfied_by``, ``Assignment.satisfies``,
``clause_index`` and the clause queue's variable lists.  Each formula is checked twice: built from ``Clause``
objects (its table derived) and parsed from DIMACS text (its clauses
derived); and each test runs with the formula-read library loaded and
blocked.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.benchgen import BENCHMARKS
from repro.cache.signature import (
    clause_signatures,
    model_satisfies,
    pack_signatures,
    signature_mask,
)
from repro.core.clause_queue import ClauseQueueGenerator
from repro.sat.assignment import Assignment
from repro.sat.cnf import CNF, fingerprint
from repro.sat.dimacs import parse_dimacs

from tests.sat import clause_oracles as oracle

SWEEP = 2000


def random_rows(rng: np.random.Generator):
    """Clauses of width 0-5 over a few variables: empty clauses,
    repeated literals, tautologies and any literal order occur."""
    num_vars = int(rng.integers(0, 13))
    rows = []
    for _ in range(int(rng.integers(0, 16))):
        width = int(rng.integers(0, 6)) if num_vars else 0
        variables = rng.integers(1, num_vars + 1, size=width)
        signs = rng.choice((-1, 1), size=width)
        rows.append([int(v * s) for v, s in zip(variables, signs)])
    return rows, num_vars + int(rng.integers(0, 3))


def raw_dimacs(rows, num_vars: int) -> str:
    """DIMACS text with the rows exactly as drawn (unsorted, repeats)."""
    lines = [f"p cnf {num_vars} {len(rows)}"]
    lines += [" ".join(map(str, row + [0])) for row in rows]
    return "\n".join(lines) + "\n"


def random_models(rng: np.random.Generator, num_vars: int):
    """A full model, a partial one, and one naming variables twice."""
    full = [v if rng.random() < 0.5 else -v for v in range(1, num_vars + 1)]
    partial = [lit for lit in full if rng.random() < 0.6]
    doubled = full + [-lit for lit in full if rng.random() < 0.3]
    rng.shuffle(doubled)
    return [full, partial, doubled, []]


def check(formula: CNF, reference: CNF, rng: np.random.Generator) -> None:
    assert fingerprint(formula) == oracle.fingerprint(reference)
    blob = pack_signatures(clause_signatures(formula))
    expected = oracle.clause_signatures(reference)
    assert blob == pack_signatures(expected)
    assert signature_mask(blob) == oracle.signature_mask(expected)
    assert (
        formula.num_clauses, formula.max_clause_size, formula.is_3sat
    ) == oracle.counts(reference)
    for model in random_models(rng, formula.num_vars):
        assert model_satisfies(formula, model) == oracle.model_satisfies(
            reference, model
        )
        assignment = Assignment.from_literals(model)
        expected = oracle.satisfied_by(reference, assignment)
        assert formula.satisfied_by(assignment) == expected
        assert assignment.satisfies(formula) == expected
        as_dict = dict(assignment.items())
        assert formula.satisfied_by(as_dict) == expected


def check_indexed(formula: CNF, reference: CNF) -> None:
    """What reads clauses by index (``reference`` in the same order)."""
    assert formula.clause_index() == oracle.clause_index(reference)
    assert ClauseQueueGenerator(formula)._vars_of_clause == (
        oracle.clause_variables(reference)
    )


def test_random_formulas_match_the_clause_oracles(read_paths):
    for _ in read_paths():
        rng = np.random.default_rng(2024)
        for _ in range(SWEEP):
            rows, num_vars = random_rows(rng)
            built = CNF(rows, num_vars=num_vars)
            parsed = parse_dimacs(raw_dimacs(rows, num_vars))
            reference = CNF(rows, num_vars=num_vars)  # never table-read
            check(built, reference, rng)
            check(parsed, reference, rng)
            check_indexed(built, reference)
            check_indexed(parsed, reference)
            assert parsed == built
            assert parsed.clauses == reference.clauses


@pytest.mark.parametrize("family", sorted(BENCHMARKS))
def test_benchgen_families_match_the_clause_oracles(family, read_paths):
    for _ in read_paths():
        rng = np.random.default_rng(7)
        generated = BENCHMARKS[family].generate(0, seed=3)
        reference = CNF(generated.clauses, num_vars=generated.num_vars)
        rows = [[lit.value for lit in clause] for clause in generated.clauses]
        order = rng.permutation(len(rows))
        shuffled = [list(rng.permutation(rows[k])) for k in order]
        parsed = parse_dimacs(raw_dimacs(shuffled, generated.num_vars))
        check(generated, reference, rng)
        check(parsed, reference, rng)
        check_indexed(generated, reference)
        # Clause and literal order never reach the keys.
        assert fingerprint(parsed) == fingerprint(generated)
