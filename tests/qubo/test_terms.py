"""The embedded objective as arrays: ``FormulaEncoding.terms_over``.

With the frontend library loaded, ``terms_over`` sums the chosen
clauses' weighted terms natively; without it, through
``objective_over``'s dict.  Either way the result must hold the dict's
values (by ``float.hex``) in its key order, including a key whose sum
hits exactly 0.0 (it leaves the dict) and that a later term re-adds (it
goes back in at the end).  Normalising the arrays must equal
normalising the dict.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.benchgen import random_3sat
from repro.cdcl import native
from repro.qubo.coefficients import adjust_coefficients
from repro.qubo.encoding import encode_formula
from repro.qubo.ising import LogicalArrays, QuadraticObjective
from repro.qubo.normalization import normalize
from repro.sat.cnf import Clause


@pytest.fixture(params=["loaded", "blocked"])
def library(request, monkeypatch):
    """Run with the frontend library loaded, then blocked."""
    if request.param == "blocked":
        monkeypatch.setattr(native, "load_frontend_kernel", lambda: None)
    elif native.load_frontend_kernel() is None:
        pytest.skip("no C compiler for the frontend library")
    return request.param


def _view(objective: QuadraticObjective):
    return (
        objective.offset.hex(),
        [(k, v.hex()) for k, v in objective.linear.items()],
        [(k, v.hex()) for k, v in objective.quadratic.items()],
    )


def _array_view(terms: LogicalArrays):
    return (
        terms.variables.tolist(),
        terms.linear_index.tolist(),
        [v.hex() for v in terms.linear.tolist()],
        terms.quadratic_rows.tolist(),
        terms.quadratic_cols.tolist(),
        [v.hex() for v in terms.quadratic.tolist()],
        float(terms.offset).hex(),
    )


def assert_terms_match(encoding, clauses):
    terms = encoding.terms_over(clauses)
    expected = encoding.objective_over(clauses)
    assert _array_view(terms) == _array_view(LogicalArrays.from_objective(expected))
    assert _view(terms.to_objective()) == _view(expected)
    scaled, d_star = normalize(terms)
    expected_scaled, expected_d_star = normalize(expected)
    assert d_star.hex() == expected_d_star.hex()
    assert _view(scaled.to_objective()) == _view(expected_scaled)
    return terms


def test_zero_sums_leave_and_reenter_in_dict_order(library):
    # (x1 v x2) then (-x1 v x2) sum x1's linear term and the (1, 2)
    # term to exactly 0.0; (x2 v x3) adds (2, 3); the last clause
    # re-adds x1 and (1, 2) at the ends of their dicts.
    clauses = [Clause([1, 2]), Clause([-1, 2]), Clause([2, 3]), Clause([1, 2])]
    encoding = encode_formula(clauses, 3)
    expected = encoding.objective_over(range(4))
    assert list(expected.linear) == [2, 3, 1]
    assert list(expected.quadratic) == [(2, 3), (1, 2)]
    terms = assert_terms_match(encoding, range(4))
    names = terms.variables
    assert names[terms.linear_index].tolist() == [2, 3, 1]
    assert list(
        zip(names[terms.quadratic_rows].tolist(), names[terms.quadratic_cols].tolist())
    ) == [(2, 3), (1, 2)]
    # Summed away and never re-added: the key is gone.
    assert_terms_match(encoding, [0, 1])
    assert encoding.terms_over([0, 1]).to_objective().quadratic == {}


@pytest.mark.parametrize("seed", range(3))
def test_adjusted_random_subsets(library, seed):
    rng = np.random.default_rng(seed)
    formula = random_3sat(40, 170, rng)
    encoding = adjust_coefficients(
        encode_formula(formula.table, formula.num_vars)
    ).encoding
    for size in (1, 13, 60, 170):
        chosen = np.sort(rng.choice(170, size, replace=False)).tolist()
        assert_terms_match(encoding, chosen)


def test_with_coefficients_takes_the_alpha_array():
    encoding = encode_formula([Clause([1, 2, 3]), Clause([-1, 2])], 3)
    alpha = np.array([1.0, 2.0, 1.5])
    by_key = encoding.with_coefficients({(0, 2): 2.0, (1, 1): 1.5})
    by_array = encoding.with_coefficients(alpha)
    assert by_array.alpha.tolist() == by_key.alpha.tolist() == alpha.tolist()
    assert by_array.alpha is not alpha
    assert by_array.objective == by_key.objective
    for bad in (np.array([1.0, 0.0, 1.0]), np.array([1.0, 1.0, -2.0])):
        with pytest.raises(ValueError, match="must be positive"):
            encoding.with_coefficients(bad)
    with pytest.raises(ValueError, match="expected 3 coefficients"):
        encoding.with_coefficients(np.ones(2))
