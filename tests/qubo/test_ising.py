"""Tests for the QuadraticObjective container."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.qubo.ising import LinearExpr, QuadraticObjective


class TestConstruction:
    def test_empty(self):
        obj = QuadraticObjective()
        assert obj.offset == 0.0
        assert obj.variables == set()
        assert obj.energy({}) == 0.0

    def test_terms_accumulate(self):
        obj = QuadraticObjective()
        obj.add_linear(1, 2.0).add_linear(1, 3.0)
        assert obj.linear_of(1) == 5.0

    def test_zero_coefficients_pruned(self):
        obj = QuadraticObjective()
        obj.add_linear(1, 2.0).add_linear(1, -2.0)
        assert 1 not in obj.linear
        obj.add_quadratic(1, 2, 1.0).add_quadratic(2, 1, -1.0)
        assert obj.quadratic == {}

    def test_quadratic_key_canonical(self):
        obj = QuadraticObjective()
        obj.add_quadratic(5, 2, 1.5)
        assert obj.quadratic_of(2, 5) == 1.5
        assert obj.quadratic_of(5, 2) == 1.5

    def test_self_quadratic_rejected(self):
        with pytest.raises(ValueError):
            QuadraticObjective().add_quadratic(1, 1, 1.0)

    def test_constructor_mappings(self):
        obj = QuadraticObjective(1.0, {1: 2.0}, {(1, 2): -1.0})
        assert obj.offset == 1.0
        assert obj.linear_of(1) == 2.0
        assert obj.quadratic_of(1, 2) == -1.0


class TestArithmetic:
    def test_add_objectives(self):
        a = QuadraticObjective(1.0, {1: 1.0}, {(1, 2): 1.0})
        b = QuadraticObjective(2.0, {1: -1.0}, {(1, 2): 2.0})
        c = a + b
        assert c.offset == 3.0
        assert 1 not in c.linear
        assert c.quadratic_of(1, 2) == 3.0
        # operands untouched
        assert a.linear_of(1) == 1.0

    def test_scaled(self):
        a = QuadraticObjective(1.0, {1: 2.0}, {(1, 2): 3.0})
        b = a.scaled(2.0)
        assert (b.offset, b.linear_of(1), b.quadratic_of(1, 2)) == (2.0, 4.0, 6.0)

    def test_copy_independent(self):
        a = QuadraticObjective(linear={1: 1.0})
        b = a.copy()
        b.add_linear(1, 1.0)
        assert a.linear_of(1) == 1.0

    def test_is_close(self):
        a = QuadraticObjective(linear={1: 1.0})
        b = QuadraticObjective(linear={1: 1.0 + 1e-12})
        assert a.is_close(b)
        assert not a.is_close(QuadraticObjective(linear={1: 2.0}))


class TestEvaluation:
    def test_energy_small(self):
        obj = QuadraticObjective(1.0, {1: 2.0, 2: -1.0}, {(1, 2): 3.0})
        assert obj.energy({1: 0, 2: 0}) == 1.0
        assert obj.energy({1: 1, 2: 0}) == 3.0
        assert obj.energy({1: 1, 2: 1}) == 5.0

    def test_energy_accepts_bools(self):
        obj = QuadraticObjective(linear={1: 2.0})
        assert obj.energy({1: True}) == 2.0

    def test_d_star(self):
        obj = QuadraticObjective(linear={1: 4.0}, quadratic={(1, 2): -1.5})
        # max(|4|/2, |-1.5|) = 2.0
        assert obj.d_star() == 2.0


class TestLinearExpr:
    def test_literal_polynomials(self):
        pos = LinearExpr.literal(1, True)
        neg = LinearExpr.literal(1, False)
        assert (pos.const, pos.terms) == (0.0, {1: 1.0})
        assert (neg.const, neg.terms) == (1.0, {1: -1.0})

    def test_product_of_distinct_vars(self):
        obj = QuadraticObjective()
        LinearExpr.literal(1, True).multiply_into(LinearExpr.literal(2, True), obj)
        assert obj.quadratic_of(1, 2) == 1.0

    def test_product_with_negations(self):
        # (1 - x1)(1 - x2) = 1 - x1 - x2 + x1 x2
        obj = QuadraticObjective()
        LinearExpr.literal(1, False).multiply_into(LinearExpr.literal(2, False), obj)
        assert obj.offset == 1.0
        assert obj.linear_of(1) == -1.0
        assert obj.quadratic_of(1, 2) == 1.0

    def test_square_is_idempotent(self):
        # x * x = x for binary x.
        obj = QuadraticObjective()
        x = LinearExpr.variable(1)
        x.multiply_into(x, obj)
        assert obj.linear_of(1) == 1.0
        assert not obj.quadratic

    def test_add_into_with_scale(self):
        obj = QuadraticObjective()
        LinearExpr.literal(1, False).add_into(obj, scale=2.0)
        assert obj.offset == 2.0
        assert obj.linear_of(1) == -2.0


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=6),
            st.integers(min_value=1, max_value=6),
            st.floats(min_value=-5, max_value=5),
        ),
        max_size=10,
    ),
    st.integers(min_value=0, max_value=63),
)
def test_property_energy_linearity(terms, bits_int):
    obj = QuadraticObjective()
    for u, v, coeff in terms:
        if u == v:
            obj.add_linear(u, coeff)
        else:
            obj.add_quadratic(u, v, coeff)
    assignment = {v: (bits_int >> (v - 1)) & 1 for v in range(1, 7)}
    doubled = obj.scaled(2.0)
    assert doubled.energy(assignment) == pytest.approx(2 * obj.energy(assignment))
