"""Tests for the core CNF data model."""

import pickle
import pickletools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.sat.cnf import CNF, Clause, Lit, clause, fingerprint
from repro.sat.dimacs import parse_dimacs


# ----------------------------------------------------------------------
# Lit
# ----------------------------------------------------------------------


class TestLit:
    def test_positive_literal(self):
        lit = Lit(3)
        assert lit.var == 3
        assert lit.positive
        assert not lit.negative
        assert lit.value == 3

    def test_negative_literal(self):
        lit = Lit(-7)
        assert lit.var == 7
        assert lit.negative
        assert not lit.positive

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            Lit(0)

    def test_non_int_rejected(self):
        with pytest.raises(TypeError):
            Lit("3")

    def test_bool_rejected(self):
        with pytest.raises(TypeError):
            Lit(True)

    def test_negation_operators(self):
        assert -Lit(5) == Lit(-5)
        assert ~Lit(-5) == Lit(5)
        assert -(-Lit(5)) == Lit(5)

    def test_satisfied_by(self):
        assert Lit(2).satisfied_by(True)
        assert not Lit(2).satisfied_by(False)
        assert Lit(-2).satisfied_by(False)
        assert not Lit(-2).satisfied_by(True)

    def test_ordering_groups_by_variable(self):
        lits = sorted([Lit(-1), Lit(2), Lit(1), Lit(-2)])
        assert [l.value for l in lits] == [1, -1, 2, -2]

    def test_hash_equality(self):
        assert hash(Lit(4)) == hash(Lit(4))
        assert Lit(4) != Lit(-4)
        assert len({Lit(1), Lit(1), Lit(-1)}) == 2

    def test_int_conversion(self):
        assert int(Lit(-9)) == -9

    @given(st.integers(min_value=-1000, max_value=1000).filter(lambda v: v != 0))
    def test_double_negation_roundtrip(self, value):
        assert -(-Lit(value)) == Lit(value)


# ----------------------------------------------------------------------
# Clause
# ----------------------------------------------------------------------


class TestClause:
    def test_normalisation_dedupes(self):
        assert Clause([1, 1, 2]) == Clause([2, 1])

    def test_normalisation_sorts(self):
        assert Clause([3, -1, 2]).lits == (Lit(-1), Lit(2), Lit(3))

    def test_accepts_lit_objects_and_ints(self):
        assert Clause([Lit(1), -2]) == Clause([1, -2])

    def test_empty_clause(self):
        empty = Clause([])
        assert empty.is_empty
        assert len(empty) == 0
        assert not empty.satisfied_by({1: True})

    def test_unit_clause(self):
        assert Clause([5]).is_unit
        assert not Clause([5, 6]).is_unit

    def test_tautology_detection(self):
        assert Clause([1, -1, 2]).is_tautology
        assert not Clause([1, 2, 3]).is_tautology

    def test_variables(self):
        assert Clause([1, -2, 3]).variables == frozenset({1, 2, 3})

    def test_satisfied_by(self):
        c = Clause([1, -2])
        assert c.satisfied_by({1: True, 2: True})
        assert c.satisfied_by({1: False, 2: False})
        assert not c.satisfied_by({1: False, 2: True})

    def test_partial_assignment_not_satisfied(self):
        assert not Clause([1, 2]).satisfied_by({})

    def test_contains(self):
        c = Clause([1, -2])
        assert Lit(1) in c
        assert 1 in c
        assert -2 in c
        assert 2 not in c
        assert "x" not in c

    def test_hash_equality_after_normalisation(self):
        assert hash(Clause([2, 1])) == hash(Clause([1, 2, 2]))

    def test_str_rendering(self):
        assert str(Clause([1, -2])) == "x1 ∨ ¬x2"
        assert str(Clause([])) == "⊥"

    def test_clause_helper(self):
        assert clause(1, -2, 3) == Clause([1, -2, 3])

    @given(
        st.lists(
            st.integers(min_value=-20, max_value=20).filter(lambda v: v != 0),
            min_size=0,
            max_size=8,
        )
    )
    def test_normalisation_idempotent(self, lits):
        once = Clause(lits)
        twice = Clause([l.value for l in once.lits])
        assert once == twice


# ----------------------------------------------------------------------
# CNF
# ----------------------------------------------------------------------


class TestCNF:
    def test_empty_formula(self):
        f = CNF([])
        assert f.num_vars == 0
        assert f.num_clauses == 0
        assert f.satisfied_by({})

    def test_num_vars_inferred(self):
        f = CNF([[1, -5]])
        assert f.num_vars == 5

    def test_num_vars_may_extend(self):
        f = CNF([[1, 2]], num_vars=10)
        assert f.num_vars == 10

    def test_num_vars_cannot_shrink(self):
        with pytest.raises(ValueError):
            CNF([[1, 5]], num_vars=3)

    def test_clause_coercion(self):
        f = CNF([[1, 2], Clause([3])])
        assert f.clauses == (Clause([1, 2]), Clause([3]))

    def test_is_3sat(self):
        assert CNF([[1, 2, 3]]).is_3sat
        assert not CNF([[1, 2, 3, 4]]).is_3sat

    def test_max_clause_size(self):
        assert CNF([[1], [1, 2, 3]]).max_clause_size == 3
        assert CNF([]).max_clause_size == 0

    def test_clause_ratio(self):
        assert CNF([[1, 2]] * 1, num_vars=2).clause_ratio == 0.5

    def test_satisfied_by(self, tiny_sat_formula):
        assert tiny_sat_formula.satisfied_by({1: False, 2: False, 3: True, 4: True})
        assert not tiny_sat_formula.satisfied_by({1: False, 2: False, 3: False, 4: False})

    def test_unsatisfied_clauses(self, tiny_sat_formula):
        unsat = tiny_sat_formula.unsatisfied_clauses({1: False, 2: False, 3: False})
        assert unsat == [Clause([1, 2, 3])]

    def test_restrict_drops_satisfied(self):
        f = CNF([[1, 2], [-1, 3]])
        reduced = f.restrict({1: True})
        assert reduced.clauses == (Clause([3]),)
        assert reduced.num_vars == f.num_vars

    def test_restrict_narrows_falsified(self):
        f = CNF([[1, 2, 3]])
        reduced = f.restrict({1: False})
        assert reduced.clauses == (Clause([2, 3]),)

    def test_restrict_can_create_empty_clause(self):
        f = CNF([[1, 2]])
        reduced = f.restrict({1: False, 2: False})
        assert reduced.clauses[0].is_empty

    def test_with_clauses(self):
        f = CNF([[1, 2]]).with_clauses([[3]])
        assert f.num_clauses == 2

    def test_clause_index(self):
        f = CNF([[1, 2], [-2, 3]])
        index = f.clause_index()
        assert index == {1: [0], 2: [0, 1], 3: [1]}

    def test_variables_property(self):
        f = CNF([[1, 3]], num_vars=5)
        assert f.variables == frozenset({1, 3})

    def test_iteration_and_indexing(self, tiny_sat_formula):
        assert list(tiny_sat_formula)[0] == tiny_sat_formula[0]
        assert len(tiny_sat_formula) == 2

    def test_equality_includes_num_vars(self):
        assert CNF([[1]], num_vars=1) != CNF([[1]], num_vars=2)

    def test_str(self):
        assert str(CNF([])) == "⊤"
        assert "∧" in str(CNF([[1], [2]]))


class TestFingerprint:
    def test_is_a_sha256_hex_digest(self):
        digest = fingerprint(CNF([[1, 2, 3]], num_vars=3))
        assert len(digest) == 64
        assert set(digest) <= set("0123456789abcdef")

    def test_equal_formulas_fingerprint_equally(self):
        a = CNF([[1, 2, 3], [-1, 2, 4]], num_vars=4)
        b = CNF([[1, 2, 3], [-1, 2, 4]], num_vars=4)
        assert fingerprint(a) == fingerprint(b)

    def test_clause_order_invariant(self):
        a = CNF([[1, 2, 3], [-1, 2, 4]], num_vars=4)
        b = CNF([[-1, 2, 4], [1, 2, 3]], num_vars=4)
        assert fingerprint(a) == fingerprint(b)

    def test_literal_order_invariant(self):
        a = CNF([[3, 1, 2]], num_vars=3)
        b = CNF([[1, 2, 3]], num_vars=3)
        assert fingerprint(a) == fingerprint(b)

    def test_clause_content_matters(self):
        a = CNF([[1, 2, 3]], num_vars=3)
        b = CNF([[1, 2, -3]], num_vars=3)
        assert fingerprint(a) != fingerprint(b)

    def test_num_vars_matters(self):
        a = CNF([[1, 2]], num_vars=2)
        b = CNF([[1, 2]], num_vars=3)
        assert fingerprint(a) != fingerprint(b)

    def test_clause_multiset_matters(self):
        once = CNF([[1, 2]], num_vars=2)
        twice = CNF([[1, 2], [1, 2]], num_vars=2)
        assert fingerprint(once) != fingerprint(twice)

    def test_variable_identity_not_canonicalised(self):
        # x1 and x2 stay distinguishable: no renaming canonicalisation.
        a = CNF([[1]], num_vars=2)
        b = CNF([[2]], num_vars=2)
        assert fingerprint(a) != fingerprint(b)

    @given(
        st.lists(
            st.lists(
                st.integers(min_value=-6, max_value=6).filter(bool),
                min_size=1,
                max_size=3,
            ),
            min_size=1,
            max_size=8,
        ),
        st.randoms(),
    )
    def test_any_clause_permutation_fingerprints_equally(self, rows, rnd):
        formula = CNF(rows, num_vars=6)
        shuffled_rows = list(rows)
        rnd.shuffle(shuffled_rows)
        shuffled = CNF(shuffled_rows, num_vars=6)
        assert fingerprint(formula) == fingerprint(shuffled)


class TestTableForm:
    """A CNF holds a canonical clause table and derives the Clause
    tuple from it (or the other way round) once, on first use."""

    TEXT = "p cnf 4 3\n3 -1 1 0\n2 2 0\n-4 -2 0\n"

    def test_parsed_formula_builds_clauses_only_when_read(self):
        formula = parse_dimacs(self.TEXT)
        assert formula._clauses is None
        assert (formula.num_clauses, formula.max_clause_size) == (3, 3)
        assert formula.is_3sat and len(formula) == 3
        fingerprint(formula)
        assert formula._clauses is None
        assert formula.clauses == (
            Clause([1, -1, 3]), Clause([2]), Clause([-2, -4]),
        )
        assert formula.clauses is formula.clauses

    def test_table_rows_are_in_clause_order(self):
        parsed = parse_dimacs(self.TEXT)
        built = CNF([[3, -1, 1], [2, 2], [-4, -2]], num_vars=4)
        assert built._table is None
        assert parsed.table.lits.tolist() == [[1, -1, 3], [2, 0, 0], [-2, -4, 0]]
        assert np.array_equal(parsed.table.lits, built.table.lits)
        assert parsed == built and hash(parsed) == hash(built)
        assert parsed != CNF(built.clauses, num_vars=5)

    def test_from_table_checks_num_vars(self):
        table = parse_dimacs(self.TEXT).table
        assert CNF.from_table(table).num_vars == 4
        with pytest.raises(ValueError, match="mentions variable 4"):
            CNF.from_table(table, num_vars=3)

    @pytest.mark.parametrize("route", ["parsed", "built"])
    def test_pickles_as_its_table(self, route):
        formula = (
            parse_dimacs(self.TEXT)
            if route == "parsed"
            else CNF([[3, -1, 1], [2, 2], [-4, -2]], num_vars=4)
        )
        formula.clauses  # a built Clause tuple is still not shipped
        payload = pickle.dumps(formula)
        names = {
            arg
            for op, arg, _pos in pickletools.genops(payload)
            if isinstance(arg, str)
        }
        assert not names & {"Clause", "Lit"}, names
        copy = pickle.loads(payload)
        assert copy._clauses is None
        assert copy == formula and copy.clauses == formula.clauses
        assert fingerprint(copy) == fingerprint(formula)

    def test_empty_formula(self):
        for formula in (parse_dimacs("p cnf 0 0\n"), CNF([])):
            assert formula.table.lits.shape == (0, 0)
            assert (formula.num_clauses, formula.max_clause_size) == (0, 0)
            assert formula.clauses == () and str(formula) == "⊤"
