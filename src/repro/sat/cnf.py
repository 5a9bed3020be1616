"""Core CNF data model: literals, clauses, and formulas.

The user-facing representation follows the DIMACS convention: variables
are positive integers ``1..n`` and a literal is a signed integer, with
``-v`` denoting the negation of variable ``v``.  :class:`Lit` is a thin
immutable wrapper around that convention; the CDCL engine re-encodes
literals into dense non-negative indices internally (see
:mod:`repro.cdcl.solver`), but every public API speaks :class:`Lit`,
:class:`Clause`, and :class:`CNF`.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple


class Lit:
    """A propositional literal: a variable or its negation.

    Parameters
    ----------
    value:
        Non-zero signed integer in DIMACS convention.  ``Lit(3)`` is the
        positive literal of variable 3, ``Lit(-3)`` its negation.
    """

    __slots__ = ("_value",)

    def __init__(self, value: int):
        if not isinstance(value, int) or isinstance(value, bool):
            raise TypeError(f"literal value must be an int, got {value!r}")
        if value == 0:
            raise ValueError("literal value must be non-zero (0 terminates DIMACS clauses)")
        self._value = value

    @property
    def value(self) -> int:
        """The signed DIMACS integer of this literal."""
        return self._value

    @property
    def var(self) -> int:
        """The (positive) variable index of this literal."""
        return abs(self._value)

    @property
    def positive(self) -> bool:
        """True if this literal is the un-negated variable."""
        return self._value > 0

    @property
    def negative(self) -> bool:
        """True if this literal is a negated variable."""
        return self._value < 0

    def __neg__(self) -> "Lit":
        return Lit(-self._value)

    def __invert__(self) -> "Lit":
        return Lit(-self._value)

    def satisfied_by(self, value: bool) -> bool:
        """Whether assigning ``value`` to this literal's variable satisfies it."""
        return value == self.positive

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Lit):
            return self._value == other._value
        return NotImplemented

    def __lt__(self, other: "Lit") -> bool:
        return (self.var, not self.positive) < (other.var, not other.positive)

    def __hash__(self) -> int:
        return hash(self._value)

    def __int__(self) -> int:
        return self._value

    def __repr__(self) -> str:
        return f"Lit({self._value})"

    def __str__(self) -> str:
        return str(self._value)


def _as_lit(lit: object) -> Lit:
    """Coerce an ``int`` or :class:`Lit` into a :class:`Lit`."""
    if isinstance(lit, Lit):
        return lit
    if isinstance(lit, int) and not isinstance(lit, bool):
        return Lit(lit)
    raise TypeError(f"expected Lit or int, got {lit!r}")


class Clause:
    """An immutable disjunction of literals.

    Duplicate literals are removed and the literal order is normalised
    (sorted by variable, positive before negative), so two clauses with
    the same literal set compare equal and hash identically.

    A clause containing both a literal and its negation is a *tautology*;
    it is representable (``Clause.is_tautology``) so parsers can detect
    and drop it, but most pipelines remove tautologies up front.
    """

    __slots__ = ("_lits",)

    def __init__(self, lits: Iterable[object]):
        seen: Dict[int, Lit] = {}
        for raw in lits:
            lit = _as_lit(raw)
            seen.setdefault(lit.value, lit)
        self._lits: Tuple[Lit, ...] = tuple(sorted(seen.values()))

    @property
    def lits(self) -> Tuple[Lit, ...]:
        """The normalised literal tuple."""
        return self._lits

    @property
    def variables(self) -> FrozenSet[int]:
        """The set of variable indices mentioned by this clause."""
        return frozenset(lit.var for lit in self._lits)

    @property
    def is_empty(self) -> bool:
        """True for the empty (unsatisfiable) clause."""
        return not self._lits

    @property
    def is_unit(self) -> bool:
        """True if the clause has exactly one literal."""
        return len(self._lits) == 1

    @property
    def is_tautology(self) -> bool:
        """True if the clause contains a literal and its negation."""
        values = {lit.value for lit in self._lits}
        return any(-v in values for v in values)

    def satisfied_by(self, assignment: "Mapping[int, bool]") -> bool:
        """Whether a total assignment (``var -> bool``) satisfies this clause."""
        return any(
            lit.var in assignment and lit.satisfied_by(assignment[lit.var])
            for lit in self._lits
        )

    def __len__(self) -> int:
        return len(self._lits)

    def __iter__(self) -> Iterator[Lit]:
        return iter(self._lits)

    def __contains__(self, lit: object) -> bool:
        try:
            return _as_lit(lit) in self._lits
        except TypeError:
            return False

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Clause):
            return self._lits == other._lits
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._lits)

    def __repr__(self) -> str:
        return f"Clause([{', '.join(str(l) for l in self._lits)}])"

    def __str__(self) -> str:
        if not self._lits:
            return "⊥"
        return " ∨ ".join(
            (f"x{lit.var}" if lit.positive else f"¬x{lit.var}") for lit in self._lits
        )


# Mapping import placed late to avoid polluting module namespace at the top.
from typing import Mapping  # noqa: E402


class CNF:
    """A propositional formula in conjunctive normal form.

    Parameters
    ----------
    clauses:
        Iterable of :class:`Clause` (or iterables of literals, which are
        coerced).
    num_vars:
        Optional explicit variable count.  Defaults to the largest
        variable index mentioned; an explicit value may only *extend*
        the range (it is an error to claim fewer variables than appear).
    """

    __slots__ = ("_clauses", "_num_vars")

    def __init__(self, clauses: Iterable[object] = (), num_vars: Optional[int] = None):
        coerced: List[Clause] = []
        for clause in clauses:
            if isinstance(clause, Clause):
                coerced.append(clause)
            else:
                coerced.append(Clause(clause))
        self._clauses: Tuple[Clause, ...] = tuple(coerced)
        max_var = max((lit.var for c in self._clauses for lit in c), default=0)
        if num_vars is None:
            num_vars = max_var
        elif num_vars < max_var:
            raise ValueError(
                f"num_vars={num_vars} but formula mentions variable {max_var}"
            )
        self._num_vars = num_vars

    @property
    def clauses(self) -> Tuple[Clause, ...]:
        """The clause tuple (order-preserving)."""
        return self._clauses

    @property
    def num_vars(self) -> int:
        """Number of variables (``1..num_vars``)."""
        return self._num_vars

    @property
    def num_clauses(self) -> int:
        """Number of clauses."""
        return len(self._clauses)

    @property
    def variables(self) -> FrozenSet[int]:
        """Variables that actually occur in some clause."""
        return frozenset(
            itertools.chain.from_iterable(c.variables for c in self._clauses)
        )

    @property
    def max_clause_size(self) -> int:
        """Size of the widest clause (0 for an empty formula)."""
        return max((len(c) for c in self._clauses), default=0)

    @property
    def is_3sat(self) -> bool:
        """True if every clause has at most three literals."""
        return self.max_clause_size <= 3

    @property
    def clause_ratio(self) -> float:
        """Clause-to-variable ratio m/n (``inf`` when n == 0)."""
        if self._num_vars == 0:
            return float("inf") if self._clauses else 0.0
        return self.num_clauses / self._num_vars

    def satisfied_by(self, assignment: Mapping[int, bool]) -> bool:
        """Whether an assignment satisfies every clause."""
        return all(c.satisfied_by(assignment) for c in self._clauses)

    def unsatisfied_clauses(self, assignment: Mapping[int, bool]) -> List[Clause]:
        """Clauses not satisfied by ``assignment`` (partial assignments allowed)."""
        return [c for c in self._clauses if not c.satisfied_by(assignment)]

    def with_clauses(self, extra: Iterable[object]) -> "CNF":
        """A new formula with ``extra`` clauses appended."""
        return CNF(list(self._clauses) + list(extra), num_vars=None)

    def restrict(self, assignment: Mapping[int, bool]) -> "CNF":
        """Apply a partial assignment, dropping satisfied clauses and
        removing falsified literals from the rest.

        The variable numbering is preserved (no renaming), so results
        remain comparable with the original formula.
        """
        reduced: List[Clause] = []
        for clause in self._clauses:
            if clause.satisfied_by(assignment):
                continue
            remaining = [
                lit for lit in clause if lit.var not in assignment
            ]
            reduced.append(Clause(remaining))
        return CNF(reduced, num_vars=self._num_vars)

    def clause_index(self) -> Dict[int, List[int]]:
        """Map each variable to the list of clause indices mentioning it."""
        index: Dict[int, List[int]] = {}
        for i, clause in enumerate(self._clauses):
            for var in clause.variables:
                index.setdefault(var, []).append(i)
        return index

    def __len__(self) -> int:
        return len(self._clauses)

    def __iter__(self) -> Iterator[Clause]:
        return iter(self._clauses)

    def __getitem__(self, i: int) -> Clause:
        return self._clauses[i]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, CNF):
            return (
                self._clauses == other._clauses and self._num_vars == other._num_vars
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._clauses, self._num_vars))

    def __repr__(self) -> str:
        return f"CNF(num_vars={self._num_vars}, num_clauses={self.num_clauses})"

    def __str__(self) -> str:
        if not self._clauses:
            return "⊤"
        return " ∧ ".join(f"({c})" for c in self._clauses)


def clause(*lits: object) -> Clause:
    """Convenience constructor: ``clause(1, -2, 3)``."""
    return Clause(lits)


def fingerprint(formula: CNF) -> str:
    """Canonical content hash of a formula (hex SHA-256 digest).

    The fingerprint is computed over a *canonical* serialisation:
    every clause as its sorted literal tuple (:class:`Clause` already
    normalises literal order and drops duplicate literals), the clause
    list sorted lexicographically, plus ``num_vars``.  Two formulas
    therefore fingerprint identically iff they have the same clause
    *multiset* and variable range — clause order and per-clause literal
    order do not matter, but variable identity does (no renaming
    canonicalisation is attempted, so the hash is stable under
    reordering while x1 and x2 remain distinguishable).

    Used by the service layer to deduplicate identical instances, and
    useful standalone as a stable cache/identity key for any CNF.  Note that
    CDCL search *is* sensitive to clause order, so two formulas with
    equal fingerprints may produce different models/statistics when
    solved separately; deduplication trades that for solving each
    distinct instance once.
    """
    import hashlib

    digest = hashlib.sha256()
    digest.update(f"p cnf {formula.num_vars} {formula.num_clauses}\n".encode())
    rows = sorted(tuple(lit.value for lit in c) for c in formula.clauses)
    for row in rows:
        digest.update(" ".join(str(v) for v in row).encode())
        digest.update(b"\n")
    return digest.hexdigest()
