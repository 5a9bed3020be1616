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

import hashlib
import itertools
import operator
from collections.abc import Sequence as SequenceABC
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np


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


#: Largest variable index :meth:`ClauseTable.canonical` can order.
MAX_VAR = 2**61

#: Sort key of a padding cell: above every literal's key.
_PAD_KEY = np.iinfo(np.int64).max


class ClauseTable(SequenceABC):
    """Clauses as one ``(m, w)`` array of signed DIMACS literals.

    Row ``k`` holds clause ``k``'s literals in :class:`Clause` order,
    zero-padded on the right, so whole clause sets can be masked and
    gathered at once; indexing yields :class:`Clause` objects.  A
    *canonical* table (what :meth:`of` and :meth:`canonical` return)
    is also exactly as wide as its longest row, so equal clause
    sequences have equal arrays.
    """

    __slots__ = ("lits",)

    def __init__(self, lits: np.ndarray):
        self.lits = lits

    @classmethod
    def of(cls, clauses: Iterable[Clause]) -> "ClauseTable":
        """The table of a clause sequence."""
        rows = [[lit.value for lit in clause.lits] for clause in clauses]
        lits = np.zeros((len(rows), max(map(len, rows), default=0)), np.int64)
        for k, row in enumerate(rows):
            lits[k, : len(row)] = row
        return cls(lits)

    @classmethod
    def canonical(cls, lits: np.ndarray) -> "ClauseTable":
        """The table of zero-padded rows of literals in any order: each
        row sorted into :class:`Clause` order with repeated literals
        dropped, the width trimmed to the longest row.  Variables may
        not exceed :data:`MAX_VAR`."""
        keys = np.where(lits != 0, 2 * np.abs(lits) + (lits < 0), _PAD_KEY)
        keys.sort(axis=1)
        repeat = (keys[:, 1:] == keys[:, :-1]) & (keys[:, 1:] != _PAD_KEY)
        if repeat.any():
            keys[:, 1:][repeat] = _PAD_KEY
            keys.sort(axis=1)
        keys = keys[:, : np.count_nonzero(keys != _PAD_KEY, axis=1).max(initial=0)]
        variables = keys >> 1
        return cls(
            np.where(keys == _PAD_KEY, 0, np.where(keys & 1, -variables, variables))
        )

    def __len__(self) -> int:
        return len(self.lits)

    def __getitem__(self, k: int) -> Clause:
        return Clause([lit for lit in self.lits[k].tolist() if lit])

    def tautological(self) -> np.ndarray:
        """Per row: whether it holds a literal and its negation (two
        neighbours share a variable, which Clause order guarantees)."""
        variables = np.abs(self.lits)
        return (
            (variables[:, 1:] == variables[:, :-1]) & (variables[:, 1:] != 0)
        ).any(axis=1)

    def text(self, sort: bool = False) -> bytes:
        """Every row as one ASCII line: its literals in decimal, joined
        by single spaces (a DIMACS clause line without the ``0``).  With
        ``sort``, the rows go in Python tuple order (a row that prefixes
        another first), as :func:`fingerprint` hashes them.

        An int64 table is written by the formula-read library's
        ``table_text`` when it loads, else by the NumPy path below."""
        from repro.cdcl import native  # repro.cdcl imports this module

        lits = self.lits
        kernel = native.load_table_kernel()
        if kernel is not None and lits.dtype == np.int64:
            lits = np.ascontiguousarray(lits)
            m, w = lits.shape
            out = np.empty(m * (21 * w + 1), np.uint8)  # sign, 19 digits, space
            size = kernel.table_text(
                m, w, native.address(lits), sort, len(out), native.address(out)
            )
            if size >= 0:
                return out[:size].tobytes()
        if sort and lits.shape[1]:
            # Padding sorts below every literal.
            keys = np.where(lits != 0, lits, np.iinfo(np.int64).min)
            lits = lits[np.lexsort(keys.T[::-1])]
        size = np.abs(lits)[..., None]
        places = 10 ** np.arange(len(str(size.max(initial=0))) - 1, -1, -1)
        digits = np.where(size >= places, size // places % 10 + ord("0"), 0)
        sign = np.where(lits < 0, ord("-"), 0)[..., None]
        last = np.count_nonzero(lits, axis=1)[:, None] - 1
        space = np.where(np.arange(lits.shape[1]) < last, ord(" "), 0)[..., None]
        cells = np.concatenate([sign, digits, space], axis=2)
        chars = np.concatenate(
            [
                cells.reshape(len(lits), cells.shape[1] * cells.shape[2]),
                np.full((len(lits), 1), ord("\n")),
            ],
            axis=1,
        ).ravel()
        return chars[chars != 0].astype(np.uint8).tobytes()

    def conditioned(
        self, rows: Sequence[int], assigned: np.ndarray
    ) -> Tuple["ClauseTable", np.ndarray]:
        """Rows ``rows`` less the literals of assigned variables.

        ``assigned`` is a boolean mask indexed by variable.  Rows left
        with no literal are dropped; returns the residual table and the
        kept row indices, in ``rows`` order.
        """
        rows = np.asarray(rows, dtype=np.int64)
        lits = self.lits[rows]
        free = (lits != 0) & ~assigned[np.abs(lits)]
        kept = free.any(axis=1)
        lits, free = lits[kept], free[kept]
        # Slide each row's surviving literals left, keeping their order.
        order = np.argsort(~free, axis=1, kind="stable")
        free = np.take_along_axis(free, order, axis=1)
        lits = np.where(free, np.take_along_axis(lits, order, axis=1), 0)
        return ClauseTable(lits), rows[kept]


# Mapping import placed late to avoid polluting module namespace at the top.
from typing import Mapping  # noqa: E402


class CNF:
    """A propositional formula in conjunctive normal form.

    The formula holds its clauses in one of two forms and derives the
    other once, on first use: a canonical :class:`ClauseTable`
    (:attr:`table`; the parser builds only this) and the tuple of
    :class:`Clause` objects (:attr:`clauses`, iteration and indexing;
    the constructor builds only this).  Counts, equality, hashing,
    pickling and :func:`fingerprint` read the table, so a formula that
    is only parsed, keyed and looked up never builds a ``Clause``.

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

    __slots__ = ("_clauses", "_table", "_num_vars")

    def __init__(self, clauses: Iterable[object] = (), num_vars: Optional[int] = None):
        self._clauses: Optional[Tuple[Clause, ...]] = tuple(
            clause if isinstance(clause, Clause) else Clause(clause)
            for clause in clauses
        )
        self._table: Optional[ClauseTable] = None
        self._num_vars = _checked_num_vars(
            num_vars, max((lit.var for c in self._clauses for lit in c), default=0)
        )

    @classmethod
    def from_table(cls, table: ClauseTable, num_vars: Optional[int] = None) -> "CNF":
        """The formula of a canonical table (see :class:`ClauseTable`);
        ``num_vars`` as in the constructor."""
        formula = cls.__new__(cls)
        formula._clauses = None
        formula._table = table
        formula._num_vars = _checked_num_vars(
            num_vars, int(np.abs(table.lits).max(initial=0))
        )
        return formula

    @property
    def table(self) -> ClauseTable:
        """The clauses as one canonical table (built on first use)."""
        if self._table is None:
            self._table = ClauseTable.of(self._clauses)
        return self._table

    @property
    def clauses(self) -> Tuple[Clause, ...]:
        """The clause tuple (order-preserving; built on first use)."""
        if self._clauses is None:
            self._clauses = tuple(
                Clause(filter(None, row)) for row in self._table.lits.tolist()
            )
        return self._clauses

    @property
    def num_vars(self) -> int:
        """Number of variables (``1..num_vars``)."""
        return self._num_vars

    @property
    def num_clauses(self) -> int:
        """Number of clauses."""
        return len(self.table)

    @property
    def variables(self) -> FrozenSet[int]:
        """Variables that actually occur in some clause."""
        return frozenset(
            itertools.chain.from_iterable(c.variables for c in self.clauses)
        )

    @property
    def max_clause_size(self) -> int:
        """Size of the widest clause (0 for an empty formula)."""
        return self.table.lits.shape[1]

    @property
    def is_3sat(self) -> bool:
        """True if every clause has at most three literals."""
        return self.max_clause_size <= 3

    @property
    def clause_ratio(self) -> float:
        """Clause-to-variable ratio m/n (``inf`` when n == 0)."""
        if self._num_vars == 0:
            return float("inf") if self.num_clauses else 0.0
        return self.num_clauses / self._num_vars

    def satisfied_by(self, assignment: Mapping[int, bool]) -> bool:
        """Whether an assignment satisfies every clause: some literal of
        each has its variable assigned and equal to its sign, as
        :meth:`Clause.satisfied_by` decides one clause."""
        lits = self.table.lits
        variables = np.abs(lits)
        size = int(variables.max(initial=0)) + 1
        true_if_pos = np.zeros(size, bool)
        true_if_neg = np.zeros(size, bool)
        for var, value in assignment.items():
            try:
                var = operator.index(var)
            except TypeError:
                continue
            if 0 < var < size:
                true_if_pos[var] = value == True  # noqa: E712 (Lit's test)
                true_if_neg[var] = value == False  # noqa: E712
        true = np.where(lits > 0, true_if_pos[variables], true_if_neg[variables])
        return bool(true.any(axis=1).all())

    def unsatisfied_clauses(self, assignment: Mapping[int, bool]) -> List[Clause]:
        """Clauses not satisfied by ``assignment`` (partial assignments allowed)."""
        return [c for c in self.clauses if not c.satisfied_by(assignment)]

    def with_clauses(self, extra: Iterable[object]) -> "CNF":
        """A new formula with ``extra`` clauses appended."""
        return CNF(list(self.clauses) + list(extra), num_vars=None)

    def restrict(self, assignment: Mapping[int, bool]) -> "CNF":
        """Apply a partial assignment, dropping satisfied clauses and
        removing falsified literals from the rest.

        The variable numbering is preserved (no renaming), so results
        remain comparable with the original formula.
        """
        reduced: List[Clause] = []
        for clause in self.clauses:
            if clause.satisfied_by(assignment):
                continue
            remaining = [
                lit for lit in clause if lit.var not in assignment
            ]
            reduced.append(Clause(remaining))
        return CNF(reduced, num_vars=self._num_vars)

    def clause_index(self) -> Dict[int, List[int]]:
        """Map each variable to the ascending list of clause indices
        mentioning it (each index once; keys in ascending order)."""
        variables = np.abs(self.table.lits)
        # Clause order puts a variable's literals side by side, so its
        # first cell in a row is the one unlike its left neighbour.
        first = variables != 0
        first[:, 1:] &= variables[:, 1:] != variables[:, :-1]
        rows, cols = np.nonzero(first)
        keys = variables[rows, cols]
        order = np.argsort(keys, kind="stable")  # rows stay ascending
        keys, rows = keys[order], rows[order]
        cuts = np.flatnonzero(np.diff(keys)) + 1
        return {
            int(group_keys[0]): group_rows.tolist()
            for group_keys, group_rows in zip(
                np.split(keys, cuts), np.split(rows, cuts)
            )
            if len(group_keys)
        }

    def __len__(self) -> int:
        return self.num_clauses

    def __iter__(self) -> Iterator[Clause]:
        return iter(self.clauses)

    def __getitem__(self, i: int) -> Clause:
        return self.clauses[i]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, CNF):
            return self._num_vars == other._num_vars and np.array_equal(
                self.table.lits, other.table.lits
            )
        return NotImplemented

    def __hash__(self) -> int:
        lits = self.table.lits
        return hash((lits.shape, lits.tobytes(), self._num_vars))

    def __reduce__(self):
        # Ship the table (one integer array), never Clause objects; a
        # process worker that solves builds its Clause tuple on first use.
        return CNF.from_table, (self.table, self._num_vars)

    def __repr__(self) -> str:
        return f"CNF(num_vars={self._num_vars}, num_clauses={self.num_clauses})"

    def __str__(self) -> str:
        if not self.num_clauses:
            return "⊤"
        return " ∧ ".join(f"({c})" for c in self.clauses)


def _checked_num_vars(num_vars: Optional[int], max_var: int) -> int:
    """An explicit ``num_vars``, or ``max_var`` when None; never below it."""
    if num_vars is None:
        return max_var
    if num_vars < max_var:
        raise ValueError(
            f"num_vars={num_vars} but formula mentions variable {max_var}"
        )
    return num_vars


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

    The hashed bytes are ``p cnf <num_vars> <num_clauses>`` and then
    one line per row of :attr:`CNF.table` in Python tuple order, as
    ``ClauseTable.text(sort=True)`` writes them; the cache DB and the
    dedup key store these digests, so that byte stream must never
    change.
    """
    table = formula.table
    digest = hashlib.sha256(f"p cnf {formula.num_vars} {len(table)}\n".encode())
    digest.update(table.text(sort=True))
    return digest.hexdigest()
