"""Partial and total variable assignments.

:class:`Assignment` is a mapping-compatible container used across the
library: the CDCL trail exports one, the annealer backend produces one
from qubit readouts, and the reference brute-force solver returns one.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Mapping, Optional, Tuple

from repro.sat.cnf import CNF, Clause, Lit


class Assignment:
    """A (possibly partial) mapping from variables to Boolean values.

    Behaves like a ``Mapping[int, bool]``; variables are the positive
    DIMACS indices.  Instances are mutable (``assign`` / ``unassign``)
    because the hybrid solver incrementally refines them, but cheap to
    snapshot via :meth:`copy` or :meth:`frozen`.
    """

    __slots__ = ("_values",)

    def __init__(self, values: Optional[Mapping[int, bool]] = None):
        self._values: Dict[int, bool] = {}
        if values:
            for var, val in values.items():
                self.assign(var, val)

    @classmethod
    def from_literals(cls, lits: Iterable[object]) -> "Assignment":
        """Build from satisfied literals, e.g. ``from_literals([1, -2, 3])``."""
        out = cls()
        for raw in lits:
            lit = raw if isinstance(raw, Lit) else Lit(raw)
            out.assign(lit.var, lit.positive)
        return out

    @classmethod
    def all_false(cls, num_vars: int) -> "Assignment":
        """Total assignment with every variable 0."""
        return cls({v: False for v in range(1, num_vars + 1)})

    @classmethod
    def all_true(cls, num_vars: int) -> "Assignment":
        """Total assignment with every variable 1."""
        return cls({v: True for v in range(1, num_vars + 1)})

    def assign(self, var: int, value: bool) -> None:
        """Set ``var`` to ``value`` (overwrites any previous value)."""
        if var <= 0:
            raise ValueError(f"variable index must be positive, got {var}")
        self._values[var] = bool(value)

    def unassign(self, var: int) -> None:
        """Remove ``var`` from the assignment (no-op if absent)."""
        self._values.pop(var, None)

    def value_of(self, lit: Lit) -> Optional[bool]:
        """Truth value of a literal under this assignment, or None."""
        val = self._values.get(lit.var)
        if val is None:
            return None
        return val == lit.positive

    def satisfies_clause(self, clause: Clause) -> bool:
        """True if some literal of ``clause`` is satisfied."""
        return any(self.value_of(lit) is True for lit in clause)

    def falsifies_clause(self, clause: Clause) -> bool:
        """True if *every* literal of ``clause`` is assigned false."""
        return all(self.value_of(lit) is False for lit in clause)

    def satisfies(self, formula: CNF) -> bool:
        """True if every clause of ``formula`` is satisfied (read from
        its clause table; no ``Clause`` object is built)."""
        return formula.satisfied_by(self)

    def is_total(self, num_vars: int) -> bool:
        """True if variables ``1..num_vars`` are all assigned."""
        return all(v in self._values for v in range(1, num_vars + 1))

    def completed(self, num_vars: int, default: bool = False) -> "Assignment":
        """A copy with unassigned variables filled in with ``default``."""
        out = self.copy()
        for var in range(1, num_vars + 1):
            if var not in out:
                out.assign(var, default)
        return out

    def copy(self) -> "Assignment":
        """Independent mutable copy."""
        clone = Assignment()
        clone._values = dict(self._values)
        return clone

    def frozen(self) -> Tuple[Tuple[int, bool], ...]:
        """Hashable snapshot (sorted ``(var, value)`` pairs)."""
        return tuple(sorted(self._values.items()))

    def as_literals(self) -> Tuple[Lit, ...]:
        """The satisfied literals, sorted by variable."""
        return tuple(
            Lit(var if val else -var) for var, val in sorted(self._values.items())
        )

    def __getitem__(self, var: int) -> bool:
        return self._values[var]

    def __setitem__(self, var: int, value: bool) -> None:
        self.assign(var, value)

    def __contains__(self, var: object) -> bool:
        return var in self._values

    def __iter__(self) -> Iterator[int]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def get(self, var: int, default: Optional[bool] = None) -> Optional[bool]:
        """Mapping-style ``get``."""
        return self._values.get(var, default)

    def keys(self):
        """Assigned variables."""
        return self._values.keys()

    def values(self):
        """Assigned values."""
        return self._values.values()

    def items(self):
        """``(var, value)`` pairs."""
        return self._values.items()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Assignment):
            return self._values == other._values
        if isinstance(other, Mapping):
            return self._values == dict(other)
        return NotImplemented

    def __repr__(self) -> str:
        inner = ", ".join(f"{v}={int(val)}" for v, val in sorted(self._values.items()))
        return f"Assignment({{{inner}}})"
