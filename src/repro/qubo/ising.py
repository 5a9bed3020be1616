"""The two-degree objective function of Equation 2.

``H(X) = I + Σ B_i x_i + Σ_{i<j} J_ij x_i x_j`` over binary variables
``x ∈ {0, 1}``.  Variables are integer labels; formula variables use
their DIMACS index and auxiliary variables continue the numbering above
``num_vars``.

The paper works in this 0/1 ("QUBO") form throughout — the hardware
ranges it normalises to (``B ∈ [-2, 2]``, ``J ∈ [-1, 1]``, Section
II-D) are expressed on these coefficients — so this library does too.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Dict, Mapping, Optional, Set, Tuple

import numpy as np


def _edge(u: int, v: int) -> Tuple[int, int]:
    """Canonical (sorted) key for a quadratic term."""
    if u == v:
        raise ValueError(f"quadratic term requires distinct variables, got {u},{v}")
    return (u, v) if u < v else (v, u)


class QuadraticObjective:
    """A quadratic pseudo-Boolean objective over 0/1 variables.

    Mutable builder-style container: ``add_constant`` / ``add_linear`` /
    ``add_quadratic`` accumulate terms; arithmetic helpers (``+``,
    ``scaled``) return new objectives.  Zero coefficients are pruned so
    the variable set and problem graph reflect genuine structure.
    """

    __slots__ = ("offset", "linear", "quadratic")

    def __init__(
        self,
        offset: float = 0.0,
        linear: Optional[Mapping[int, float]] = None,
        quadratic: Optional[Mapping[Tuple[int, int], float]] = None,
    ):
        self.offset = float(offset)
        self.linear: Dict[int, float] = {}
        self.quadratic: Dict[Tuple[int, int], float] = {}
        if linear:
            for var, coeff in linear.items():
                self.add_linear(var, coeff)
        if quadratic:
            for (u, v), coeff in quadratic.items():
                self.add_quadratic(u, v, coeff)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_constant(self, value: float) -> "QuadraticObjective":
        """Add a constant (intercept) term; returns self for chaining."""
        self.offset += float(value)
        return self

    def add_linear(self, var: int, coeff: float) -> "QuadraticObjective":
        """Accumulate ``coeff * x_var``."""
        new = self.linear.get(var, 0.0) + float(coeff)
        if new == 0.0:
            self.linear.pop(var, None)
        else:
            self.linear[var] = new
        return self

    def add_quadratic(self, u: int, v: int, coeff: float) -> "QuadraticObjective":
        """Accumulate ``coeff * x_u * x_v``."""
        key = _edge(u, v)
        new = self.quadratic.get(key, 0.0) + float(coeff)
        if new == 0.0:
            self.quadratic.pop(key, None)
        else:
            self.quadratic[key] = new
        return self

    def add_objective(self, other: "QuadraticObjective", scale: float = 1.0) -> "QuadraticObjective":
        """Accumulate ``scale * other`` into self."""
        self.add_constant(scale * other.offset)
        for var, coeff in other.linear.items():
            self.add_linear(var, scale * coeff)
        for (u, v), coeff in other.quadratic.items():
            self.add_quadratic(u, v, scale * coeff)
        return self

    def __add__(self, other: "QuadraticObjective") -> "QuadraticObjective":
        return self.copy().add_objective(other)

    def scaled(self, factor: float) -> "QuadraticObjective":
        """A new objective equal to ``factor * self``."""
        return QuadraticObjective().add_objective(self, scale=factor)

    def copy(self) -> "QuadraticObjective":
        """Deep copy."""
        out = QuadraticObjective(self.offset)
        out.linear = dict(self.linear)
        out.quadratic = dict(self.quadratic)
        return out

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    @property
    def variables(self) -> Set[int]:
        """All variables with a non-zero linear or quadratic coefficient."""
        out: Set[int] = set(self.linear)
        for u, v in self.quadratic:
            out.add(u)
            out.add(v)
        return out

    def linear_of(self, var: int) -> float:
        """Coefficient B of ``x_var`` (0 if absent)."""
        return self.linear.get(var, 0.0)

    def quadratic_of(self, u: int, v: int) -> float:
        """Coefficient J of ``x_u x_v`` (0 if absent)."""
        return self.quadratic.get(_edge(u, v), 0.0)

    def d_star(self) -> float:
        """The Eq. 6 normalisation denominator
        ``max(max |B|/2, max |J|)`` (0 for an empty objective)."""
        return max(
            max(map(abs, self.linear.values()), default=0.0) / 2.0,
            max(map(abs, self.quadratic.values()), default=0.0),
        )

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def energy(self, assignment: Mapping[int, object]) -> float:
        """Evaluate H at a 0/1 (or bool) assignment of every variable."""
        total = self.offset
        for var, coeff in self.linear.items():
            if assignment[var]:
                total += coeff
        for (u, v), coeff in self.quadratic.items():
            if assignment[u] and assignment[v]:
                total += coeff
        return total

    # ------------------------------------------------------------------
    # Dunder plumbing
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QuadraticObjective):
            return (
                self.offset == other.offset
                and self.linear == other.linear
                and self.quadratic == other.quadratic
            )
        return NotImplemented

    def is_close(self, other: "QuadraticObjective", tol: float = 1e-9) -> bool:
        """Approximate equality (coefficient-wise within ``tol``)."""
        if abs(self.offset - other.offset) > tol:
            return False
        keys = set(self.linear) | set(other.linear)
        if any(
            abs(self.linear.get(k, 0.0) - other.linear.get(k, 0.0)) > tol for k in keys
        ):
            return False
        edges = set(self.quadratic) | set(other.quadratic)
        return all(
            abs(self.quadratic.get(e, 0.0) - other.quadratic.get(e, 0.0)) <= tol
            for e in edges
        )

    def __repr__(self) -> str:
        return (
            f"QuadraticObjective(offset={self.offset}, "
            f"|linear|={len(self.linear)}, |quadratic|={len(self.quadratic)})"
        )


@dataclass(frozen=True)
class LogicalArrays:
    """A :class:`QuadraticObjective`'s terms as arrays, in its dict order.

    ``variables`` are the objective's variables in ascending order, and
    the term arrays index into them.  :meth:`energy` adds the terms in
    dict order, so it equals :meth:`QuadraticObjective.energy` bit for
    bit.  :meth:`d_star`, :meth:`scaled` and :meth:`copy` follow the
    dict objective's, so :func:`~repro.qubo.normalization.normalize`
    takes either form; :meth:`to_objective` builds the dict view.
    """

    variables: np.ndarray
    linear_index: np.ndarray
    linear: np.ndarray
    quadratic_rows: np.ndarray
    quadratic_cols: np.ndarray
    quadratic: np.ndarray
    offset: float

    @classmethod
    def of_terms(
        cls,
        linear_vars: np.ndarray,
        linear: np.ndarray,
        pairs: np.ndarray,
        quadratic: np.ndarray,
        offset: float,
    ) -> "LogicalArrays":
        """The arrays of terms given by variable: ``linear_vars`` and
        ``(m, 2)`` ``pairs`` (``u < v``), each in dict order."""
        variables = np.unique(np.concatenate([linear_vars, pairs.ravel()]))
        return cls(
            variables=variables,
            linear_index=np.searchsorted(variables, linear_vars),
            linear=linear,
            quadratic_rows=np.searchsorted(variables, pairs[:, 0]),
            quadratic_cols=np.searchsorted(variables, pairs[:, 1]),
            quadratic=quadratic,
            offset=offset,
        )

    @classmethod
    def from_objective(cls, objective: QuadraticObjective) -> "LogicalArrays":
        """The terms of a dict objective."""
        return cls.of_terms(
            np.fromiter(objective.linear, np.int64, len(objective.linear)),
            np.fromiter(objective.linear.values(), float, len(objective.linear)),
            np.fromiter(
                chain.from_iterable(objective.quadratic),
                np.int64,
                2 * len(objective.quadratic),
            ).reshape(-1, 2),
            np.fromiter(objective.quadratic.values(), float, len(objective.quadratic)),
            objective.offset,
        )

    def to_objective(self) -> QuadraticObjective:
        """The dict objective these terms came from (keys in order)."""
        out = QuadraticObjective(self.offset)
        out.linear = dict(
            zip(self.variables[self.linear_index].tolist(), self.linear.tolist())
        )
        out.quadratic = dict(
            zip(
                zip(
                    self.variables[self.quadratic_rows].tolist(),
                    self.variables[self.quadratic_cols].tolist(),
                ),
                self.quadratic.tolist(),
            )
        )
        return out

    def d_star(self) -> float:
        """:meth:`QuadraticObjective.d_star` of these terms."""
        return max(
            float(np.max(np.abs(self.linear), initial=0.0)) / 2.0,
            float(np.max(np.abs(self.quadratic), initial=0.0)),
        )

    def scaled(self, factor: float) -> "LogicalArrays":
        """:meth:`QuadraticObjective.scaled`: every value times
        ``factor``, added to an empty objective (a product of exactly
        0.0 drops its term)."""
        linear = self.linear * factor
        quadratic = self.quadratic * factor
        offset = 0.0 + factor * self.offset
        kept_linear, kept_quadratic = linear != 0.0, quadratic != 0.0
        if kept_linear.all() and kept_quadratic.all():
            return LogicalArrays(
                self.variables,
                self.linear_index,
                linear,
                self.quadratic_rows,
                self.quadratic_cols,
                quadratic,
                offset,
            )
        pairs = np.stack(
            [self.variables[self.quadratic_rows], self.variables[self.quadratic_cols]],
            axis=1,
        )
        return LogicalArrays.of_terms(
            self.variables[self.linear_index][kept_linear],
            linear[kept_linear],
            pairs[kept_quadratic].reshape(-1, 2),
            quadratic[kept_quadratic],
            offset,
        )

    def copy(self) -> "LogicalArrays":
        """These terms (the arrays are never written after building)."""
        return self

    def bias(self) -> np.ndarray:
        """Dense bias vector over :attr:`variables`."""
        out = np.zeros(len(self.variables))
        out[self.linear_index] = self.linear
        return out

    def matrix(self) -> np.ndarray:
        """Dense symmetric coupling matrix over :attr:`variables`."""
        n = len(self.variables)
        out = np.zeros((n, n))
        out[self.quadratic_rows, self.quadratic_cols] = self.quadratic
        out[self.quadratic_cols, self.quadratic_rows] = self.quadratic
        return out

    def energy(self, state: np.ndarray) -> float:
        """The objective at a 0/1 state over :attr:`variables`: the
        offset plus each term whose variables are all 1, added one at a
        time in dict order (``np.add.accumulate`` is sequential)."""
        on = np.asarray(state) != 0
        terms = np.concatenate(
            (
                [self.offset],
                self.linear[on[self.linear_index]],
                self.quadratic[on[self.quadratic_rows] & on[self.quadratic_cols]],
            )
        )
        return float(np.add.accumulate(terms)[-1])


class LinearExpr:
    """A degree-<=1 expression ``c0 + c1 * x`` used to build clause
    objectives symbolically (the ``H_l`` literal polynomials of Eq. 4)."""

    __slots__ = ("const", "terms")

    def __init__(self, const: float = 0.0, terms: Optional[Mapping[int, float]] = None):
        self.const = float(const)
        self.terms: Dict[int, float] = dict(terms or {})

    @classmethod
    def literal(cls, var: int, positive: bool) -> "LinearExpr":
        """``H_l``: ``x`` for a positive literal, ``1 - x`` for a negative."""
        if positive:
            return cls(0.0, {var: 1.0})
        return cls(1.0, {var: -1.0})

    @classmethod
    def variable(cls, var: int) -> "LinearExpr":
        """The bare variable ``x_var``."""
        return cls(0.0, {var: 1.0})

    def multiply_into(
        self, other: "LinearExpr", objective: QuadraticObjective, scale: float = 1.0
    ) -> None:
        """Accumulate ``scale * self * other`` into ``objective``."""
        objective.add_constant(scale * self.const * other.const)
        for var, coeff in self.terms.items():
            objective.add_linear(var, scale * coeff * other.const)
        for var, coeff in other.terms.items():
            objective.add_linear(var, scale * coeff * self.const)
        for u, cu in self.terms.items():
            for v, cv in other.terms.items():
                if u == v:
                    # x * x == x for binary variables.
                    objective.add_linear(u, scale * cu * cv)
                else:
                    objective.add_quadratic(u, v, scale * cu * cv)

    def add_into(self, objective: QuadraticObjective, scale: float = 1.0) -> None:
        """Accumulate ``scale * self`` into ``objective``."""
        objective.add_constant(scale * self.const)
        for var, coeff in self.terms.items():
            objective.add_linear(var, scale * coeff)
