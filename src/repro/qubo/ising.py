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

from typing import Dict, Mapping, Optional, Set, Tuple


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
