"""Logical-space post-processing (multi-qubit correction).

After chain breaks are resolved by majority vote, the unembedded state
can usually be improved by single-variable moves *in logical space* —
the "multi-qubit correction" / greedy-descent calibration family the
paper cites ([6], [58]).  Without it, a simulated (or real) annealer
reports energies dominated by chain-break artefacts rather than by the
satisfiability structure the HyQSAT backend interprets.

The descent is exact first-improvement local search on the logical
objective, visiting variables in a seeded random order until a local
minimum is reached (or the sweep cap hits).

:class:`LogicalDescender` builds the objective's dense arrays once, from
the compiled :class:`~repro.qubo.ising.LogicalArrays` (or from
an objective), so a device pays that conversion once per call, not per
read.  Each sweep's order is NumPy's ``rng.permutation`` and the first
field NumPy's ``matrix @ state`` (BLAS fixes its summation order); the
first-improvement pass runs in the native read-out library
(``annealer/sweep.c``) when it loads and in :func:`_first_improvement`
otherwise, bit for bit alike.  The
:func:`logical_greedy_descent` function remains as the one-shot
wrapper.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, List, Tuple, Union

import numpy as np

from repro.cdcl import native
from repro.qubo.ising import LogicalArrays, QuadraticObjective
from repro.sat.assignment import Assignment


def _first_improvement(
    matrix: np.ndarray, order: np.ndarray, state: np.ndarray, field: np.ndarray
) -> bool:
    """One pass over ``order``, flipping every variable whose flip
    lowers the energy (the no-compiler path; the native pass's
    oracle)."""
    improved = False
    for i in order:
        delta = (1.0 - 2.0 * state[i]) * field[i]
        if delta < -1e-12:
            sign = 1.0 - 2.0 * state[i]
            state[i] = 1.0 - state[i]
            field += sign * matrix[i]
            improved = True
    return improved


class LogicalDescender:
    """Greedy descent over one logical objective, arrays built once.

    The variable order, bias vector, and dense symmetric coupling
    matrix are precomputed at construction; :meth:`descend` then costs
    only the sweeps themselves.  Use one instance per
    :class:`~repro.annealer.device.AnnealRequest` (the device does)
    instead of re-deriving the arrays for every read.
    """

    def __init__(self, objective: Union[QuadraticObjective, LogicalArrays]):
        if not isinstance(objective, LogicalArrays):
            objective = LogicalArrays.from_objective(objective)
        self.terms = objective
        self.order: List[int] = objective.variables.tolist()
        self.num_variables = len(self.order)
        self.bias = objective.bias()
        self.matrix = objective.matrix()

    @cached_property
    def index(self) -> Dict[int, int]:
        """Variable -> position in :attr:`order`."""
        return {var: i for i, var in enumerate(self.order)}

    def state_of(self, assignment: Assignment) -> np.ndarray:
        """Dense 0/1 state of ``assignment`` over this objective's
        variables (absent variables are treated as False)."""
        state = np.zeros(self.num_variables)
        for var, i in self.index.items():
            if assignment.get(var, False):
                state[i] = 1.0
        return state

    def energy_of(self, state: np.ndarray) -> float:
        """Objective energy of a dense 0/1 state."""
        return float(
            self.terms.offset
            + state @ self.bias
            + state @ (self.matrix @ state) / 2.0
        )

    def energies(self, states: np.ndarray) -> np.ndarray:
        """Objective energies of an ``(R, n)`` batch of dense states."""
        states = np.asarray(states, dtype=float)
        quad = np.einsum("ij,ij->i", states, states @ self.matrix)
        return self.terms.offset + states @ self.bias + 0.5 * quad

    def descend_state(
        self, state: np.ndarray, rng: np.random.Generator, max_sweeps: int = 32
    ) -> None:
        """Descend the dense float64 0/1 ``state`` to a local minimum,
        in place."""
        n = self.num_variables
        if n == 0:
            return
        if state.dtype != np.float64 or not state.flags.c_contiguous:
            raise TypeError("the descent takes a C-contiguous float64 state")
        # Incremental local fields: flipping i changes every field by a
        # column of the coupling matrix, so a full sweep is O(n^2) worst
        # case instead of O(n^2) *per variable*.
        field = self.bias + self.matrix @ state
        kernel = native.load_sweep_kernel()
        for _ in range(max_sweeps):
            order = rng.permutation(n)
            if kernel is None:
                improved = _first_improvement(self.matrix, order, state, field)
            else:
                improved = kernel.logical_pass(
                    n, *[a.ctypes.data for a in (self.matrix, order, state, field)]
                )
            if not improved:
                break

    def descend(
        self,
        assignment: Assignment,
        rng: np.random.Generator,
        max_sweeps: int = 32,
    ) -> Tuple[Assignment, float]:
        """Descend ``assignment`` to a local minimum of the objective.

        Returns ``(improved_assignment, energy)``; the input assignment
        is not mutated.
        """
        if self.num_variables == 0:
            return assignment.copy(), self.terms.offset
        state = self.state_of(assignment)
        self.descend_state(state, rng, max_sweeps)
        out = assignment.copy()
        for var, value in zip(self.order, (state != 0).tolist()):
            out.assign(var, value)
        return out, self.terms.energy(state)


def logical_greedy_descent(
    objective: QuadraticObjective,
    assignment: Assignment,
    rng: np.random.Generator,
    max_sweeps: int = 32,
) -> Tuple[Assignment, float]:
    """Descend ``assignment`` to a local minimum of ``objective``.

    One-shot convenience over :class:`LogicalDescender`; returns
    ``(improved_assignment, energy)`` and leaves the input unmutated.
    """
    return LogicalDescender(objective).descend(assignment, rng, max_sweeps=max_sweeps)
