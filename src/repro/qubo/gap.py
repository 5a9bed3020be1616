"""Exhaustive energy evaluation and the Section IV-C energy gap.

The *energy gap* is "the minimum output of the objective function when
the clause (set) is unsatisfiable": the lowest energy over formula
assignments that violate at least one encoded clause, with auxiliary
variables chosen optimally.  A wider gap means noise is less likely to
drag the annealer into a state that misreports satisfiability.

Auxiliary variables appear only in the sub-objectives of their own
clause, so the inner minimisation over A decomposes per clause; the
outer enumeration over formula assignments is exponential and these
helpers are intentionally restricted to small instances (tests,
Figure 15 sweeps).
"""

from __future__ import annotations

from itertools import product
from typing import Dict, Iterator, List, Optional, Tuple

from repro.qubo.encoding import FormulaEncoding
from repro.sat.assignment import Assignment

_MAX_EXHAUSTIVE_VARS = 22


def _assignments(encoding: FormulaEncoding) -> Iterator[Dict[int, int]]:
    """Every 0/1 assignment of the encoding's formula variables.

    Those are the objective's and the clauses' variables together:
    coefficient cancellation (e.g. encoding both (x) and (¬x)) can
    erase a variable from the summed objective while the clauses
    still mention it.
    """
    mentioned = {
        v for v in encoding.objective.variables if v <= encoding.num_formula_vars
    }
    for clause in encoding.clauses:
        mentioned.update(clause.variables)
    variables = sorted(mentioned)
    if len(variables) > _MAX_EXHAUSTIVE_VARS:
        raise ValueError(
            f"exhaustive evaluation limited to {_MAX_EXHAUSTIVE_VARS} formula "
            f"variables, got {len(variables)}"
        )
    for bits in product((0, 1), repeat=len(variables)):
        yield dict(zip(variables, bits))


def min_energy_given_x(
    encoding: FormulaEncoding, x_assignment: Dict[int, int]
) -> Tuple[float, Dict[int, int]]:
    """Minimum energy over auxiliary variables for fixed formula bits.

    Returns ``(energy, full_assignment)`` where the full assignment
    includes the optimal auxiliary values.  Each auxiliary variable
    occurs in exactly one clause's sub-objectives, so each is
    optimised independently.
    """
    full: Dict[int, int] = dict(x_assignment)
    by_aux: Dict[Optional[int], List] = {}
    for sub in encoding.sub_objectives:
        by_aux.setdefault(encoding.aux_of_clause[sub.clause_index], []).append(sub)

    energy = 0.0
    for aux, subs in by_aux.items():
        if aux is None:
            for sub in subs:
                energy += sub.coefficient * sub.objective.energy(full)
            continue
        best_value, best_energy = 0, None
        for candidate in (0, 1):
            full[aux] = candidate
            local = sum(
                sub.coefficient * sub.objective.energy(full) for sub in subs
            )
            if best_energy is None or local < best_energy:
                best_energy, best_value = local, candidate
        full[aux] = best_value
        energy += best_energy
    return energy, full


def min_energy(encoding: FormulaEncoding) -> Tuple[float, Assignment]:
    """Global minimum of the encoding over all variables.

    For a correct Eq. 5 encoding this is 0 exactly when the encoded
    clause set is satisfiable.
    """
    best: Optional[Tuple[float, Dict[int, int]]] = None
    for x in _assignments(encoding):
        energy, full = min_energy_given_x(encoding, x)
        if best is None or energy < best[0]:
            best = (energy, full)
    assert best is not None, "encoding has no formula variables"
    return best[0], Assignment({v: bool(b) for v, b in best[1].items()})


def energy_gap(encoding: FormulaEncoding) -> float:
    """Minimum energy over formula assignments violating some clause.

    Returns ``inf`` if every assignment satisfies all encoded clauses
    (no unsatisfying region exists to measure).
    """
    gap = float("inf")
    for x in _assignments(encoding):
        assignment = Assignment({v: bool(b) for v, b in x.items()})
        if not all(assignment.satisfies_clause(c) for c in encoding.clauses):
            gap = min(gap, min_energy_given_x(encoding, x)[0])
    return gap
