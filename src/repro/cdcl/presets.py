"""Solver presets mirroring the paper's classical baselines.

The paper compares against MiniSAT 2.2 (VSIDS) and Kissat-MAB
(CHB/VSIDS hybrid chosen by a multi-armed bandit; we model its CHB arm,
which is what distinguishes it from MiniSAT).  These factories return a
configured solver for a formula; ``engine`` selects the implementation
(see :mod:`repro.cdcl.engine`) — both engines are bit-identical, so the
choice only affects speed.
"""

from __future__ import annotations

from typing import Optional

from repro.cdcl.engine import DEFAULT_ENGINE, create_solver
from repro.cdcl.heuristics import ChbHeuristic, VsidsHeuristic
from repro.cdcl.solver import SolverConfig
from repro.sat.cnf import CNF


def minisat_solver(
    formula: CNF,
    seed: int = 0,
    max_conflicts: Optional[int] = None,
    max_iterations: Optional[int] = None,
    engine: str = DEFAULT_ENGINE,
):
    """A MiniSAT-2.2-flavoured solver: VSIDS, Luby restarts (base 100),
    phase saving with default-false polarity."""
    config = SolverConfig(
        heuristic_factory=lambda: VsidsHeuristic(decay=0.95),
        restart_strategy="luby",
        luby_base=100,
        phase_saving=True,
        default_phase=False,
        seed=seed,
        max_conflicts=max_conflicts,
        max_iterations=max_iterations,
    )
    return create_solver(formula, engine=engine, config=config)


def kissat_solver(
    formula: CNF,
    seed: int = 0,
    max_conflicts: Optional[int] = None,
    max_iterations: Optional[int] = None,
    engine: str = DEFAULT_ENGINE,
):
    """A Kissat-MAB-flavoured solver: CHB branching with more aggressive
    (shorter base) Luby restarts."""
    config = SolverConfig(
        heuristic_factory=lambda: ChbHeuristic(),
        restart_strategy="luby",
        luby_base=50,
        phase_saving=True,
        default_phase=True,
        seed=seed,
        max_conflicts=max_conflicts,
        max_iterations=max_iterations,
    )
    return create_solver(formula, engine=engine, config=config)
