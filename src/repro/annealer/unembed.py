"""Chain-break resolution: majority-vote unembedding.

Each logical variable is read out from its chain; if the chain's
qubits disagree (a *chain break*), the majority value wins, with ties
broken by a supplied RNG — the standard D-Wave post-processing the
paper's related-work section cites ([62], [63]).

Chains are contiguous index runs of the compiled problem, so a read's
votes are one ``np.add.reduceat``, and its ties take one
``rng.integers(0, 2, size=k)`` in chain order (the values, and the
generator state, of ``k`` scalar draws).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.annealer.embedded import EmbeddedProblem
from repro.sat.assignment import Assignment


def chain_vote(
    problem: EmbeddedProblem,
    bits: np.ndarray,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, float]:
    """Each chain's majority value (bool, in chain order) and the share
    of chains whose qubits disagreed."""
    starts = problem.chain_starts
    if not len(starts):
        return np.zeros(0, dtype=bool), 0.0
    ones = np.add.reduceat(np.asarray(bits, dtype=np.int64), starts)
    sizes = problem.chain_sizes
    twice = ones + ones
    values = twice > sizes
    ties = np.flatnonzero(twice == sizes)
    if ties.size:
        values[ties] = rng.integers(0, 2, size=ties.size) != 0
    broken = np.count_nonzero((ones > 0) & (ones < sizes))
    return values, broken / len(starts)


def majority_vote_unembed(
    problem: EmbeddedProblem,
    bits: np.ndarray,
    rng: np.random.Generator,
) -> Tuple[Assignment, float]:
    """Collapse a physical read into a logical assignment.

    Returns ``(assignment, chain_break_fraction)`` where the fraction
    is the share of logical variables whose chain disagreed.
    """
    values, fraction = chain_vote(problem, bits, rng)
    variables = problem.chain_variables.tolist()
    return Assignment(dict(zip(variables, values.tolist()))), fraction
