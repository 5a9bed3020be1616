"""Tests for majority-vote unembedding."""

import numpy as np

from repro.annealer.embedded import EmbeddedProblem
from repro.annealer.unembed import majority_vote_unembed


def _problem(chain_of_index):
    n = len(chain_of_index)
    return EmbeddedProblem.from_couplings(
        qubits=tuple(range(n)),
        linear=np.zeros(n),
        couplings=(),
        chain_of_index=tuple(chain_of_index),
        offset=0.0,
    )


def test_unanimous_chains():
    problem = _problem([1, 1, 2, 2])
    assignment, breaks = majority_vote_unembed(
        problem, np.array([1, 1, 0, 0]), np.random.default_rng(0)
    )
    assert assignment[1] is True
    assert assignment[2] is False
    assert breaks == 0.0


def test_majority_wins():
    problem = _problem([1, 1, 1])
    assignment, breaks = majority_vote_unembed(
        problem, np.array([1, 1, 0]), np.random.default_rng(0)
    )
    assert assignment[1] is True
    assert breaks == 1.0


def test_tie_broken_by_rng_deterministically():
    problem = _problem([1, 1])
    bits = np.array([1, 0])
    a, _ = majority_vote_unembed(problem, bits, np.random.default_rng(3))
    b, _ = majority_vote_unembed(problem, bits, np.random.default_rng(3))
    assert a == b


def test_break_fraction_counts_broken_chains():
    problem = _problem([1, 1, 2, 2, 3])
    bits = np.array([1, 0, 0, 0, 1])  # chain 1 broken, 2 intact, 3 single
    _, breaks = majority_vote_unembed(problem, bits, np.random.default_rng(0))
    assert breaks == 1 / 3


def test_empty_problem():
    problem = _problem([])
    assignment, breaks = majority_vote_unembed(
        problem, np.zeros(0), np.random.default_rng(0)
    )
    assert len(assignment) == 0
    assert breaks == 0.0


def test_every_chain_broken():
    """All-broken reads still yield a full assignment, fraction 1.0."""
    problem = _problem([1, 1, 1, 2, 2, 2])
    bits = np.array([1, 0, 1, 0, 1, 0])  # both chains disagree internally
    assignment, breaks = majority_vote_unembed(
        problem, bits, np.random.default_rng(0)
    )
    assert breaks == 1.0
    assert assignment[1] is True  # 2-of-3 majority
    assert assignment[2] is False  # 1-of-3 minority loses
    assert len(assignment) == 2


def test_exact_tie_votes_cover_both_outcomes():
    """A 2-2 tie is an RNG coin flip: both values must be reachable,
    and the chain always counts as broken."""
    problem = _problem([7, 7, 7, 7])
    bits = np.array([1, 1, 0, 0])
    seen = set()
    for seed in range(32):
        assignment, breaks = majority_vote_unembed(
            problem, bits, np.random.default_rng(seed)
        )
        assert breaks == 1.0
        seen.add(assignment[7])
    assert seen == {True, False}


def test_single_qubit_chains_under_heavy_readout_flip():
    """A single-qubit chain can never 'break': under a 50% readout
    flip it still maps each read verbatim with break fraction 0."""
    rng = np.random.default_rng(11)
    problem = _problem([1, 2, 3, 4, 5, 6, 7, 8])
    for _ in range(20):
        bits = (rng.random(8) < 0.5).astype(np.int8)  # 50% flips of all-0
        assignment, breaks = majority_vote_unembed(
            problem, bits, np.random.default_rng(0)
        )
        assert breaks == 0.0
        for index, var in enumerate(problem.chain_of_index):
            assert assignment[var] is bool(bits[index])
