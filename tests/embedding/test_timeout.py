"""Regression tests for the typed EmbeddingTimeout."""

import pytest

from repro.embedding import (
    EmbeddingTimeout,
    MinorminerLikeEmbedder,
    PlaceAndRouteEmbedder,
)
from repro.qubo.encoding import encode_formula
from repro.sat.cnf import Clause


def _edges(num_clauses=6):
    clauses = [
        Clause([i + 1, i + 2, i + 3]) for i in range(num_clauses)
    ]
    encoding = encode_formula(clauses, num_clauses + 3)
    return (
        list(encoding.objective.quadratic.keys()),
        encoding.objective.variables,
    )


def test_minorminer_raises_typed_timeout(small_hardware):
    edges, variables = _edges()
    embedder = MinorminerLikeEmbedder(
        small_hardware, max_passes=10, timeout_seconds=0.0, seed=0
    )
    with pytest.raises(EmbeddingTimeout) as info:
        embedder.embed(edges, variables)
    timeout = info.value
    assert isinstance(timeout, TimeoutError)
    assert timeout.passes >= 0
    assert timeout.elapsed_seconds > 0.0
    assert "budget" in str(timeout)


def test_place_route_raises_typed_timeout(small_hardware):
    edges, variables = _edges()
    embedder = PlaceAndRouteEmbedder(
        small_hardware, timeout_seconds=0.0, seed=0
    )
    with pytest.raises(EmbeddingTimeout) as info:
        embedder.embed(edges, variables)
    assert info.value.passes == 0
    assert info.value.elapsed_seconds > 0.0


def test_generous_budget_does_not_raise(small_hardware):
    edges, variables = _edges(3)
    result = MinorminerLikeEmbedder(
        small_hardware, max_passes=10, timeout_seconds=60.0, seed=0
    ).embed(edges, variables)
    assert result.success

