"""The native Section IV-B embed against its Python loops.

``HyQSatEmbedder.embed`` runs the frontend library's ``embed_run`` when
:func:`repro.cdcl.native.load_frontend_kernel` returns the library, and
:meth:`HyQSatEmbedder._embed_loops` (the oracle and the no-compiler
path) when it returns ``None``.  Both must give the same arrays, the
same clause split and the same views: chains and coupler map in the
same dict order.

Inputs are the clause queues :mod:`tests.core.test_frontend_oracle`
builds from real CDCL trails (every benchgen family and uniform random
3-SAT at 170 variables) on its four lattices, plus hand-built queues
for the edge cases: clauses without an auxiliary, capacity reached at
the first clause, a requirement only the split pass places, and an
auxiliary dropped with its clause.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.benchgen import random_3sat
from repro.benchgen.suites import BENCHMARKS
from repro.cdcl import native
from repro.embedding.hyqsat_embed import HyQSatEmbedder
from repro.qubo.encoding import encode_formula
from repro.sat.cnf import Clause
from repro.topology.chimera import ChimeraGraph
from tests.core.test_frontend_oracle import HARDWARE, trail_queues

needs_frontend_kernel = pytest.mark.skipif(
    native.load_frontend_kernel() is None,
    reason="no C compiler for the frontend library",
)

_ARRAY_FIELDS = (
    "variables", "starts", "qubits", "order", "edges", "coupler_starts", "couplers",
)


def assert_embeds_alike(hardware, encoding):
    """Embed natively and through the loops; returns the native result."""
    embedder = HyQSatEmbedder(hardware)
    ours = embedder.embed(encoding)
    loops = embedder._embed_loops(encoding, time.perf_counter())
    for name in _ARRAY_FIELDS:
        mine, theirs = getattr(ours.arrays, name), getattr(loops.arrays, name)
        assert mine.dtype == np.int64, name
        assert mine.shape == theirs.shape and mine.tolist() == theirs.tolist(), name
    assert ours.embedded_clauses == loops.embedded_clauses
    assert ours.unembedded_clauses == loops.unembedded_clauses
    assert ours.success == loops.success
    assert list(ours.embedding.chains.items()) == list(loops.embedding.chains.items())
    assert list(ours.edge_couplers.items()) == list(loops.edge_couplers.items())
    assert ours.max_chain_length == loops.max_chain_length
    assert ours.avg_chain_length == loops.avg_chain_length
    return ours


def _queue_encodings(formula, queues):
    """The encodings the frontend embeds for ``(queue, trail)`` pairs
    (the coefficient adjustment changes only α, which the embed never
    reads)."""
    out = []
    for queue, trail in queues:
        assigned = np.zeros(formula.num_vars + 1, bool)
        assigned[list(trail)] = True
        clauses, _ = formula.table.conditioned(queue, assigned)
        if len(clauses):
            out.append(encode_formula(clauses, formula.num_vars))
    return out


@needs_frontend_kernel
@pytest.mark.parametrize("family", sorted(BENCHMARKS))
def test_family_queues_embed_alike(family):
    formula = BENCHMARKS[family].generate(0, seed=0)
    encodings = _queue_encodings(formula, trail_queues(formula, seed=1, snapshots=3))
    assert encodings
    for hardware in HARDWARE.values():
        for encoding in encodings:
            assert_embeds_alike(hardware, encoding)


@needs_frontend_kernel
@pytest.mark.parametrize("seed", range(2))
def test_uf170_queues_embed_alike(seed):
    formula = random_3sat(170, 724, np.random.default_rng(seed))
    encodings = _queue_encodings(formula, trail_queues(formula, seed=seed, snapshots=2))
    assert len(encodings) == 2
    for hardware in HARDWARE.values():
        for encoding in encodings:
            assert assert_embeds_alike(hardware, encoding).num_embedded > 0


@needs_frontend_kernel
def test_narrow_clauses_have_no_auxiliary():
    clauses = [Clause([1]), Clause([1, -2]), Clause([-2, 3]), Clause([3, 4, -5])]
    encoding = encode_formula(clauses, 5)
    result = assert_embeds_alike(ChimeraGraph(4, 4, 4), encoding)
    assert result.success
    # Variables 1..5 and the one auxiliary (6) of the 3-literal clause.
    assert result.arrays.variables.tolist() == [1, 2, 3, 4, 5, 6]
    assert sorted(result.edge_couplers) == [(1, 2), (2, 3), (3, 4), (3, 6), (4, 6), (5, 6)]


@needs_frontend_kernel
def test_capacity_reached_at_the_first_clause():
    # Two vertical lines cannot hold the first clause's three variables.
    encoding = encode_formula([Clause([1, 2, 3]), Clause([1, 2])], 3)
    result = assert_embeds_alike(ChimeraGraph(1, 1, 2), encoding)
    assert result.embedded_clauses == () and result.unembedded_clauses == (0, 1)
    assert result.arrays.variables.size == 0 and result.edge_couplers == {}


@needs_frontend_kernel
def test_requirement_placed_only_by_the_split_pass():
    clauses = [
        [3, 6], [-3, -4, -7], [1, 4, 6], [1, -5, 6], [-1, 2, 3], [1, 6], [4, -7], [1, 6],
    ]
    hardware = ChimeraGraph(1, 4, 2)
    encoding = encode_formula([Clause(c) for c in clauses], 7)
    result = assert_embeds_alike(hardware, encoding)
    # The first pass gives an owner one segment; a formula variable
    # whose chain spans two horizontal lines was split.
    horizontal = hardware.line_qubits[1]
    line_of = {q: h for h, line in enumerate(horizontal) for q in line}
    assert any(
        len({line_of[q] for q in chain if q in line_of}) > 1
        for var, chain in result.embedding.chains.items()
        if var <= 7
    )


@needs_frontend_kernel
def test_auxiliary_dropped_with_its_clause():
    clauses = [
        [-3, -6, -7], [1, -3, -8], [2, 7, -8], [-3, -6, -8], [2, 6, 8], [4, -7, -8],
    ]
    encoding = encode_formula([Clause(c) for c in clauses], 8)
    result = assert_embeds_alike(ChimeraGraph(2, 3, 2), encoding)
    assert result.embedded_clauses == (0, 1)
    # A realised edge of an auxiliary whose clause did not embed: its
    # couplers stay in the map, its chain leaves the embedding.
    dropped = {
        var
        for edge in result.edge_couplers
        for var in edge
        if var not in result.embedding
    }
    assert dropped and all(var > 8 for var in dropped)


def test_loops_answer_without_the_library(monkeypatch):
    encoding = encode_formula([Clause([1, 2, 3]), Clause([-1, 2])], 3)
    monkeypatch.setattr(native, "load_frontend_kernel", lambda: None)
    result = HyQSatEmbedder(ChimeraGraph(4, 4, 4)).embed(encoding)
    assert result.success and result.num_embedded == 2
    assert result.elapsed_seconds > 0.0
