"""A hybrid solve builds no dict views on the QA hot path.

With the frontend library loaded, ``Frontend.prepare`` and
``AnnealerDevice.run`` work on arrays only: the embedder's chain and
coupler arrays and the objective's :class:`LogicalArrays`.  The
:class:`QuadraticObjective`, the :class:`Embedding` and the coupler
dict are views built only when something reads them, which nothing on
that path does.  The control run, with the library blocked, shows the
counters see the Python embedder's views.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property

import numpy as np
import pytest

from repro.annealer.device import AnnealerDevice
from repro.benchgen import random_3sat
from repro.cdcl import native
from repro.core.frontend import Frontend
from repro.core.hyqsat import HyQSatSolver
from repro.core.config import HyQSatConfig
from repro.embedding.base import Embedding, EmbeddingArrays
from repro.qubo.encoding import encode_formula
from repro.qubo.ising import QuadraticObjective
from repro.sat.cnf import Clause


def _count_views(monkeypatch):
    """Count the views built inside ``Frontend.prepare`` and
    ``AnnealerDevice.run``."""
    counts = Counter()
    depth = [0]

    def counting(name, build):
        def counted(*args, **kwargs):
            if depth[0]:
                counts[name] += 1
            return build(*args, **kwargs)

        return counted

    def inside(method):
        def wrapped(*args, **kwargs):
            depth[0] += 1
            try:
                return method(*args, **kwargs)
            finally:
                depth[0] -= 1

        return wrapped

    for cls in (QuadraticObjective, Embedding):
        monkeypatch.setattr(cls, "__init__", counting(cls.__name__, cls.__init__))
    view = cached_property(
        counting("edge_couplers", EmbeddingArrays.edge_couplers.func)
    )
    view.__set_name__(EmbeddingArrays, "edge_couplers")
    monkeypatch.setattr(EmbeddingArrays, "edge_couplers", view)
    monkeypatch.setattr(Frontend, "prepare", inside(Frontend.prepare))
    monkeypatch.setattr(AnnealerDevice, "run", inside(AnnealerDevice.run))
    return counts


@pytest.mark.parametrize("library", ["loaded", "blocked"])
def test_uf170_solve_builds_no_views(library, monkeypatch):
    if library == "blocked":
        monkeypatch.setattr(native, "load_frontend_kernel", lambda: None)
    elif native.load_frontend_kernel() is None:
        pytest.skip("no C compiler for the frontend library")
    # The per-shape term table is built once per process, from dicts.
    encode_formula([Clause([1, 2, 3])], 3)
    formula = random_3sat(170, 724, np.random.default_rng(7))
    counts = _count_views(monkeypatch)
    result = HyQSatSolver(
        formula, device=AnnealerDevice(seed=7), config=HyQSatConfig(seed=7)
    ).solve()
    assert result.hybrid.qa_calls > 0
    if library == "loaded":
        assert counts == Counter()
    else:
        # The loops build an Embedding and a coupler dict per miss.
        assert counts["Embedding"] >= result.hybrid.frontend_cache_misses > 0
