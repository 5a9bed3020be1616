"""One hardware graph per lattice per process.

:func:`build_hardware` hands every caller on a lattice the same graph,
so its lazily built tables (adjacency, coupler array, line qubits) are
paid for once.  The stress test races many threads through their first
compile on one fresh graph: each must compile what a lone thread does.
"""

from __future__ import annotations

import os
import sys
import threading

import numpy as np
import pytest

from repro.annealer import AnnealerDevice
from repro.benchgen.random_ksat import random_3sat
from repro.core.frontend import Frontend
from repro.topology import TOPOLOGIES, build_hardware


def test_one_graph_per_lattice():
    assert build_hardware("chimera", 6) is build_hardware("chimera", 6)
    assert build_hardware("pegasus", 6) is not build_hardware("chimera", 6)
    assert build_hardware("chimera", 6, shore=2) is not build_hardware("chimera", 6)
    assert AnnealerDevice().hardware is build_hardware("chimera", 16)
    assert AnnealerDevice(seed=3).hardware is AnnealerDevice().hardware


def compile_queue(formula, hardware):
    """The compiled problem and embedded clauses of one queue."""
    frontend = Frontend(formula, hardware, chain_strength=1.0, cache_size=0)
    result = frontend.prepare(list(range(40)))
    problem = result.request.compiled
    return (
        result.formula_clauses,
        problem.qubits,
        problem.linear.tobytes(),
        problem.couplings,
        problem.chain_edges,
        problem.chain_of_index,
        problem.offset,
    )


@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
def test_racing_first_compiles_on_a_fresh_shared_graph(topology):
    formula = random_3sat(30, 128, np.random.default_rng(5))
    expected = compile_queue(formula, TOPOLOGIES[topology](8, 8, 4))
    shared = TOPOLOGIES[topology](8, 8, 4)
    threads = 2 * (os.cpu_count() or 1) + 2
    start = threading.Barrier(threads)
    results, errors = [], []

    def worker():
        try:
            start.wait()
            for _ in range(3):
                results.append(compile_queue(formula, shared))
        except BaseException as exc:  # noqa: BLE001 — reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pool = [threading.Thread(target=worker, daemon=True) for _ in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in pool), "compiles hung"
    assert not errors, errors
    assert len(results) == 3 * threads
    assert all(result == expected for result in results)
