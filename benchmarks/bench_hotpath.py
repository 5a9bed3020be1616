"""QA hot-path benchmark: native anneal sweeps + frontend cache.

Measures the hot path's legs against their reference implementations,
on the same workload shape the hybrid solver produces (a ~120-clause
residual embedded on the C16 lattice):

1. **Sweep kernel** — the batched sampler with its sweeps in the
   native kernel (``annealer/sweep.c``) against the same sampler with
   the kernel unloaded (the NumPy sweeps), at the hybrid solver's
   shape (1 read, 1 restart) and at 8 and 16 replicas: reads must be
   bit-identical and the kernel must load and not be slower.
2. **Frontend compile cache** — cold ``Frontend.prepare`` against a
   cache hit for the identical (queue, trail) pair.
3. **Full-solve acceptance** — a 100-variable random 3-SAT instance
   solved cache-on and cache-off must agree in status (and model
   validity), and the cached run must actually hit.

Run with ``make bench`` or::

    PYTHONPATH=src python -m benchmarks.bench_hotpath --quick

Writes ``BENCH_hotpath.json`` (see ``--output``) and exits non-zero if
the sweep kernel did not load, changed a read or is slower than the
NumPy sweeps, or if the acceptance checks fail.  Timings are medians
over several rounds; sampled bits and solver outcomes are fully
deterministic for a fixed ``--seed``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict, List
from unittest import mock

import numpy as np

from repro.annealer.device import AnnealerDevice
from repro.annealer.sampler import SamplerConfig, SimulatedAnnealingSampler
from repro.benchgen.random_ksat import random_3sat
from repro.cdcl import native
from repro.core.config import HyQSatConfig
from repro.core.frontend import Frontend
from repro.core.hyqsat import HyQSatSolver
from repro.topology.chimera import ChimeraGraph

#: Sweep-kernel shapes: the hybrid call (R = 1), then R = 8 and 16.
KERNEL_SHAPES = [(1, 1), (8, 1), (4, 4)]


def _numpy_sweeps():
    """The sampler's no-compiler path: the sweep kernel unloaded."""
    return mock.patch.object(native, "load_sweep_kernel", lambda: None)


def bench_sweep_kernel(problem, shapes, rounds: int, reps: int, seed: int) -> List[Dict]:
    """Native against NumPy sweeps, timed in alternating rounds."""
    results = []
    for num_reads, num_restarts in shapes:
        sampler = SimulatedAnnealingSampler(
            SamplerConfig(num_restarts=num_restarts), seed=seed
        )

        def run():
            return sampler.sample(problem, num_reads=num_reads)

        def timed():
            start = time.perf_counter()
            for _ in range(reps):
                run()
            return (time.perf_counter() - start) / reps

        native_reads = run()
        with _numpy_sweeps():
            numpy_reads = run()
        native_samples, numpy_samples = [], []
        for _ in range(rounds):
            native_samples.append(timed())
            with _numpy_sweeps():
                numpy_samples.append(timed())
        native_s = float(np.median(native_samples))
        numpy_s = float(np.median(numpy_samples))
        replicas = num_reads * num_restarts
        results.append(
            {
                "num_reads": num_reads,
                "num_restarts": num_restarts,
                "replicas": replicas,
                "identical": all(
                    np.array_equal(a, b) for a, b in zip(native_reads, numpy_reads)
                ),
                "native_ms": round(native_s * 1e3, 3),
                "numpy_ms": round(numpy_s * 1e3, 3),
                "speedup": round(numpy_s / native_s, 3),
            }
        )
    return results


def bench_frontend_cache(formula, hardware, queue, rounds: int) -> Dict:
    miss_samples, hit_samples = [], []
    for _ in range(rounds):
        frontend = Frontend(formula, hardware, chain_strength=2.0)
        start = time.perf_counter()
        frontend.prepare(queue)
        miss_samples.append(time.perf_counter() - start)
        start = time.perf_counter()
        frontend.prepare(queue)
        hit_samples.append(time.perf_counter() - start)
        assert frontend.cache_hits == 1 and frontend.cache_misses == 1
    miss = float(np.median(miss_samples))
    hit = float(np.median(hit_samples))
    return {
        "miss_ms": round(miss * 1e3, 3),
        "hit_ms": round(hit * 1e3, 4),
        "speedup": round(miss / hit, 1),
    }


def bench_solve_acceptance(seed: int) -> Dict:
    formula = random_3sat(100, 426, np.random.default_rng(1))
    outcomes = {}
    for cache_size in (64, 0):
        device = AnnealerDevice(ChimeraGraph(16, 16, 4), seed=seed)
        config = HyQSatConfig(seed=seed, frontend_cache_size=cache_size)
        start = time.perf_counter()
        result = HyQSatSolver(formula, device=device, config=config).solve()
        outcomes[cache_size] = (result, time.perf_counter() - start)
    on, on_seconds = outcomes[64]
    off, off_seconds = outcomes[0]
    model_valid = (not on.is_sat) or (
        on.model.satisfies(formula) and off.model.satisfies(formula)
    )
    return {
        "num_vars": 100,
        "num_clauses": 426,
        "status": on.status.value,
        "statuses_match": on.status is off.status,
        "model_valid": bool(model_valid),
        "qa_calls": on.hybrid.qa_calls,
        "cache_hits": on.hybrid.frontend_cache_hits,
        "cache_misses": on.hybrid.frontend_cache_misses,
        "hit_rate": round(on.hybrid.frontend_cache_hit_rate, 4),
        "cache_on_seconds": round(on_seconds, 3),
        "cache_off_seconds": round(off_seconds, 3),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="fewer timing rounds, < 60 s total"
    )
    parser.add_argument("--output", default="BENCH_hotpath.json")
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args(argv)

    # The hybrid solver's workload shape: a mid-size residual embedded
    # on the 2000Q-sized lattice.
    formula = random_3sat(60, 250, np.random.default_rng(7))
    hardware = ChimeraGraph(16, 16, 4)
    queue = list(range(120))
    problem = Frontend(formula, hardware, chain_strength=2.0).prepare(queue)
    problem = problem.request.compiled
    print(f"workload: 60 vars / 250 clauses, queue 120, {problem.num_qubits} qubits")

    rounds, reps = (3, 2) if args.quick else (5, 3)
    kernel_loaded = native.load_sweep_kernel() is not None
    kernel_rows = (
        bench_sweep_kernel(problem, KERNEL_SHAPES, rounds, reps, args.seed)
        if kernel_loaded
        else []
    )
    print(f"sweep kernel loaded: {kernel_loaded}")
    for row in kernel_rows:
        print(
            "sweep kernel reads={num_reads} restarts={num_restarts}: "
            "numpy {numpy_ms} ms, native {native_ms} ms, "
            "speedup {speedup}x, identical={identical}".format(**row)
        )

    cache_row = bench_frontend_cache(formula, hardware, queue, rounds)
    print(
        "frontend cache: miss {miss_ms} ms, hit {hit_ms} ms, "
        "speedup {speedup}x".format(**cache_row)
    )

    solve_row = bench_solve_acceptance(0)
    print(
        "solve 100v/426c: status={status} statuses_match={statuses_match} "
        "cache hits={cache_hits}/{qa_calls} calls "
        "(hit rate {hit_rate})".format(**solve_row)
    )

    kernel_identical = all(r["identical"] for r in kernel_rows)
    kernel_never_slower = all(r["speedup"] >= 1.0 for r in kernel_rows)
    passed = (
        kernel_loaded
        and kernel_identical
        and kernel_never_slower
        and solve_row["statuses_match"]
        and solve_row["model_valid"]
        and solve_row["cache_hits"] > 0
    )
    report = {
        "workload": {
            "num_vars": 60,
            "num_clauses": 250,
            "queue_clauses": 120,
            "num_qubits": problem.num_qubits,
            "hardware": "chimera-16x16x4",
        },
        "quick": args.quick,
        "seed": args.seed,
        "sweep_kernel": kernel_rows,
        "frontend_cache": cache_row,
        "solve_acceptance": solve_row,
        "kernel_loaded": kernel_loaded,
        "kernel_identical": kernel_identical,
        "kernel_never_slower": kernel_never_slower,
        "passed": passed,
    }
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.output}  passed={passed}")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
