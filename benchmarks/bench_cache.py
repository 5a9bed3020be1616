"""Cache benchmark: cached-result bit-identity + warm-cache throughput.

Two gates over one seeded catalog (uniform random 3-SAT near the
threshold):

1. **Bit-identity** — replaying the catalog through
   :func:`~repro.service.service.run_batch` against the cache DB the
   fresh pass populated must return outcomes whose solver fields
   match the fresh solves exactly, with every job served from the
   cache and zero modelled QPU time billed on the second pass.
2. **Warm-cache throughput** — a zipf-distributed stream of one
   million jobs drawn from the catalog replays through
   :func:`~repro.gateway.des.simulate_fleet_makespan` twice: cache
   off (every draw pays its measured fresh profile) and cache on
   (only the first occurrence of each instance pays; repeats pay the
   measured cache-lookup cost and zero QPU time).  Modelled
   throughput with the cache on must be at least
   ``CACHE_SPEEDUP_FLOOR``x the cache-off deployment.

Writes ``BENCH_cache.json`` and exits non-zero if either gate fails.
Run with ``make bench-cache`` or::

    PYTHONPATH=src python -m benchmarks.bench_cache --quick
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from repro.cache import PersistentResultStore
from repro.gateway.des import QpuLane, simulate_fleet_makespan
from repro.benchgen.random_ksat import random_3sat
from repro.sat import fingerprint, to_dimacs
from repro.service import JobSpec
from repro.service.service import run_batch

#: Required modelled throughput gain, cache on vs cache off.
CACHE_SPEEDUP_FLOOR = 3.0

#: Outcome fields compared for bit-identity (as bench_gateway.py).
SOLVER_FIELDS = (
    "status", "model", "iterations", "conflicts",
    "qa_calls", "qpu_time_us",
)

#: Host workers / fleet devices in the modelled deployment.
WORKERS = 4
DEVICES = 2

#: Zipf exponent of the replay stream (catalog rank popularity).
ZIPF_EXPONENT = 1.1


def build_specs(num_instances: int, num_vars: int, seed: int) -> List[JobSpec]:
    clauses = int(round(num_vars * 4.3))
    specs = []
    for index in range(num_instances):
        formula = random_3sat(
            num_vars, clauses, np.random.default_rng(seed + index)
        )
        specs.append(
            JobSpec(
                job_id=f"cat{index:03d}",
                dimacs=to_dimacs(formula),
                seed=index,
            )
        )
    return specs


def solver_view(outcome) -> Dict:
    return {name: getattr(outcome, name) for name in SOLVER_FIELDS}


def measure_hit_cost(db_path: str, specs: List[JobSpec]) -> float:
    """Mean wall seconds of one exact cache lookup on the populated DB."""
    with PersistentResultStore(db_path) as store:
        timings = []
        for spec in specs:
            formula = spec.load_formula()
            key = spec.solve_key(fingerprint(formula))
            start = time.perf_counter()
            hit = store.lookup(key, spec, formula)
            timings.append(time.perf_counter() - start)
            if hit is None:
                raise RuntimeError(f"catalog miss for {spec.job_id}")
    return sum(timings) / len(timings)


def zipf_stream(
    num_jobs: int, catalog_size: int, seed: int
) -> np.ndarray:
    """Zipf-distributed catalog indices (rank k drawn with p ~ 1/k^s)."""
    ranks = np.arange(1, catalog_size + 1, dtype=float)
    weights = ranks ** -ZIPF_EXPONENT
    rng = np.random.default_rng(seed)
    return rng.choice(catalog_size, size=num_jobs, p=weights / weights.sum())


def replay_makespans(
    stream: np.ndarray,
    fresh_profiles: List[Tuple[float, int, float]],
    hit_cpu_s: float,
) -> Tuple[float, float]:
    """Modelled (cache_off, cache_on) makespans of the stream."""
    lanes = [QpuLane(f"qpu{i}") for i in range(DEVICES)]
    off_profiles = [fresh_profiles[index] for index in stream]
    off_s = simulate_fleet_makespan(off_profiles, workers=WORKERS, lanes=lanes)
    seen = set()
    on_profiles = []
    for index in stream:
        if index in seen:
            on_profiles.append((hit_cpu_s, 0, 0.0))
        else:
            seen.add(index)
            on_profiles.append(fresh_profiles[index])
    on_s = simulate_fleet_makespan(on_profiles, workers=WORKERS, lanes=lanes)
    return off_s, on_s


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="6 instances, 50k-job stream"
    )
    parser.add_argument("--instances", type=int, default=None)
    parser.add_argument("--vars", type=int, default=None)
    parser.add_argument("--jobs", type=int, default=None, help="stream length")
    parser.add_argument("--seed", type=int, default=400)
    parser.add_argument("--output", default="BENCH_cache.json")
    args = parser.parse_args(argv)

    num_instances = args.instances or (6 if args.quick else 24)
    num_vars = args.vars or 20
    stream_jobs = args.jobs or (50_000 if args.quick else 1_000_000)
    specs = build_specs(num_instances, num_vars, args.seed)

    with tempfile.TemporaryDirectory() as tmp:
        db_path = str(Path(tmp) / "bench_cache.sqlite")

        # -- fresh pass: populate the cache -----------------------------
        start = time.perf_counter()
        fresh, fresh_stats = run_batch(
            specs, workers=WORKERS, cache_path=db_path
        )
        fresh_wall_s = time.perf_counter() - start
        if fresh_stats.cache_hits:
            print("FAIL: fresh pass hit the cache", file=sys.stderr)
            return 1

        # -- cached pass: same specs, same DB ---------------------------
        start = time.perf_counter()
        cached, cached_stats = run_batch(
            specs, workers=WORKERS, cache_path=db_path
        )
        cached_wall_s = time.perf_counter() - start

        identical = all(
            solver_view(a) == solver_view(b) for a, b in zip(fresh, cached)
        )
        all_cached = all(o.cached for o in cached)
        no_qpu_billed = cached_stats.qpu_grants == 0

        # -- zipf stream on the modelled clock --------------------------
        hit_cpu_s = measure_hit_cost(db_path, specs)

    fresh_profiles = [
        (o.run_seconds or 0.0, o.qa_calls or 0, o.qpu_time_us or 0.0)
        for o in fresh
    ]
    stream = zipf_stream(stream_jobs, num_instances, args.seed)
    off_s, on_s = replay_makespans(stream, fresh_profiles, hit_cpu_s)
    speedup = off_s / on_s if on_s else float("inf")

    report = {
        "workload": {
            "catalog_instances": num_instances,
            "vars_per_instance": num_vars,
            "stream_jobs": stream_jobs,
            "zipf_exponent": ZIPF_EXPONENT,
            "seed": args.seed,
            "statuses": sorted({o.status for o in fresh if o.status}),
        },
        "catalog": {
            "fresh_wall_s": round(fresh_wall_s, 3),
            "cached_wall_s": round(cached_wall_s, 3),
            "cache_hits": cached_stats.cache_hits,
            "cache_misses": cached_stats.cache_misses,
            "mean_hit_lookup_s": round(hit_cpu_s, 6),
            "mean_fresh_cpu_s": round(
                sum(p[0] for p in fresh_profiles) / num_instances, 4
            ),
        },
        "modelled_replay": {
            "workers": WORKERS,
            "devices": DEVICES,
            "cache_off_makespan_s": round(off_s, 3),
            "cache_on_makespan_s": round(on_s, 3),
            "cache_off_jobs_per_s": round(stream_jobs / off_s, 3),
            "cache_on_jobs_per_s": round(stream_jobs / on_s, 3),
        },
        "acceptance": {
            "cache_speedup_floor": CACHE_SPEEDUP_FLOOR,
            "speedup_cache_on": round(speedup, 3),
            "bit_identical_all": identical,
            "all_served_from_cache": all_cached,
            "no_qpu_billed_on_hits": no_qpu_billed,
            "pass": bool(
                identical
                and all_cached
                and no_qpu_billed
                and speedup >= CACHE_SPEEDUP_FLOOR
            ),
        },
    }

    Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report["acceptance"], indent=2))
    return 0 if report["acceptance"]["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
