"""Solver-service throughput benchmark: jobs/sec vs worker count.

Runs one fixed job set (uniform random 3-SAT near the threshold,
seeded) three ways:

1. **Serial baseline** — each job solo through
   :func:`repro.service.jobs.run_job`, exactly what a ``hyqsat solve``
   loop would do; its per-job profile ``(cpu_seconds, qa_calls,
   qpu_time_us)`` feeds the service-clock model.
2. **Service runs** — the same specs through
   :func:`repro.service.run_batch` at 1/2/4 thread workers, asserting
   every outcome stays **bit-identical** to the serial baseline (the
   service's core contract; a throughput number that changed the
   results would be meaningless).
3. **Modelled service clock** — wall-clock parallel speedup is not
   measurable on a single-core container, so throughput is reported on
   the modelled clock: :func:`repro.gateway.des.simulate_fleet_makespan`
   replays the measured profiles through *k* worker lanes sharing one
   unit-speed QPU lane (the repo's modelled-time convention — measured
   CPU components, modelled device time; see docs/SERVICE.md).

Writes ``BENCH_service.json`` and exits non-zero unless modelled
throughput at 4 workers is at least ``SPEEDUP_FLOOR``× the serial
baseline and every service run was bit-identical.

Run with ``make bench-service`` or::

    PYTHONPATH=src python -m benchmarks.bench_service --quick
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict, List

import numpy as np

from repro.benchgen.random_ksat import random_3sat
from repro.gateway.des import QpuLane, simulate_fleet_makespan
from repro.sat import to_dimacs
from repro.service import JobSpec, run_batch, run_job

#: Required modelled speedup at 4 workers over the serial baseline.
SPEEDUP_FLOOR = 2.0

#: Outcome fields compared for bit-identity.
SOLVER_FIELDS = (
    "status", "model", "iterations", "conflicts",
    "qa_calls", "qpu_time_us",
)

WORKER_COUNTS = (1, 2, 4)

#: The service's one shared QPU, as a unit-speed DES lane.
QPU = [QpuLane("qpu")]


def build_specs(num_jobs: int, num_vars: int, seed: int) -> List[JobSpec]:
    clauses = int(round(num_vars * 4.3))
    specs = []
    for index in range(num_jobs):
        formula = random_3sat(
            num_vars, clauses, np.random.default_rng(seed + index)
        )
        specs.append(
            JobSpec(
                job_id=f"job{index:02d}",
                dimacs=to_dimacs(formula),
                seed=index,
            )
        )
    return specs


def solver_view(outcome) -> Dict:
    return {name: getattr(outcome, name) for name in SOLVER_FIELDS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="8 jobs of 20 vars")
    parser.add_argument("--jobs", type=int, default=None, help="job count")
    parser.add_argument("--vars", type=int, default=None, help="variables per job")
    parser.add_argument("--seed", type=int, default=100)
    parser.add_argument("--output", default="BENCH_service.json")
    args = parser.parse_args(argv)

    num_jobs = args.jobs or (8 if args.quick else 12)
    num_vars = args.vars or (20 if args.quick else 30)
    specs = build_specs(num_jobs, num_vars, args.seed)

    # -- serial baseline ------------------------------------------------
    serial_start = time.perf_counter()
    baseline = {spec.job_id: run_job(spec) for spec in specs}
    serial_wall_s = time.perf_counter() - serial_start
    profiles = [
        (o.run_seconds, o.qa_calls, o.qpu_time_us) for o in baseline.values()
    ]
    serial_makespan_s = simulate_fleet_makespan(profiles, 1, QPU)
    serial_jobs_per_s = num_jobs / serial_makespan_s

    report = {
        "workload": {
            "jobs": num_jobs,
            "vars_per_job": num_vars,
            "seed": args.seed,
            "statuses": sorted(
                {o.status for o in baseline.values() if o.status}
            ),
        },
        "serial": {
            "wall_seconds": round(serial_wall_s, 3),
            "modelled_makespan_s": round(serial_makespan_s, 3),
            "jobs_per_s": round(serial_jobs_per_s, 3),
            "qpu_time_us_total": round(
                sum(o.qpu_time_us for o in baseline.values()), 1
            ),
        },
        "service": [],
    }

    # -- service runs at each worker count ------------------------------
    all_identical = True
    for workers in WORKER_COUNTS:
        start = time.perf_counter()
        outcomes, stats = run_batch(specs, workers=workers, pool_mode="thread")
        wall_s = time.perf_counter() - start
        identical = all(
            solver_view(o) == solver_view(baseline[o.job_id])
            for o in outcomes
        )
        all_identical = all_identical and identical
        makespan_s = simulate_fleet_makespan(profiles, workers, QPU)
        report["service"].append(
            {
                "workers": workers,
                "bit_identical": identical,
                "measured_wall_s": round(wall_s, 3),
                "modelled_makespan_s": round(makespan_s, 3),
                "jobs_per_s": round(num_jobs / makespan_s, 3),
                "speedup_vs_serial": round(serial_makespan_s / makespan_s, 3),
                "qpu_grants": stats.qpu_grants,
                "qpu_busy_us": round(stats.qpu_busy_us, 1),
            }
        )

    at_4 = next(r for r in report["service"] if r["workers"] == 4)
    report["acceptance"] = {
        "speedup_floor": SPEEDUP_FLOOR,
        "speedup_at_4_workers": at_4["speedup_vs_serial"],
        "bit_identical_all": all_identical,
        "pass": bool(
            all_identical and at_4["speedup_vs_serial"] >= SPEEDUP_FLOOR
        ),
    }

    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=False)
        handle.write("\n")

    print(f"serial: {serial_jobs_per_s:.2f} jobs/s (modelled)")
    for row in report["service"]:
        print(
            f"{row['workers']} worker(s): {row['jobs_per_s']:.2f} jobs/s "
            f"modelled ({row['speedup_vs_serial']:.2f}x), "
            f"bit_identical={row['bit_identical']}"
        )
    print(f"wrote {args.output}")
    if not report["acceptance"]["pass"]:
        print(
            f"FAIL: need >= {SPEEDUP_FLOOR}x at 4 workers with identical "
            "results",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
