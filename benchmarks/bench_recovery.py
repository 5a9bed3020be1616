"""Durability overhead benchmark: what does the journal cost?

Runs one fixed job set (uniform random 3-SAT near the threshold,
seeded) through :func:`repro.service.run_batch` twice per pair — once
bare, once with the write-ahead journal (and checkpointing enabled on
every job) — and gates the median of the per-pair ratios.  The side
that runs first alternates from pair to pair, so a warm-up or a drift
in the host's speed loads both sides alike.  The durability tier's
contract is that crash safety is effectively free on the batch path:
the journal writes a handful of small fsync-batched records per job,
so its median overhead must stay within ``OVERHEAD_CEILING`` of the
bare run.

Also asserts the journaled run stays bit-identical to the bare run
(durability must never change answers) and reports the journal's own
record/fsync counters.

Writes ``BENCH_recovery.json`` and exits non-zero when the overhead
gate fails or any outcome diverged.

Run with ``make bench-recovery`` or::

    PYTHONPATH=src python -m benchmarks.bench_recovery --quick
"""

from __future__ import annotations

import argparse
import json
import os
import tempfile
import time
from typing import Dict, List

import numpy as np

from repro.benchgen.random_ksat import random_3sat
from repro.sat import to_dimacs
from repro.service import JobSpec, read_journal, run_batch

#: Max allowed journal overhead on the batch path (fraction of the
#: bare wall time).
OVERHEAD_CEILING = 0.05

#: Outcome fields compared for bit-identity.
SOLVER_FIELDS = (
    "status", "model", "iterations", "conflicts",
    "qa_calls", "qpu_time_us",
)


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
                checkpoint_every=20,
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
    parser.add_argument("--pairs", type=int, default=11,
                        help="bare/journaled timing pairs (median ratio)")
    parser.add_argument("--output", default="BENCH_recovery.json")
    args = parser.parse_args(argv)

    num_jobs = args.jobs or (8 if args.quick else 12)
    num_vars = args.vars or (20 if args.quick else 30)
    specs = build_specs(num_jobs, num_vars, args.seed)

    bare_times: List[float] = []
    journaled_times: List[float] = []
    views: Dict[str, List] = {}
    journal_stats: Dict = {}

    with tempfile.TemporaryDirectory() as tmp:

        def bare(pair: int) -> None:
            start = time.perf_counter()
            outcomes, _ = run_batch(specs)
            bare_times.append(time.perf_counter() - start)
            views["bare"] = [solver_view(o) for o in outcomes]

        def journaled(pair: int) -> None:
            journal = os.path.join(tmp, f"journal-{pair}.jsonl")
            ckpts = os.path.join(tmp, f"ckpts-{pair}")
            start = time.perf_counter()
            outcomes, _ = run_batch(
                specs, journal_path=journal, checkpoint_dir=ckpts
            )
            journaled_times.append(time.perf_counter() - start)
            views["journaled"] = [solver_view(o) for o in outcomes]
            records, _, torn = read_journal(journal)
            journal_stats.update(
                records=len(records),
                records_per_job=round(len(records) / num_jobs, 2),
                torn_records=torn,
                bytes=os.path.getsize(journal),
            )

        for pair in range(args.pairs):
            sides = (bare, journaled) if pair % 2 == 0 else (journaled, bare)
            for side in sides:
                side(pair)

    ratios = [j / b for j, b in zip(journaled_times, bare_times)]
    overhead = float(np.median(ratios)) - 1.0
    identical = views["bare"] == views["journaled"]

    report = {
        "workload": {
            "jobs": num_jobs,
            "vars_per_job": num_vars,
            "seed": args.seed,
            "pairs": args.pairs,
        },
        "bare": {"median_wall_s": round(float(np.median(bare_times)), 3),
                 "all_wall_s": [round(t, 3) for t in bare_times]},
        "journaled": {"median_wall_s": round(float(np.median(journaled_times)), 3),
                      "all_wall_s": [round(t, 3) for t in journaled_times],
                      **journal_stats},
        "pair_ratios": [round(r, 4) for r in ratios],
        "acceptance": {
            "overhead_ceiling": OVERHEAD_CEILING,
            "journal_overhead": round(overhead, 4),
            "bit_identical": identical,
            "pass": bool(identical and overhead <= OVERHEAD_CEILING),
        },
    }

    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=False)
        handle.write("\n")

    print(f"bare:      {np.median(bare_times):.3f}s median of {args.pairs}")
    print(
        f"journaled: {np.median(journaled_times):.3f}s "
        f"({overhead:+.1%} median pair overhead, "
        f"{journal_stats['records_per_job']} records/job), "
        f"bit_identical={identical}"
    )
    print(f"wrote {args.output}")
    if not report["acceptance"]["pass"]:
        print(
            f"FAIL: journal overhead must stay <= {OVERHEAD_CEILING:.0%} "
            "with identical results"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
