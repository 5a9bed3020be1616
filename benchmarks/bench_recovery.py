"""Durability overhead benchmark: what does the journal cost?

Runs one fixed job set (uniform random 3-SAT near the threshold,
seeded) through :func:`repro.service.run_batch` bare and with the
write-ahead journal (and checkpointing enabled on every job).  The
durability tier's contract is that crash safety is effectively free on
the batch path: the journal writes a handful of small fsync-batched
records per job, so its cost must stay within ``OVERHEAD_CEILING`` of
the bare run.

The gate prices the journal by counting, not by timing two batches
against each other (whose ratio swings by more than the ceiling from
host noise alone).  One journaled run counts what durability adds:
journal records and their bytes, every ``os.fsync`` the run makes, and
checkpoint saves.  Each is priced at a cost measured in the same
process on the same filesystem: the run's own records encoded and
appended as the journal appends them, a flush and fsync of one appended
record, and the run's own checkpoint states saved again (their fsyncs
priced with the others).  The priced cost over the median bare wall
time is the gated overhead.  The bare/journaled timing pairs (the side
that runs first alternating) are still run and reported, ungated.

A second gate counts fsyncs against the journal's own rule
(:mod:`repro.service.journal`): one per durable record (``done``,
``retry``), one per ``FSYNC_EVERY`` batched records, rounded up, one at
close, and one per checkpoint save.  An fsync costs too little on a
fast disk for the priced gate to see one extra per record, and the
count sees it on any host.

Also asserts the journaled run stays bit-identical to the bare run
(durability must never change answers).

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
from unittest import mock

import numpy as np

from repro.benchgen.random_ksat import random_3sat
from repro.sat import to_dimacs
from repro.service import JobSpec, checkpoint, read_journal, run_batch
from repro.service.journal import FSYNC_EVERY, _encode_record

#: Max allowed journal overhead on the batch path (fraction of the
#: bare wall time).
OVERHEAD_CEILING = 0.05

#: Outcome fields compared for bit-identity.
SOLVER_FIELDS = (
    "status", "model", "iterations", "conflicts",
    "qa_calls", "qpu_time_us",
)

#: Samples behind each unit cost (medians).
UNIT_SAMPLES = 41

#: Record kinds the journal fsyncs as it writes them
#: (``JobJournal.record_done`` and ``record_retry``); the others are
#: batched.
DURABLE_KINDS = ("done", "retry")


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


def count_journaled(specs: List[JobSpec], tmp: str):
    """One journaled run with what it adds counted: ``(outcomes,
    counts, records, checkpoint states)``."""
    journal = os.path.join(tmp, "counted.jsonl")
    states: List[dict] = []
    fsyncs = [0]
    save, fsync = checkpoint.save_checkpoint, os.fsync

    def counted_save(path, state):
        states.append(state)
        save(path, state)

    def counted_fsync(fd):
        fsyncs[0] += 1
        fsync(fd)

    with mock.patch.object(checkpoint, "save_checkpoint", counted_save), \
            mock.patch.object(os, "fsync", counted_fsync):
        outcomes, _ = run_batch(
            specs, journal_path=journal,
            checkpoint_dir=os.path.join(tmp, "counted-ckpts"),
        )
    records, _, torn = read_journal(journal)
    counts = {
        "records": len(records),
        "bytes": os.path.getsize(journal),
        "fsyncs": fsyncs[0],
        "checkpoint_saves": len(states),
        "torn_records": torn,
    }
    return outcomes, counts, records, states


def fsync_bound(records: List[dict], checkpoint_saves: int) -> int:
    """The most fsyncs the journal's rule allows a run that wrote
    ``records`` and saved ``checkpoint_saves`` checkpoints."""
    durable = sum(record["k"] in DURABLE_KINDS for record in records)
    batched = len(records) - durable
    return durable + -(-batched // FSYNC_EVERY) + 1 + checkpoint_saves


def unit_costs(records: List[dict], states: List[dict], tmp: str) -> Dict:
    """Seconds per record, per fsync and per checkpoint save (less its
    fsync), each the median of ``UNIT_SAMPLES`` samples taken in
    ``tmp``."""
    path = os.path.join(tmp, "priced.jsonl")
    record_samples, fsync_samples, save_samples = [], [], []
    line = (_encode_record(records[-1]) + "\n").encode("utf-8")
    with open(path, "ab") as handle:
        for _ in range(UNIT_SAMPLES):
            # As JobJournal._append: encode, checksum, buffered write.
            start = time.perf_counter()
            for record in records:
                handle.write((_encode_record(record) + "\n").encode("utf-8"))
            record_samples.append((time.perf_counter() - start) / len(records))
            handle.flush()
            os.fsync(handle.fileno())
            # As JobJournal.sync after a durable record.
            handle.write(line)
            start = time.perf_counter()
            handle.flush()
            os.fsync(handle.fileno())
            fsync_samples.append(time.perf_counter() - start)
    if states:
        target = os.path.join(tmp, "priced-ckpts", "job.ckpt")
        with mock.patch.object(os, "fsync", lambda fd: None):
            for _ in range(UNIT_SAMPLES):
                start = time.perf_counter()
                for state in states:
                    checkpoint.save_checkpoint(target, state)
                save_samples.append((time.perf_counter() - start) / len(states))
    return {
        "record_s": float(np.median(record_samples)),
        "fsync_s": float(np.median(fsync_samples)),
        "checkpoint_save_s": float(np.median(save_samples)) if states else 0.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="8 jobs of 20 vars")
    parser.add_argument("--jobs", type=int, default=None, help="job count")
    parser.add_argument("--vars", type=int, default=None, help="variables per job")
    parser.add_argument("--seed", type=int, default=100)
    parser.add_argument("--pairs", type=int, default=11,
                        help="bare/journaled timing pairs (reported, ungated)")
    parser.add_argument("--output", default="BENCH_recovery.json")
    args = parser.parse_args(argv)

    num_jobs = args.jobs or (8 if args.quick else 12)
    num_vars = args.vars or (20 if args.quick else 30)
    specs = build_specs(num_jobs, num_vars, args.seed)

    bare_times: List[float] = []
    journaled_times: List[float] = []
    views: Dict[str, List] = {}

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

        for pair in range(args.pairs):
            sides = (bare, journaled) if pair % 2 == 0 else (journaled, bare)
            for side in sides:
                side(pair)

        outcomes, counts, records, states = count_journaled(specs, tmp)
        views["counted"] = [solver_view(o) for o in outcomes]
        costs = unit_costs(records, states, tmp)

    priced = {
        "records_s": counts["records"] * costs["record_s"],
        "fsyncs_s": counts["fsyncs"] * costs["fsync_s"],
        "checkpoint_saves_s": counts["checkpoint_saves"] * costs["checkpoint_save_s"],
    }
    priced_s = sum(priced.values())
    bare_median = float(np.median(bare_times))
    overhead = priced_s / bare_median
    ratios = [j / b for j, b in zip(journaled_times, bare_times)]
    timed_overhead = float(np.median(ratios)) - 1.0
    identical = views["bare"] == views["journaled"] == views["counted"]
    bound = fsync_bound(records, counts["checkpoint_saves"])

    report = {
        "workload": {
            "jobs": num_jobs,
            "vars_per_job": num_vars,
            "seed": args.seed,
            "pairs": args.pairs,
        },
        "bare": {"median_wall_s": round(bare_median, 3),
                 "all_wall_s": [round(t, 3) for t in bare_times]},
        "journaled": {"median_wall_s": round(float(np.median(journaled_times)), 3),
                      "all_wall_s": [round(t, 3) for t in journaled_times]},
        "counts": {
            **counts,
            "records_per_job": round(counts["records"] / num_jobs, 2),
        },
        "unit_costs_us": {name: round(s * 1e6, 2) for name, s in costs.items()},
        "priced_ms": {name: round(s * 1e3, 3) for name, s in priced.items()},
        "pair_ratios": [round(r, 4) for r in ratios],
        "timed_overhead": round(timed_overhead, 4),
        "acceptance": {
            "overhead_ceiling": OVERHEAD_CEILING,
            "journal_overhead": round(overhead, 4),
            "fsync_bound": bound,
            "bit_identical": identical,
            "pass": bool(
                identical
                and overhead <= OVERHEAD_CEILING
                and counts["fsyncs"] <= bound
            ),
        },
    }

    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=False)
        handle.write("\n")

    print(f"bare:      {bare_median:.3f}s median of {args.pairs}")
    print(
        f"journal:   {counts['records']} records ({counts['bytes']} bytes), "
        f"{counts['fsyncs']} fsyncs (at most {bound}), "
        f"{counts['checkpoint_saves']} checkpoint "
        f"saves; priced {priced_s * 1e3:.2f} ms = {overhead:+.2%} of bare "
        f"(timed pairs, ungated: {timed_overhead:+.1%}), "
        f"bit_identical={identical}"
    )
    print(f"wrote {args.output}")
    if not report["acceptance"]["pass"]:
        print(
            f"FAIL: journal overhead must stay <= {OVERHEAD_CEILING:.0%}, "
            f"with at most {bound} fsyncs and identical results"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
