"""QA hot-path benchmark: the native read-out + frontend cache.

Measures the hot path's legs against their reference implementations,
on the same workload shape the hybrid solver produces (a ~120-clause
residual embedded on the C16 lattice):

1. **Native read-out** — one ``AnnealerDevice.run`` call (anneal,
   greedy descent, chain vote, logical correction) with the native
   library loaded (``annealer/sweep.c``) against the same call with it
   blocked (the NumPy/Python read-out), at the hybrid solver's shape
   (1 read, 1 restart) and at 8 and 16 replicas: whole
   ``AnnealResult``s must be identical (energies by ``float.hex``), and
   the library must load and not be slower.
2. **Native frontend miss** — the Eq. 5 encode
   (``encode_formula``), the Section IV-C adjustment
   (``adjust_coefficients``), the Section IV-B embed
   (``HyQSatEmbedder.embed``) and the chain compile
   (``build_embedded_problem``) in the frontend library
   (``core/frontend.c``) against their NumPy or Python paths, on the
   calls a uf170 hybrid solve makes: every result must be identical
   (every array by dtype, shape and ``float.hex``; for the embed also
   the clause split, chains and coupler map in order), and the library
   must load and not be slower.
3. **Frontend compile cache** — cold ``Frontend.prepare`` against a
   cache hit for the identical (queue, trail) pair.
4. **Native read** — a gateway cache read's own steps on one instance
   of each ``gateway-zipf`` family (BP, GC1, II, IF2, CRY, CFA):
   ``parse_dimacs`` and ``fingerprint`` with the formula-read library
   (``sat/table.c``) loaded against it blocked (the NumPy paths), and
   ``JobOutcome.as_dict`` against ``dataclasses.asdict``: each must be
   identical (the table by dtype, shape and values) and not slower.
5. **Subsumption lookups** — ``PersistentResultStore.lookup`` of the
   ``gateway-zipf`` near misses (perfbench/workloads.py, seed 32)
   against a store holding the stream's other 33 instances, and of a
   miss against ``_SCAN_LIMIT`` BP-size candidates: with the library
   loaded (the inclusion test is one ``sigs_subset`` call on the packed
   blobs) against it blocked (unpacked Python sets).  The query's
   signatures are hashed once beforehand, so both sides time the scan
   and the model checks.  Answers (kind, status, model) must be
   identical, and the library not slower.
6. **Full-solve acceptance** — a 100-variable random 3-SAT instance
   solved cache-on and cache-off must agree in status (and model
   validity), and the cached run must actually hit.

Run with ``make bench`` or::

    PYTHONPATH=src python -m benchmarks.bench_hotpath --quick

Writes ``BENCH_hotpath.json`` (see ``--output``) and exits non-zero if
a library did not load, changed a result or is slower than the
NumPy/Python read-out or the frontend's, the read's or the
subsumption lookup's NumPy/Python paths, or if the acceptance checks
fail.  Timings are
medians over several rounds; results and solver outcomes are fully
deterministic for a fixed ``--seed``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import tempfile
import time
from typing import Dict, List
from unittest import mock

import numpy as np

import repro.core.frontend as frontend_module
from repro.annealer.device import AnnealerDevice, AnnealResult
from repro.annealer.sampler import SamplerConfig
from repro.benchgen import BENCHMARKS
from repro.benchgen.random_ksat import random_3sat
from repro.cache import PersistentResultStore
from repro.cache.persistent import _SCAN_LIMIT, _signatures_of
from repro.cdcl import minisat_solver, native
from repro.core.config import HyQSatConfig
from repro.core.frontend import Frontend
from repro.core.hyqsat import HyQSatSolver
from repro.embedding.hyqsat_embed import HyQSatEmbedder
from repro.sat import fingerprint, parse_dimacs, to_dimacs
from repro.service.jobs import JobOutcome, JobSpec
from repro.topology.chimera import ChimeraGraph

#: Read-out shapes: the hybrid call (R = 1), then R = 8 and 16.
KERNEL_SHAPES = [(1, 1), (8, 1), (4, 4)]

#: The frontend's precompile strength, so the device runs the
#: precompiled problem.
CHAIN_STRENGTH = 2.0

#: The ``gateway-zipf`` families (perfbench/workloads.py) whose reads
#: the read rows time, one instance each.
READ_FAMILIES = ("BP", "GC1", "II", "IF2", "CRY", "CFA")

#: The ``gateway-zipf`` near misses the subsumption rows look up: SAT
#: parents less three clauses (model reads), the UNSAT CRY parent plus
#: three (an unsat read) and a BP parent plus three (a miss).
SUBSUMPTION_VARIANTS = (
    "BP-drop", "GC1-drop", "II-drop", "IF2-drop", "CRY-add", "BP-add",
)


def _numpy_readout():
    """The device's no-compiler path: the native library blocked."""
    return mock.patch.object(native, "load_sweep_kernel", lambda: None)


def _numpy_read():
    """The read's no-compiler path: the formula-read library blocked."""
    return mock.patch.object(native, "load_table_kernel", lambda: None)


def _result_view(result: AnnealResult):
    """Everything an ``AnnealResult`` holds, floats by ``float.hex``."""
    return (
        [
            (
                tuple(sample.assignment.items()),
                float(sample.energy).hex(),
                float(sample.chain_break_fraction).hex(),
            )
            for sample in result.samples
        ],
        float(result.qpu_time_us).hex(),
        result.dropped_reads,
    )


def bench_readout(
    request, hardware, shapes, rounds: int, reps: int, seed: int
) -> List[Dict]:
    """Native against NumPy/Python read-out, ``AnnealerDevice.run``
    timed in alternating rounds."""
    results = []
    for num_reads, num_restarts in shapes:
        shaped = dataclasses.replace(request, num_reads=num_reads)

        def device():
            return AnnealerDevice(
                hardware,
                sampler_config=SamplerConfig(num_restarts=num_restarts),
                chain_strength=CHAIN_STRENGTH,
                seed=seed,
            )

        def timed():
            runner = device()
            start = time.perf_counter()
            for _ in range(reps):
                runner.run(shaped)
            return (time.perf_counter() - start) / reps

        native_result = device().run(shaped)
        with _numpy_readout():
            numpy_result = device().run(shaped)
        native_samples, numpy_samples = [], []
        for _ in range(rounds):
            native_samples.append(timed())
            with _numpy_readout():
                numpy_samples.append(timed())
        native_s = float(np.median(native_samples))
        numpy_s = float(np.median(numpy_samples))
        results.append(
            {
                "num_reads": num_reads,
                "num_restarts": num_restarts,
                "replicas": num_reads * num_restarts,
                "identical": _result_view(native_result)
                == _result_view(numpy_result),
                "native_ms": round(native_s * 1e3, 3),
                "numpy_ms": round(numpy_s * 1e3, 3),
                "speedup": round(numpy_s / native_s, 3),
            }
        )
    return results


def _embed_view(result):
    """Everything an embed returns but its wall time."""
    arrays = result.arrays
    return (
        [getattr(arrays, name).tolist() for name in arrays.__dataclass_fields__],
        result.embedded_clauses,
        result.unembedded_clauses,
        list(result.embedding.chains.items()),
        list(result.edge_couplers.items()),
    )


def _arrays_view(*arrays):
    """Each array's dtype, shape and values (floats by ``float.hex``)."""
    return [
        (a.dtype.str, a.shape, [float(v).hex() for v in a.ravel().tolist()])
        for a in arrays
    ]


def _encoding_view(encoding):
    return _arrays_view(
        encoding.clauses.lits, encoding.aux, encoding.alpha, *encoding.layout
    )


def _adjust_view(adjustment):
    return adjustment.d_star.hex(), _encoding_view(adjustment.encoding)


def _compile_view(problem):
    return _arrays_view(
        problem.qubit_ids, problem.linear, problem.indptr, problem.indices,
        problem.data, problem.chain_variables, problem.chain_starts,
        problem.chain_couplers, *problem.programmed,
    ) + [problem.offset.hex(), problem.chain_strength]


def captured_calls(seed: int) -> Dict[str, List]:
    """The arguments of every frontend miss's encode, adjust, embed and
    compile call in a uf170 hybrid solve."""
    formula = random_3sat(170, 724, np.random.default_rng(seed))
    captured: Dict[str, List] = {"encode": [], "adjust": [], "embed": [], "compile": []}

    def capture(name, function):
        def recorded(*args, **kwargs):
            captured[name].append((args, kwargs))
            return function(*args, **kwargs)

        return recorded

    embed = HyQSatEmbedder.embed
    with mock.patch.object(
        frontend_module, "encode_formula",
        capture("encode", frontend_module.encode_formula),
    ), mock.patch.object(
        frontend_module, "adjust_coefficients",
        capture("adjust", frontend_module.adjust_coefficients),
    ), mock.patch.object(
        frontend_module, "build_embedded_problem",
        capture("compile", frontend_module.build_embedded_problem),
    ), mock.patch.object(
        HyQSatEmbedder, "embed",
        lambda embedder, encoding: capture("embed", embed)(embedder, encoding),
    ):
        HyQSatSolver(
            formula,
            device=AnnealerDevice(seed=seed),
            config=HyQSatConfig(seed=seed),
        ).solve()
    return captured


def bench_twins(function, calls, view, rounds: int) -> Dict:
    """``function`` with the frontend library against it blocked, over
    the captured ``calls``, timed in alternating rounds (median per
    call)."""

    def timed():
        start = time.perf_counter()
        for args, kwargs in calls:
            function(*args, **kwargs)
        return (time.perf_counter() - start) / len(calls)

    native_views = [view(function(*args, **kwargs)) for args, kwargs in calls]
    with mock.patch.object(native, "load_frontend_kernel", lambda: None):
        numpy_views = [view(function(*args, **kwargs)) for args, kwargs in calls]
    native_samples, numpy_samples = [], []
    for _ in range(rounds):
        native_samples.append(timed())
        with mock.patch.object(native, "load_frontend_kernel", lambda: None):
            numpy_samples.append(timed())
    native_s = float(np.median(native_samples))
    numpy_s = float(np.median(numpy_samples))
    return {
        "queues": len(calls),
        "identical": native_views == numpy_views,
        "native_us": round(native_s * 1e6, 1),
        "numpy_us": round(numpy_s * 1e6, 1),
        "speedup": round(numpy_s / native_s, 2),
    }


def bench_embed(hardware, encodings, rounds: int) -> Dict:
    """Native against Python embed over ``encodings``, timed in
    alternating rounds (median per call)."""
    embedder = HyQSatEmbedder(hardware)

    def timed():
        start = time.perf_counter()
        for encoding in encodings:
            embedder.embed(encoding)
        return (time.perf_counter() - start) / len(encodings)

    native_views = [_embed_view(embedder.embed(e)) for e in encodings]
    with mock.patch.object(native, "load_frontend_kernel", lambda: None):
        python_views = [_embed_view(embedder.embed(e)) for e in encodings]
    native_samples, python_samples = [], []
    for _ in range(rounds):
        native_samples.append(timed())
        with mock.patch.object(native, "load_frontend_kernel", lambda: None):
            python_samples.append(timed())
    native_s = float(np.median(native_samples))
    python_s = float(np.median(python_samples))
    return {
        "queues": len(encodings),
        "queue_clauses": int(np.median([len(e.clauses) for e in encodings])),
        "identical": native_views == python_views,
        "native_us": round(native_s * 1e6, 1),
        "python_us": round(python_s * 1e6, 1),
        "speedup": round(python_s / native_s, 2),
    }


def _sample_us(call, reps: int, samples: List[float]) -> None:
    start = time.perf_counter()
    for _ in range(reps):
        call()
    samples.append((time.perf_counter() - start) / reps * 1e6)


def bench_read_pair(call, view, rounds: int, reps: int) -> Dict:
    """``call`` with the formula-read library against it blocked, timed
    in alternating rounds (median per call)."""
    native_view = view(call())
    with _numpy_read():
        numpy_view = view(call())
    native_samples: List[float] = []
    numpy_samples: List[float] = []
    for _ in range(rounds):
        _sample_us(call, reps, native_samples)
        with _numpy_read():
            _sample_us(call, reps, numpy_samples)
    native_us = float(np.median(native_samples))
    numpy_us = float(np.median(numpy_samples))
    return {
        "identical": native_view == numpy_view,
        "native_us": round(native_us, 1),
        "numpy_us": round(numpy_us, 1),
        "speedup": round(numpy_us / native_us, 2),
    }


def _table_view(formula):
    lits = formula.table.lits
    return formula.num_vars, lits.dtype.str, lits.shape, lits.tobytes()


def bench_reads(rounds: int, reps: int) -> Dict[str, Dict]:
    """Per family: the parse, the fingerprint and the outcome dict of a
    cache read, each against its old path."""
    rows: Dict[str, Dict] = {}
    for family in READ_FAMILIES:
        generated = BENCHMARKS[family].generate(0, seed=32)
        text = to_dimacs(generated)
        formula = parse_dimacs(text)
        outcome = JobOutcome(
            job_id=family, status="sat", iterations=12, conflicts=3,
            model=[v if v % 3 else -v for v in range(1, formula.num_vars + 1)],
            cached=True, cache_kind="exact",
        )
        fields_samples: List[float] = []
        asdict_samples: List[float] = []
        for _ in range(rounds):
            _sample_us(outcome.as_dict, reps, fields_samples)
            _sample_us(lambda: dataclasses.asdict(outcome), reps, asdict_samples)
        fields_us = float(np.median(fields_samples))
        asdict_us = float(np.median(asdict_samples))
        rows[family] = {
            "num_vars": formula.num_vars,
            "num_clauses": formula.num_clauses,
            "dimacs_bytes": len(text),
            "parse": bench_read_pair(
                lambda: parse_dimacs(text), _table_view, rounds, reps
            ),
            "fingerprint": bench_read_pair(
                lambda: fingerprint(formula), lambda fp: fp, rounds, reps
            ),
            "outcome_dict": {
                "identical": outcome.as_dict() == dataclasses.asdict(outcome),
                "fields_us": round(fields_us, 1),
                "asdict_us": round(asdict_us, 1),
                "speedup": round(asdict_us / fields_us, 2),
            },
        }
    return rows


def _record_solved(store, name: str, dimacs: str, model=None):
    """Record ``dimacs`` as solved: SAT with ``model`` when one is given,
    else with the classic solve's answer.  Returns the recorded model."""
    spec = JobSpec(job_id=name, dimacs=dimacs)
    formula = spec.load_formula()
    status = "sat"
    if model is None:
        result = minisat_solver(formula).solve()
        status = result.status.value
        if result.model is not None:
            model = [lit.value for lit in result.model.as_literals()]
    store.record(
        spec.solve_key(fingerprint(formula)),
        formula,
        JobOutcome(job_id=name, state="done", status=status, model=model),
    )
    return model


def _timed_lookup(store, name: str, dimacs: str, rounds: int, reps: int) -> Dict:
    spec = JobSpec(job_id=name, dimacs=dimacs)
    formula = spec.load_formula()
    key = spec.solve_key(fingerprint(formula))
    signatures = _signatures_of(formula)
    signatures()

    def answer(hit):
        return hit and (hit.cache_kind, hit.status, hit.model)

    row = bench_read_pair(
        lambda: store.lookup(key, spec, formula, signatures=signatures),
        answer, rounds, reps,
    )
    hit = answer(store.lookup(key, spec, formula, signatures=signatures))
    return {
        "num_clauses": formula.num_clauses,
        "kind": hit[0] if hit else "miss",
        "identical": row["identical"],
        "native_us": row["native_us"],
        "python_us": row["numpy_us"],
        "speedup": row["speedup"],
    }


def bench_subsumption(rounds: int, reps: int) -> Dict[str, Dict]:
    """Subsumption lookups with the library loaded against blocked: the
    ``gateway-zipf`` near misses, and a miss that scans
    ``_SCAN_LIMIT`` BP-size candidates."""
    from perfbench.workloads import Instance, gateway_zipf

    items = gateway_zipf(32, 929).items
    variants = {
        f"{item.parent.split('-')[0]}-{item.name.rsplit('-', 1)[1]}": item
        for item in items.values()
        if item.parent is not None
    }
    rows: Dict[str, Dict] = {}
    with tempfile.TemporaryDirectory() as tmp:
        with PersistentResultStore(os.path.join(tmp, "zipf.sqlite")) as store:
            models = {
                name: _record_solved(store, name, item.dimacs())
                for name, item in items.items()
                if item.parent is None
            }
            for name in SUBSUMPTION_VARIANTS:
                rows[name] = _timed_lookup(
                    store, name, variants[name].dimacs(), rounds, reps
                )
        # The scan cap: BP parents other than the BP-add variant's, each
        # less three random clauses, recorded with the parent's model.
        query = variants["BP-add"]
        parents = [
            item for name, item in items.items()
            if name.startswith("BP-") and item.parent is None
            and name != query.parent
        ]
        rng = np.random.default_rng(32)
        with PersistentResultStore(os.path.join(tmp, "cap.sqlite")) as store:
            for index in range(_SCAN_LIMIT):
                parent = parents[index % len(parents)]
                drop = set(rng.choice(len(parent.clauses), size=3, replace=False))
                clauses = [
                    c for i, c in enumerate(parent.clauses) if i not in drop
                ]
                candidate = Instance(f"cap{index}", parent.num_vars, clauses, "")
                _record_solved(
                    store, candidate.name, candidate.dimacs(), models[parent.name]
                )
            rows["BP-add-cap"] = _timed_lookup(
                store, "BP-add-cap", query.dimacs(), rounds, 1
            )
            rows["BP-add-cap"]["candidates"] = _SCAN_LIMIT
    return rows


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
    request = Frontend(
        formula, hardware, chain_strength=CHAIN_STRENGTH
    ).prepare(queue).request
    problem = request.compiled
    print(f"workload: 60 vars / 250 clauses, queue 120, {problem.num_qubits} qubits")

    rounds, reps = (3, 2) if args.quick else (5, 3)
    kernel_loaded = native.load_sweep_kernel() is not None
    kernel_rows = (
        bench_readout(request, hardware, KERNEL_SHAPES, rounds, reps, args.seed)
        if kernel_loaded
        else []
    )
    print(f"native read-out loaded: {kernel_loaded}")
    for row in kernel_rows:
        print(
            "device.run reads={num_reads} restarts={num_restarts}: "
            "numpy {numpy_ms} ms, native {native_ms} ms, "
            "speedup {speedup}x, identical={identical}".format(**row)
        )

    frontend_loaded = native.load_frontend_kernel() is not None
    twin_rows: Dict[str, Dict] = {}
    embed_row: Dict = {}
    if frontend_loaded:
        calls = captured_calls(32)
        twin_rows["encode"] = bench_twins(
            frontend_module.encode_formula, calls["encode"], _encoding_view, rounds
        )
        twin_rows["adjust"] = bench_twins(
            frontend_module.adjust_coefficients, calls["adjust"], _adjust_view, rounds
        )
        embed_row = bench_embed(
            hardware, [args[1] for args, _ in calls["embed"]], rounds
        )
        twin_rows["compile"] = bench_twins(
            frontend_module.build_embedded_problem, calls["compile"],
            _compile_view, rounds,
        )
    print(f"native frontend loaded: {frontend_loaded}")
    for name, row in twin_rows.items():
        print(
            f"{name} uf170 ({{queues}} calls): numpy {{numpy_us}} us, "
            "native {native_us} us, speedup {speedup}x, "
            "identical={identical}".format(**row)
        )
    if embed_row:
        print(
            "embed uf170 ({queues} queues of {queue_clauses} clauses): "
            "python {python_us} us, native {native_us} us, "
            "speedup {speedup}x, identical={identical}".format(**embed_row)
        )

    table_loaded = native.load_table_kernel() is not None
    read_rows = bench_reads(rounds, 20 if args.quick else 50) if table_loaded else {}
    print(f"native read loaded: {table_loaded}")
    for family, row in read_rows.items():
        print(
            f"{family} read ({row['num_vars']} vars, {row['num_clauses']} "
            "clauses): parse numpy {numpy_us} us, native {native_us} us, "
            "identical={identical}; ".format(**row["parse"])
            + "fingerprint numpy {numpy_us} us, native {native_us} us, "
            "identical={identical}; ".format(**row["fingerprint"])
            + "outcome dict asdict {asdict_us} us, fields {fields_us} us, "
            "identical={identical}".format(**row["outcome_dict"])
        )

    subsumption_rows = (
        bench_subsumption(rounds, 5 if args.quick else 10) if table_loaded else {}
    )
    for name, row in subsumption_rows.items():
        print(
            f"{name} lookup ({row['num_clauses']} clauses, {row['kind']}): "
            "python {python_us} us, native {native_us} us, "
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
    embed_passed = (
        frontend_loaded and embed_row["identical"] and embed_row["speedup"] >= 1.0
    )
    frontend_passed = embed_passed and all(
        row["identical"] and row["speedup"] >= 1.0 for row in twin_rows.values()
    )
    reads_passed = table_loaded and all(
        row[name]["identical"] and row[name]["speedup"] >= 1.0
        for row in read_rows.values()
        for name in ("parse", "fingerprint", "outcome_dict")
    )
    subsumption_passed = table_loaded and all(
        row["identical"] and row["speedup"] >= 1.0
        for row in subsumption_rows.values()
    )
    passed = (
        kernel_loaded
        and kernel_identical
        and kernel_never_slower
        and frontend_passed
        and reads_passed
        and subsumption_passed
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
        "readout": kernel_rows,
        "encode": twin_rows.get("encode", {}),
        "adjust": twin_rows.get("adjust", {}),
        "embed": embed_row,
        "compile": twin_rows.get("compile", {}),
        "reads": read_rows,
        "subsumption": subsumption_rows,
        "frontend_cache": cache_row,
        "solve_acceptance": solve_row,
        "kernel_loaded": kernel_loaded,
        "kernel_identical": kernel_identical,
        "kernel_never_slower": kernel_never_slower,
        "frontend_loaded": frontend_loaded,
        "embed_passed": embed_passed,
        "frontend_passed": frontend_passed,
        "table_loaded": table_loaded,
        "reads_passed": reads_passed,
        "subsumption_passed": subsumption_passed,
        "passed": passed,
    }
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.output}  passed={passed}")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
