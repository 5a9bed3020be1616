"""Command-line interface.

Subcommands::

    hyqsat solve <file.cnf> [--classic] [--noise] [--seed N]
                 [--qa-faults SPEC] [--qa-retries N] [--qa-budget-us T]
                 [--trace FILE] [--profile] [--metrics FILE]
    hyqsat generate <benchmark> [--index I] [--seed N] [-o out.cnf]
    hyqsat embed <file.cnf> [--scheme hyqsat|minorminer|pr] [--grid N]
    hyqsat suite [--benchmarks GC1,AI1,...] [--problems N] [--jobs N]
    hyqsat trace-report <trace.jsonl>
    hyqsat submit <file.cnf> [--queue jobs.jsonl] [--priority P]
    hyqsat serve <jobs.jsonl|dir|-> [--jobs N] [-o results.jsonl]
    hyqsat batch <dir> [--jobs N] [-o results.jsonl]
    hyqsat gateway [--port N] [--fleet chimera:8,pegasus:8] [--jobs N]
    hyqsat connect <file.cnf ...> [--port N] [--api-key KEY]

``solve`` runs HyQSAT (or the classic CDCL baseline) on a DIMACS file;
``generate`` materialises a benchmark instance; ``embed`` reports
embedding statistics; ``suite`` reproduces a small Table I slice;
``trace-report`` summarises a ``--trace`` JSONL file.  The solve-time
observability flags (``--trace``, ``--profile``, ``--metrics``) are
documented in docs/TELEMETRY.md.

``gateway``/``connect`` are the network surface (docs/GATEWAY.md):
``gateway`` serves the solver over TCP — a versioned JSONL protocol
with streaming results, backpressure, per-tenant rate limits, and a
heterogeneous QPU fleet with topology-aware routing — and ``connect``
is its client (submit, stream, cancel, ping).

``submit``/``serve``/``batch`` are the solver-service surface
(docs/SERVICE.md): ``submit`` appends one job line to a job JSONL
file, ``serve`` runs a job file (or every ``*.jsonl`` in a directory,
or stdin) through the concurrent service, and ``batch`` is the
shorthand that turns every ``*.cnf`` in a directory into one job each.
Per fixed job seed, service results are bit-identical to solo
``hyqsat solve`` runs regardless of ``--jobs``.

``solve`` and ``suite`` handle Ctrl-C gracefully: open ``--trace`` /
``--metrics`` files are flushed with whatever was recorded and a
partial summary is printed instead of a traceback (exit status 130).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional


def _fault_model_or_exit(text: str):
    """Parse ``--qa-faults`` with CLI-friendly errors."""
    from repro.annealer import parse_fault_spec

    try:
        return parse_fault_spec(text)
    except ValueError as error:
        raise SystemExit(f"--qa-faults: {error}")


def _jobspec_from_args(
    args: argparse.Namespace,
    job_id: str,
    path: Optional[str] = None,
    dimacs: Optional[str] = None,
    seed: Optional[int] = None,
):
    """Build the :class:`~repro.service.JobSpec` these CLI options
    describe — the single construction path shared by ``solve``,
    ``submit``, and ``batch``, which is what makes service results
    bit-identical to solo solves."""
    from repro.cdcl.engine import DEFAULT_ENGINE
    from repro.service import JobSpec

    if getattr(args, "qa_faults", None):
        _fault_model_or_exit(args.qa_faults)  # friendlier error first
    try:
        return JobSpec(
            job_id=job_id,
            path=path,
            dimacs=dimacs,
            seed=args.seed if seed is None else seed,
            priority=getattr(args, "priority", "batch"),
            deadline_s=getattr(args, "deadline_s", None),
            classic=getattr(args, "classic", False),
            noise=getattr(args, "noise", False),
            lenient=getattr(args, "lenient", False),
            qa_faults=getattr(args, "qa_faults", None),
            fault_seed=getattr(args, "fault_seed", None),
            qa_retries=getattr(args, "qa_retries", 4),
            qa_deadline_us=getattr(args, "qa_deadline_us", None),
            qa_budget_us=getattr(args, "qa_budget_us", None),
            qa_breaker_threshold=getattr(args, "qa_breaker_threshold", 5),
            no_resilience=getattr(args, "no_resilience", False),
            engine=getattr(args, "engine", DEFAULT_ENGINE),
            fleet=getattr(args, "qa_fleet", 0),
            fleet_hedge_us=getattr(args, "qa_hedge_us", None),
            topology=getattr(args, "topology", None),
            grid=getattr(args, "grid", None),
            checkpoint_every=getattr(args, "checkpoint_every", 0),
        )
    except ValueError as error:
        raise SystemExit(str(error))


def _emit_observability(observability, args: argparse.Namespace) -> None:
    """Close the bundle and write/print whatever was requested.

    Called on the normal path *and* from the KeyboardInterrupt
    handlers, so an interrupted run still flushes a valid (partial)
    trace and metrics export.
    """
    if observability is None:
        return
    observability.close()
    if getattr(args, "trace", None):
        print(f"c trace={args.trace}")
    if getattr(args, "profile", False):
        from repro.observability import profile_rows

        for row in profile_rows(observability.metrics):
            print(
                f"c profile phase={row['phase']} count={row['count']} "
                f"total_s={row['total_s']} mean_ms={row['mean_ms']}"
            )
    if getattr(args, "metrics", None):
        registry = observability.metrics
        if args.metrics_format == "json":
            text = registry.dump_json() + "\n"
        else:
            text = registry.to_prometheus()
        with open(args.metrics, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"c metrics={args.metrics} format={args.metrics_format}")


def _cmd_solve(args: argparse.Namespace) -> int:
    from repro.cdcl.engine import ENGINES
    from repro.sat import read_dimacs, to_3sat
    from repro.service import build_solver

    formula = read_dimacs(args.path, strict=not args.lenient)
    if not formula.is_3sat:
        print(f"reducing {formula.max_clause_size}-SAT input to 3-SAT")
        formula = to_3sat(formula).formula

    observability = None
    if args.trace or args.profile or args.metrics:
        if args.classic:
            raise SystemExit(
                "--trace/--profile/--metrics instrument the hybrid solve "
                "loop and cannot be combined with --classic"
            )
        from repro.observability import Observability

        want_metrics = bool(args.profile or args.metrics)
        if args.trace:
            observability = Observability.tracing(
                args.trace, metrics=want_metrics
            )
        else:
            observability = Observability.profiling()

    spec = _jobspec_from_args(args, job_id=args.path, path=args.path)
    if args.checkpoint_every and not args.checkpoint_path:
        raise SystemExit("--checkpoint-every requires --checkpoint-path")
    solver = build_solver(
        spec,
        formula=formula,
        observability=observability,
        checkpoint_path=args.checkpoint_path,
    )

    start = time.perf_counter()
    try:
        result = solver.solve()
    except KeyboardInterrupt:
        elapsed = time.perf_counter() - start
        print()  # terminate the ^C line
        print(f"c interrupted wall_seconds={elapsed:.3f}")
        partial = getattr(solver, "hybrid_stats", None)
        if partial is not None:
            print(
                f"c partial qa_calls={partial.qa_calls} "
                f"qpu_time_us={partial.qpu_time_us:.1f} "
                f"qa_failures={partial.qa_failures} "
                f"breaker_state={partial.breaker_state}"
            )
        _emit_observability(observability, args)
        return 130
    elapsed = time.perf_counter() - start
    hybrid = getattr(result, "hybrid", None)

    print(f"s {result.status.value.upper()}")
    if result.model is not None:
        lits = " ".join(str(l.value) for l in result.model.as_literals())
        print(f"v {lits} 0")
    print(f"c iterations={result.stats.iterations} conflicts={result.stats.conflicts}")
    if hybrid is not None:
        # The engine that ran: "fast" falls back when no kernel loads.
        engine = next(
            name for name, cls in ENGINES.items()
            if type(solver.last_engine) is cls
        )
        print(
            f"c qa_calls={hybrid.qa_calls} qpu_time_us={hybrid.qpu_time_us:.1f} "
            f"avg_embedded={hybrid.avg_embedded_clauses:.1f}"
        )
        print(
            f"c cdcl_propagations_per_s={hybrid.cdcl_propagations_per_s:.0f} "
            f"cdcl_conflicts_per_s={hybrid.cdcl_conflicts_per_s:.0f} "
            f"engine={engine}"
        )
        print(
            f"c frontend_cache_hits={hybrid.frontend_cache_hits} "
            f"frontend_cache_misses={hybrid.frontend_cache_misses} "
            f"hit_rate={hybrid.frontend_cache_hit_rate:.2f}"
        )
        print(
            f"c qa_retries={hybrid.qa_retries} qa_failures={hybrid.qa_failures} "
            f"qa_availability={hybrid.qa_availability:.2f} "
            f"breaker_state={hybrid.breaker_state} "
            f"qa_budget_spent_us={hybrid.qa_budget_spent_us:.1f}"
        )
        if hybrid.degraded:
            print(f"c degraded_to_cdcl reason={hybrid.degraded_reason}")
        if hybrid.qa_fault_counts:
            faults_joined = " ".join(
                f"{name}={count}"
                for name, count in sorted(hybrid.qa_fault_counts.items())
            )
            print(f"c qa_faults {faults_joined}")
    print(f"c wall_seconds={elapsed:.3f}")

    _emit_observability(observability, args)
    return 0 if result.status.value != "unknown" else 1


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.benchgen import BENCHMARKS
    from repro.sat import to_dimacs

    if args.benchmark not in BENCHMARKS:
        print(f"unknown benchmark {args.benchmark!r}; known: {', '.join(BENCHMARKS)}")
        return 2
    spec = BENCHMARKS[args.benchmark]
    formula = spec.generate(args.index, seed=args.seed)
    text = to_dimacs(
        formula,
        comments=[
            f"{spec.name} ({spec.domain}), problem {args.index}, seed {args.seed}",
            "generated by the HyQSAT reproduction benchgen",
        ],
    )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {formula.num_vars} vars / {formula.num_clauses} clauses to {args.output}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_embed(args: argparse.Namespace) -> int:
    from repro.embedding import (
        HyQSatEmbedder,
        MinorminerLikeEmbedder,
        PlaceAndRouteEmbedder,
    )
    from repro.qubo import encode_formula
    from repro.sat import read_dimacs, to_3sat
    from repro.topology import ChimeraGraph

    formula = read_dimacs(args.path, strict=not args.lenient)
    if not formula.is_3sat:
        formula = to_3sat(formula).formula
    hardware = ChimeraGraph(args.grid, args.grid, 4)
    encoding = encode_formula(list(formula.clauses), formula.num_vars)

    if args.scheme == "hyqsat":
        result = HyQSatEmbedder(hardware).embed(encoding)
        embedded = result.num_embedded
    else:
        from repro.embedding import EmbeddingTimeout

        edges = list(encoding.objective.quadratic.keys())
        variables = encoding.objective.variables
        embedder = (
            MinorminerLikeEmbedder(hardware, timeout_seconds=args.timeout)
            if args.scheme == "minorminer"
            else PlaceAndRouteEmbedder(hardware, timeout_seconds=args.timeout)
        )
        try:
            result = embedder.embed(edges, variables)
        except EmbeddingTimeout as timeout:
            print(
                f"scheme={args.scheme} timeout after {timeout.passes} "
                f"pass(es) / {timeout.elapsed_seconds:.2f}s "
                f"(budget {args.timeout:.3g}s)"
            )
            return 1
        embedded = formula.num_clauses if result.success else 0
    print(
        f"scheme={args.scheme} success={result.success} "
        f"embedded_clauses={embedded}/{formula.num_clauses} "
        f"avg_chain={result.avg_chain_length:.2f} max_chain={result.max_chain_length} "
        f"time={result.elapsed_seconds * 1e3:.2f}ms"
    )
    return 0


def _suite_cell(benchmark: str, index: int, seed: int) -> float:
    """One suite table cell: the classic/HyQSAT iteration ratio.

    Module-level and picklable so ``suite --jobs N --pool process``
    can ship cells to worker processes; seeding matches the serial
    path exactly (base seeded by ``--seed``, HyQSAT by the problem
    index), so parallel and serial tables are identical.
    """
    from repro.benchgen import BENCHMARKS
    from repro.cdcl import minisat_solver
    from repro.core import HyQSatConfig, HyQSatSolver

    spec = BENCHMARKS[benchmark]
    formula = spec.generate(index, seed=seed)
    base = minisat_solver(formula, seed=seed).solve()
    hyq = HyQSatSolver(formula, config=HyQSatConfig(seed=index)).solve()
    return max(1, base.stats.iterations) / max(1, hyq.stats.iterations)


def _cmd_suite(args: argparse.Namespace) -> int:
    from repro.analysis import format_table, reduction_stats
    from repro.benchgen import BENCHMARKS
    from repro.service import WorkerPool

    names = args.benchmarks.split(",") if args.benchmarks else list(BENCHMARKS)
    cells: List[tuple] = []
    counts: dict = {}
    for name in names:
        spec = BENCHMARKS[name.strip()]
        count = args.problems or min(3, spec.num_problems)
        counts[name.strip()] = count
        for index in range(count):
            cells.append((name.strip(), index))

    mode = "inline" if args.jobs <= 1 else args.pool
    pool = WorkerPool(workers=max(1, args.jobs), mode=mode)
    completed: dict = {}
    interrupted = False
    try:
        futures = {
            cell: pool.submit(_suite_cell, cell[0], cell[1], args.seed)
            for cell in cells
        }
        for cell, future in futures.items():
            completed[cell] = future.result()
    except KeyboardInterrupt:
        interrupted = True
        pool.shutdown(wait=False, cancel_pending=True)
    else:
        pool.shutdown(wait=True)

    rows: List[List[object]] = []
    for name in names:
        name = name.strip()
        reductions = [
            completed[(name, index)]
            for index in range(counts[name])
            if (name, index) in completed
        ]
        if not reductions:
            continue
        stats = reduction_stats(reductions)
        rows.append([name, BENCHMARKS[name].domain, len(reductions)] + stats.as_row())
    if interrupted:
        print()
        print(
            f"c interrupted after {len(completed)}/{len(cells)} problems; "
            "partial table follows"
        )
    if rows:
        print(
            format_table(
                ["Benchmark", "Domain", "#Problems", "Avg", "Geomean", "Max", "Min"],
                rows,
                title="Iteration reduction (classic CDCL / HyQSAT)",
            )
        )
    return 130 if interrupted else 0


def _cmd_trace_report(args: argparse.Namespace) -> int:
    from repro.analysis.trace_report import main as report_main

    return report_main([args.path])


# ---------------------------------------------------------------------------
# Service commands (docs/SERVICE.md)
# ---------------------------------------------------------------------------


def _service_observability(args: argparse.Namespace):
    """The service-level tracing/metrics bundle for serve/batch."""
    if not (getattr(args, "trace", None) or getattr(args, "metrics", None)):
        return None
    from repro.observability import Observability

    if args.trace:
        return Observability.tracing(args.trace, metrics=bool(args.metrics))
    return Observability.profiling()


def _run_service(args: argparse.Namespace, specs) -> int:
    """Shared serve/batch driver: run ``specs`` through a
    :class:`~repro.service.SolverService`, streaming result JSONL."""
    from repro.service import ServiceConfig, SolverService

    try:
        config = ServiceConfig(
            workers=max(1, args.jobs),
            pool_mode=args.pool,
            max_depth=args.max_depth,
            qpu_budget_us=args.qpu_budget_us,
            dedup=not args.no_dedup,
            journal_path=args.journal,
            checkpoint_dir=args.checkpoint_dir,
            cache_path=None if args.no_cache else args.cache_db,
            cache_cap=args.cache_cap,
            cache_ttl_s=args.cache_ttl_s,
        )
    except ValueError as error:
        raise SystemExit(str(error))
    observability = _service_observability(args)
    out = sys.stdout if args.output in (None, "-") else open(
        args.output, "w", encoding="utf-8"
    )
    owns_out = out is not sys.stdout

    def emit(outcome) -> None:
        out.write(outcome.to_json() + "\n")
        out.flush()

    service = SolverService(config, observability=observability)
    interrupted = False
    outcomes = []
    try:
        outcomes = service.run(specs, on_outcome=emit)
    except KeyboardInterrupt:
        interrupted = True
    finally:
        if owns_out:
            out.close()
    stats = service.stats
    summary = sys.stderr
    if stats is not None:
        states = " ".join(
            f"{state}={count}"
            for state, count in sorted(stats.jobs_by_state.items())
        )
        print(
            f"c jobs={stats.total_jobs} {states} dedup_hits={stats.dedup_hits}",
            file=summary,
        )
        print(
            f"c qpu_grants={stats.qpu_grants} "
            f"qpu_busy_us={stats.qpu_busy_us:.1f} "
            f"wall_seconds={stats.wall_seconds:.3f}",
            file=summary,
        )
        if service.cache is not None:
            print(
                f"c cache_hits={stats.cache_hits} "
                f"cache_misses={stats.cache_misses} "
                f"cache_subsumption_hits={stats.cache_subsumption_hits} "
                f"cache_warm_starts={stats.cache_warm_starts} "
                f"cache_errors={stats.cache_errors}",
                file=summary,
            )
    if interrupted:
        print("c interrupted; results flushed so far are valid", file=summary)
    _emit_observability(observability, args)
    if interrupted:
        return 130
    bad_states = {"failed", "rejected", "expired"}
    bad = sum(
        1
        for o in outcomes
        if o.state in bad_states or o.status == "unknown"
    )
    return 1 if bad else 0


def _cmd_submit(args: argparse.Namespace) -> int:
    import os

    stem = os.path.splitext(os.path.basename(args.path))[0]
    job_id = args.id or f"{stem}-s{args.seed}"
    spec = _jobspec_from_args(args, job_id=job_id, path=args.path)
    line = spec.to_json()
    if args.queue in (None, "-"):
        print(line)
    else:
        with open(args.queue, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
        print(f"c queued {job_id} -> {args.queue}")
    return 0


def _load_job_lines(source: str) -> List[str]:
    """Job JSONL lines from a file, every ``*.jsonl`` in a directory
    (sorted), or stdin (``-``)."""
    import glob
    import os

    if source == "-":
        return sys.stdin.read().splitlines()
    if os.path.isdir(source):
        lines: List[str] = []
        for path in sorted(glob.glob(os.path.join(source, "*.jsonl"))):
            with open(path, "r", encoding="utf-8") as handle:
                lines.extend(handle.read().splitlines())
        return lines
    with open(source, "r", encoding="utf-8") as handle:
        return handle.read().splitlines()


def _cmd_serve(args: argparse.Namespace) -> int:
    import os

    from repro.service import JobSpec

    lines = _load_job_lines(args.source)
    base = (
        None
        if args.source == "-"
        else (
            args.source
            if os.path.isdir(args.source)
            else os.path.dirname(args.source)
        )
    )
    specs = []
    for number, line in enumerate(lines, start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        try:
            spec = JobSpec.from_json(line)
        except (ValueError, TypeError) as error:
            raise SystemExit(f"{args.source}:{number}: {error}")
        if spec.path and base and not os.path.isabs(spec.path):
            spec.path = os.path.join(base, spec.path)
        specs.append(spec)
    if not specs:
        print("c no jobs", file=sys.stderr)
        return 0
    return _run_service(args, specs)


def _cmd_batch(args: argparse.Namespace) -> int:
    import glob
    import os

    paths = sorted(glob.glob(os.path.join(args.directory, "*.cnf")))
    if not paths:
        raise SystemExit(f"no *.cnf files under {args.directory}")
    specs = []
    for index, path in enumerate(paths):
        stem = os.path.splitext(os.path.basename(path))[0]
        specs.append(
            _jobspec_from_args(
                args, job_id=stem, path=path, seed=args.seed + index
            )
        )
    return _run_service(args, specs)


# ---------------------------------------------------------------------------
# Cache maintenance commands (docs/SERVICE.md, "Result cache")
# ---------------------------------------------------------------------------


def _open_cache(args: argparse.Namespace):
    import os

    from repro.cache import PersistentResultStore

    if not os.path.exists(args.db):
        raise SystemExit(f"no cache database at {args.db}")
    return PersistentResultStore(args.db)


def _cmd_cache_stats(args: argparse.Namespace) -> int:
    import json as json_module

    store = _open_cache(args)
    try:
        info = store.describe()
    finally:
        store.close()
    if args.json:
        print(json_module.dumps(info, sort_keys=True))
    else:
        for key in (
            "path", "results", "instances", "clause_banks",
            "lifetime_hits", "db_bytes", "max_entries", "ttl_s",
        ):
            print(f"c {key}={info[key]}")
    return 0


def _cmd_cache_gc(args: argparse.Namespace) -> int:
    store = _open_cache(args)
    try:
        dropped = store.gc(max_entries=args.cap, ttl_s=args.ttl_s)
        remaining = store.entry_count()
    finally:
        store.close()
    print(f"c evicted={dropped} remaining={remaining}")
    return 0


def _cmd_cache_export(args: argparse.Namespace) -> int:
    import json as json_module

    store = _open_cache(args)
    out = sys.stdout if args.output in (None, "-") else open(
        args.output, "w", encoding="utf-8"
    )
    rows = 0
    try:
        for row in store.export_rows():
            out.write(json_module.dumps(row, sort_keys=True) + "\n")
            rows += 1
    finally:
        store.close()
        if out is not sys.stdout:
            out.close()
    print(f"c exported={rows}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# Gateway commands (docs/GATEWAY.md)
# ---------------------------------------------------------------------------


def _cmd_gateway(args: argparse.Namespace) -> int:
    import asyncio

    from repro.gateway import GatewayConfig, GatewayServer

    observability = _service_observability(args)
    try:
        config = GatewayConfig(
            host=args.host,
            port=args.port,
            workers=max(1, args.jobs),
            max_depth=args.max_depth,
            fleet=args.fleet,
            rate_per_s=args.rate_per_s,
            burst=args.burst,
            tenant_budget_us=args.tenant_budget_us,
            api_keys=tuple(
                key for key in (args.api_keys or "").split(",") if key
            ),
            retry_after_s=args.retry_after_s,
            drain_grace_s=args.drain_grace_s,
            qpu_budget_us=args.qpu_budget_us,
            cache_db=args.cache_db,
            cache_cap=args.cache_cap,
        )
        server = GatewayServer(config, observability=observability)
    except ValueError as error:
        raise SystemExit(str(error))

    async def _serve() -> None:
        import signal

        await server.start()
        fleet = ",".join(
            f"{q.topology}:{q.grid}" for q in server.fleet
        )
        print(
            f"c gateway listening on {config.host}:{server.port} "
            f"fleet={fleet} workers={config.workers}",
            flush=True,
        )
        # The drain must run on the loop that owns the server's tasks,
        # so SIGINT/SIGTERM flip an event here instead of raising
        # KeyboardInterrupt out of asyncio.run (which would close this
        # loop with the dispatcher still bound to it).
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()

        def _request_drain() -> None:
            stop.set()
            # Restore default handling: a second interrupt abandons
            # the drain via KeyboardInterrupt.
            for signum in (signal.SIGINT, signal.SIGTERM):
                try:
                    loop.remove_signal_handler(signum)
                except (NotImplementedError, RuntimeError):
                    pass

        handled = True
        try:
            for signum in (signal.SIGINT, signal.SIGTERM):
                loop.add_signal_handler(signum, _request_drain)
        except NotImplementedError:  # platforms without loop signals
            handled = False
        serve_task = loop.create_task(server.serve_forever())
        if handled:
            await stop.wait()
            await server.shutdown()  # closes the listener; serve_task ends
        await serve_task

    try:
        asyncio.run(_serve())
        states = " ".join(
            f"{state}={count}"
            for state, count in sorted(server.stats.jobs.items())
        )
        print(
            f"c gateway drained connections={server.stats.connections} "
            f"{states}".rstrip(),
            file=sys.stderr,
        )
    except KeyboardInterrupt:
        # Second interrupt mid-drain (or no signal-handler support):
        # abandon the drain and exit without the summary.
        print("c gateway interrupted, drain abandoned", file=sys.stderr)
    _emit_observability(observability, args)
    return 0


def _cmd_connect(args: argparse.Namespace) -> int:
    import json
    import os

    from repro.gateway import GatewayClient, GatewayError, GatewayReject

    try:
        client = GatewayClient(
            host=args.host,
            port=args.port,
            api_key=args.api_key,
            timeout_s=args.timeout_s,
        )
    except (GatewayError, OSError) as error:
        print(f"c connect failed: {error}", file=sys.stderr)
        return 2
    out = sys.stdout if args.output in (None, "-") else open(
        args.output, "w", encoding="utf-8"
    )
    owns_out = out is not sys.stdout
    code = 0
    try:
        with client:
            if args.ping:
                pong = client.ping()
                print(f"c pong nonce={pong.get('nonce')}")
                return 0
            if args.cancel:
                try:
                    message = client.cancel(args.cancel)
                    print(f"c cancelled {message.get('id')}")
                except GatewayReject as reject:
                    print(f"c reject {reject}", file=sys.stderr)
                    return 1
                return 0
            if not args.paths:
                raise SystemExit("connect: no CNF files given")
            submitted = []
            for index, path in enumerate(args.paths):
                with open(path, "r", encoding="utf-8") as handle:
                    dimacs = handle.read()
                stem = os.path.splitext(os.path.basename(path))[0]
                seed = args.seed + index
                spec = _jobspec_from_args(
                    args, job_id=f"{stem}-s{seed}", dimacs=dimacs, seed=seed
                )
                job = json.loads(spec.to_json())
                try:
                    ack = client.submit(job)
                    print(
                        f"c ack id={ack['id']} queue_depth={ack['queue_depth']}",
                        file=sys.stderr,
                    )
                    submitted.append(spec.job_id)
                except GatewayReject as reject:
                    hint = (
                        f" retry_after_s={reject.retry_after_s}"
                        if reject.retry_after_s is not None
                        else ""
                    )
                    print(f"c reject {reject}{hint}", file=sys.stderr)
                    code = 1

            def show(message) -> None:
                if message["type"] == "event":
                    attrs = " ".join(
                        f"{k}={v}"
                        for k, v in sorted(message.get("attrs", {}).items())
                    )
                    print(
                        f"c event id={message['id']} {message['event']} "
                        f"{attrs}".rstrip(),
                        file=sys.stderr,
                    )

            results = client.drain(submitted, on_message=show) if submitted else {}
            for job_id in submitted:
                outcome = results.get(job_id, {})
                line = dict(outcome)
                line["id"] = line.pop("job_id", job_id)
                out.write(json.dumps(line, sort_keys=True) + "\n")
                out.flush()
                answered = outcome.get("state") in ("done", "deduped")
                if not answered or outcome.get("status") == "unknown":
                    code = 1
    except GatewayError as error:
        print(f"c gateway error: {error}", file=sys.stderr)
        code = 2
    except KeyboardInterrupt:
        print("c interrupted", file=sys.stderr)
        code = 130
    finally:
        if owns_out:
            out.close()
    return code


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_engine_flag(parser: argparse.ArgumentParser) -> None:
    """``--engine``, shared by ``solve``/``submit``/``batch``."""
    from repro.cdcl.engine import DEFAULT_ENGINE, ENGINES

    parser.add_argument(
        "--engine",
        choices=list(ENGINES),
        default=DEFAULT_ENGINE,
        help="CDCL engine: the native kernel (default; falls back to "
        "reference where no kernel can be built) or the bit-identical "
        "pure-Python reference",
    )


def _add_job_option_flags(parser: argparse.ArgumentParser) -> None:
    """The solve-option flags shared by ``solve``/``submit``/``batch``
    (one flag set -> one :class:`~repro.service.JobSpec` field each)."""
    parser.add_argument("--classic", action="store_true", help="plain CDCL baseline")
    parser.add_argument("--noise", action="store_true", help="noisy 2000Q device model")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--lenient", action="store_true", help="tolerate malformed DIMACS")
    _add_engine_flag(parser)
    parser.add_argument(
        "--qa-faults",
        default=None,
        metavar="SPEC",
        help="inject device faults: a probability for all channels "
        "(e.g. 0.2) or key=prob pairs over prog,timeout,dropout,drift "
        "(e.g. prog=0.1,timeout=0.05)",
    )
    parser.add_argument(
        "--fault-seed",
        type=int,
        default=None,
        help="fault-injection RNG seed (defaults to --seed)",
    )
    parser.add_argument(
        "--qa-retries", type=int, default=4, help="max attempts per QA call"
    )
    parser.add_argument(
        "--qa-deadline-us",
        type=float,
        default=None,
        help="per-call deadline in modelled device microseconds",
    )
    parser.add_argument(
        "--qa-budget-us",
        type=float,
        default=None,
        help="global QA time budget in modelled device microseconds",
    )
    parser.add_argument(
        "--qa-breaker-threshold",
        type=int,
        default=5,
        help="consecutive failed calls before the circuit breaker opens",
    )
    parser.add_argument(
        "--no-resilience",
        action="store_true",
        help="call the (possibly faulty) device bare, without the "
        "retry/breaker proxy",
    )
    parser.add_argument(
        "--topology",
        choices=["chimera", "pegasus"],
        default=None,
        help="QA hardware topology (default: chimera; pegasus adds "
        "odd + cross-cell couplers for shorter chains)",
    )
    parser.add_argument(
        "--grid",
        type=int,
        default=None,
        metavar="N",
        help="hardware grid size, N x N cells (default: 16, the "
        "D-Wave 2000Q scale)",
    )
    _add_durability_flags(parser)


def _add_durability_flags(parser: argparse.ArgumentParser) -> None:
    """Failover/checkpoint job flags (docs/SERVICE.md, durability)."""
    parser.add_argument(
        "--qa-fleet",
        type=int,
        default=0,
        metavar="N",
        help="anneal on a fleet of N health-tracked devices with "
        "failover and quarantine instead of a single device (0 = off)",
    )
    parser.add_argument(
        "--qa-hedge-us",
        type=float,
        default=None,
        metavar="US",
        help="hedge fleet calls slower than this many modelled "
        "microseconds onto a backup device (requires --qa-fleet >= 2)",
    )
    parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=0,
        metavar="N",
        help="checkpoint the search every N conflicts after warm-up so "
        "a killed solve resumes mid-search (0 = off)",
    )


def _add_service_flags(parser: argparse.ArgumentParser) -> None:
    """Service-runtime flags shared by ``serve`` and ``batch``."""
    parser.add_argument(
        "--jobs", type=int, default=1, help="concurrent worker slots"
    )
    parser.add_argument(
        "--pool",
        choices=["thread", "process", "inline"],
        default="thread",
        help="worker pool mode (process replays QPU accounting; "
        "see docs/SERVICE.md)",
    )
    parser.add_argument(
        "-o",
        "--output",
        default=None,
        metavar="FILE",
        help="result JSONL destination (default stdout)",
    )
    parser.add_argument(
        "--no-dedup",
        action="store_true",
        help="disable canonical-CNF result deduplication",
    )
    parser.add_argument(
        "--max-depth",
        type=int,
        default=None,
        help="queue admission cap (jobs beyond it are rejected)",
    )
    parser.add_argument(
        "--qpu-budget-us",
        type=float,
        default=None,
        help="positive modelled-microsecond budget across every job's QA "
        "calls on one hardware lattice (thread and inline pools only)",
    )
    parser.add_argument(
        "--journal",
        default=None,
        metavar="FILE",
        help="crash-safe write-ahead job journal; re-running the same "
        "command replays acked results instead of re-solving them",
    )
    parser.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="DIR",
        help="directory for per-job mid-search checkpoints (jobs with "
        "--checkpoint-every > 0 resume from here after a crash)",
    )
    parser.add_argument(
        "--cache-db",
        default=None,
        metavar="FILE",
        help="persistent result cache (SQLite, survives restarts): "
        "exact hits replay bit-identically, subsumption hits "
        "re-validate cached models, near-misses warm-start from "
        "banked learned clauses (docs/SERVICE.md)",
    )
    parser.add_argument(
        "--cache-cap",
        type=int,
        default=None,
        metavar="N",
        help="LRU cap on exact-result rows in --cache-db "
        "(default unbounded)",
    )
    parser.add_argument(
        "--cache-ttl-s",
        type=float,
        default=None,
        metavar="S",
        help="expire --cache-db rows not hit for S seconds "
        "(default never)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore --cache-db (run without the persistent cache)",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="write a JSONL trace of the service run (service.* spans)",
    )
    parser.add_argument(
        "--metrics",
        default=None,
        metavar="FILE",
        help="export the service metrics registry to FILE",
    )
    parser.add_argument(
        "--metrics-format",
        choices=["prom", "json"],
        default="prom",
        help="metrics export format (default: prom)",
    )


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="hyqsat", description="HyQSAT hybrid QA+CDCL solver (HPCA'23 reproduction)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a DIMACS CNF file")
    p_solve.add_argument("path")
    _add_job_option_flags(p_solve)
    p_solve.add_argument(
        "--checkpoint-path",
        default=None,
        metavar="FILE",
        help="checkpoint file for --checkpoint-every; a valid "
        "checkpoint there resumes the solve mid-search",
    )
    p_solve.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="write a JSONL span/event trace of the solve "
        "(schema: docs/TELEMETRY.md; summarise with 'hyqsat trace-report')",
    )
    p_solve.add_argument(
        "--profile",
        action="store_true",
        help="collect per-phase latency metrics and print a profile "
        "summary after the solve",
    )
    p_solve.add_argument(
        "--metrics",
        default=None,
        metavar="FILE",
        help="export the solve's metrics registry to FILE",
    )
    p_solve.add_argument(
        "--metrics-format",
        choices=["prom", "json"],
        default="prom",
        help="metrics export format: Prometheus text or JSON "
        "(default: prom)",
    )
    p_solve.set_defaults(func=_cmd_solve)

    p_gen = sub.add_parser("generate", help="generate a benchmark instance")
    p_gen.add_argument("benchmark")
    p_gen.add_argument("--index", type=int, default=0)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("-o", "--output", default=None)
    p_gen.set_defaults(func=_cmd_generate)

    p_embed = sub.add_parser("embed", help="embed a CNF onto Chimera hardware")
    p_embed.add_argument("path")
    p_embed.add_argument(
        "--scheme", choices=["hyqsat", "minorminer", "pr"], default="hyqsat"
    )
    p_embed.add_argument("--grid", type=int, default=16)
    p_embed.add_argument("--timeout", type=float, default=60.0)
    p_embed.add_argument("--lenient", action="store_true")
    p_embed.set_defaults(func=_cmd_embed)

    p_suite = sub.add_parser("suite", help="run a Table I slice")
    p_suite.add_argument("--benchmarks", default="")
    p_suite.add_argument("--problems", type=int, default=0)
    p_suite.add_argument("--seed", type=int, default=0)
    p_suite.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="solve suite problems on N service workers (1 = serial)",
    )
    p_suite.add_argument(
        "--pool",
        choices=["thread", "process", "inline"],
        default="thread",
        help="worker pool mode for --jobs > 1",
    )
    p_suite.set_defaults(func=_cmd_suite)

    p_report = sub.add_parser(
        "trace-report", help="summarise a --trace JSONL file"
    )
    p_report.add_argument("path")
    p_report.set_defaults(func=_cmd_trace_report)

    p_submit = sub.add_parser(
        "submit", help="append one job line to a job JSONL file"
    )
    p_submit.add_argument("path", help="DIMACS CNF instance")
    p_submit.add_argument(
        "--id", default=None, help="job id (default: <stem>-s<seed>)"
    )
    p_submit.add_argument(
        "--queue",
        default=None,
        metavar="FILE",
        help="job JSONL file to append to (default stdout)",
    )
    p_submit.add_argument(
        "--priority",
        choices=["interactive", "batch", "background"],
        default="batch",
        help="priority class (strict between classes, FIFO within)",
    )
    p_submit.add_argument(
        "--deadline-s",
        type=float,
        default=None,
        help="queue deadline in seconds; jobs still queued past it expire",
    )
    _add_job_option_flags(p_submit)
    p_submit.set_defaults(func=_cmd_submit)

    p_serve = sub.add_parser(
        "serve", help="run job JSONL through the solver service"
    )
    p_serve.add_argument(
        "source", help="job JSONL file, directory of *.jsonl, or - for stdin"
    )
    _add_service_flags(p_serve)
    p_serve.set_defaults(func=_cmd_serve)

    p_gateway = sub.add_parser(
        "gateway",
        help="serve the solver over TCP (JSONL protocol; docs/GATEWAY.md)",
    )
    p_gateway.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    p_gateway.add_argument(
        "--port",
        type=int,
        default=7465,
        help="bind port (0 = pick an ephemeral port, printed at start)",
    )
    p_gateway.add_argument(
        "--jobs", type=int, default=2, help="concurrent solver worker threads"
    )
    p_gateway.add_argument(
        "--max-depth",
        type=int,
        default=64,
        help="admission queue cap; beyond it submissions are rejected "
        "with backpressure + retry-after",
    )
    p_gateway.add_argument(
        "--fleet",
        default="chimera:16",
        metavar="SPEC",
        help="heterogeneous QPU fleet as topology:grid atoms, e.g. "
        "'chimera:8,chimera:16,pegasus:8' (default chimera:16)",
    )
    p_gateway.add_argument(
        "--rate-per-s",
        type=float,
        default=20.0,
        help="per-tenant steady-state submissions per second",
    )
    p_gateway.add_argument(
        "--burst",
        type=int,
        default=40,
        help="per-tenant token-bucket burst capacity",
    )
    p_gateway.add_argument(
        "--tenant-budget-us",
        type=float,
        default=None,
        help="per-tenant QA quota in modelled device microseconds "
        "(default unmetered)",
    )
    p_gateway.add_argument(
        "--api-keys",
        default=None,
        metavar="K1,K2",
        help="comma-separated accepted API keys; omit for an open "
        "gateway (anonymous tenant)",
    )
    p_gateway.add_argument(
        "--retry-after-s",
        type=float,
        default=None,
        help="fixed retry-after hint on rejections (default: estimated "
        "from queue depth and recent run times)",
    )
    p_gateway.add_argument(
        "--drain-grace-s",
        type=float,
        default=30.0,
        help="seconds to let queued and running jobs finish at shutdown",
    )
    p_gateway.add_argument(
        "--qpu-budget-us",
        type=float,
        default=None,
        help="per-lattice modelled QPU budget shared by that lattice's jobs",
    )
    p_gateway.add_argument(
        "--cache-db",
        default=None,
        metavar="FILE",
        help="persistent result cache shared across restarts and "
        "gateway processes (SQLite; see docs/SERVICE.md)",
    )
    p_gateway.add_argument(
        "--cache-cap",
        type=int,
        default=None,
        metavar="N",
        help="LRU cap on exact-result rows in --cache-db "
        "(default unbounded)",
    )
    p_gateway.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="write a JSONL trace of gateway sessions (gateway.session spans)",
    )
    p_gateway.add_argument(
        "--metrics",
        default=None,
        metavar="FILE",
        help="export the gateway metrics registry to FILE at shutdown",
    )
    p_gateway.add_argument(
        "--metrics-format",
        choices=["prom", "json"],
        default="prom",
        help="metrics export format (default: prom)",
    )
    p_gateway.set_defaults(func=_cmd_gateway)

    p_connect = sub.add_parser(
        "connect",
        help="submit CNF files to a running gateway and stream results",
    )
    p_connect.add_argument(
        "paths", nargs="*", help="DIMACS CNF files (one job each)"
    )
    p_connect.add_argument(
        "--host", default="127.0.0.1", help="gateway address"
    )
    p_connect.add_argument("--port", type=int, default=7465, help="gateway port")
    p_connect.add_argument(
        "--api-key", default=None, help="tenant API key for the hello"
    )
    p_connect.add_argument(
        "--timeout-s",
        type=float,
        default=300.0,
        help="socket timeout while waiting for results",
    )
    p_connect.add_argument(
        "--priority",
        choices=["interactive", "batch", "background"],
        default="batch",
        help="priority class for submitted jobs",
    )
    p_connect.add_argument(
        "--deadline-s",
        type=float,
        default=None,
        help="queue deadline; jobs still queued past it expire",
    )
    p_connect.add_argument(
        "--cancel",
        default=None,
        metavar="ID",
        help="cancel a queued job by id instead of submitting",
    )
    p_connect.add_argument(
        "--ping",
        action="store_true",
        help="liveness check: send ping, print the pong, exit",
    )
    p_connect.add_argument(
        "-o",
        "--output",
        default=None,
        metavar="FILE",
        help="result JSONL destination (default stdout)",
    )
    _add_job_option_flags(p_connect)
    p_connect.set_defaults(func=_cmd_connect)

    p_batch = sub.add_parser(
        "batch", help="solve every *.cnf in a directory via the service"
    )
    p_batch.add_argument("directory")
    p_batch.add_argument(
        "--seed",
        type=int,
        default=0,
        help="seed base: instance i gets seed+i",
    )
    p_batch.add_argument("--classic", action="store_true", help="plain CDCL baseline")
    p_batch.add_argument("--noise", action="store_true", help="noisy 2000Q device model")
    p_batch.add_argument("--lenient", action="store_true", help="tolerate malformed DIMACS")
    _add_engine_flag(p_batch)
    _add_durability_flags(p_batch)
    _add_service_flags(p_batch)
    p_batch.set_defaults(func=_cmd_batch)

    p_cache = sub.add_parser(
        "cache",
        help="inspect or maintain a persistent result cache "
        "(docs/SERVICE.md)",
    )
    cache_sub = p_cache.add_subparsers(dest="cache_command", required=True)
    p_cstats = cache_sub.add_parser(
        "stats", help="print cache size, hit counts, and policy"
    )
    p_cstats.add_argument("db", help="cache SQLite file (--cache-db value)")
    p_cstats.add_argument(
        "--json", action="store_true", help="emit one JSON object"
    )
    p_cstats.set_defaults(func=_cmd_cache_stats)
    p_cgc = cache_sub.add_parser(
        "gc", help="apply LRU/TTL eviction now and drop orphan rows"
    )
    p_cgc.add_argument("db", help="cache SQLite file")
    p_cgc.add_argument(
        "--cap",
        type=int,
        default=None,
        metavar="N",
        help="evict down to at most N exact-result rows",
    )
    p_cgc.add_argument(
        "--ttl-s",
        type=float,
        default=None,
        metavar="S",
        help="evict rows not hit within the last S seconds",
    )
    p_cgc.set_defaults(func=_cmd_cache_gc)
    p_cexport = cache_sub.add_parser(
        "export", help="dump every cached result as JSONL"
    )
    p_cexport.add_argument("db", help="cache SQLite file")
    p_cexport.add_argument(
        "-o",
        "--output",
        default=None,
        metavar="FILE",
        help="JSONL destination (default stdout)",
    )
    p_cexport.set_defaults(func=_cmd_cache_export)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
