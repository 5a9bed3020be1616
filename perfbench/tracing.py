"""Span recording for the traced run, installed from outside the program.

:func:`install` wraps the public calls of each layer (the table in
README.md) before the program starts.  Each wrapped call records one
span in memory: name, start, end, parent span and job id, plus a few
counts read from its arguments or result.  Spans are written as JSON
lines to ``<trace_dir>/spans-<pid>.jsonl``:

- the process that installed the wrappers writes on :func:`flush`;
- forked pool workers write after every job, because they leave
  through ``os._exit`` and never run ``atexit`` handlers.

Nothing here changes what a wrapped call returns or raises.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time

_clock = time.perf_counter


class _Open:
    """A span whose call has not returned yet."""

    __slots__ = ("sid", "parent", "name", "job", "counts")

    def __init__(self, sid, parent, name, job):
        self.sid = sid
        self.parent = parent
        self.name = name
        self.job = job
        self.counts = None


class Recorder:
    """Per-process span buffer with a parent-span stack per thread."""

    def __init__(self, trace_dir: str):
        self.trace_dir = trace_dir
        self.main_pid = os.getpid()
        self.spans = []
        #: id(formula) -> job id, filled by ``JobSpec.load_formula`` so
        #: calls that only see the formula (routing, fingerprints) can
        #: be charged to their job.
        self.formula_jobs = {}
        self._local = threading.local()
        self._ids = itertools.count(1)
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        # The child inherits the parent's open spans and unflushed
        # records; neither belongs to it.
        self.spans = []
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_job(self):
        stack = self._stack()
        return stack[-1].job if stack else None

    def _open(self, name, job):
        stack = self._stack()
        parent = stack[-1] if stack else None
        if job is None and parent is not None:
            job = parent.job
        span = _Open(next(self._ids), parent.sid if parent else 0, name, job)
        stack.append(span)
        return span

    def _close(self, span, start, end, attrs):
        self._stack().pop()
        if span.counts:
            attrs = dict(attrs or {}, **span.counts)
        self.spans.append(
            (span.sid, span.parent, span.name, span.job, start, end, attrs)
        )

    def count(self, key: str) -> None:
        """Add one to ``key`` on the innermost open span."""
        stack = self._stack()
        if stack:
            top = stack[-1]
            if top.counts is None:
                top.counts = {}
            top.counts[key] = top.counts.get(key, 0) + 1

    def wrap(self, fn, name, job_of=None, before=None, after=None):
        """``fn`` wrapped to record a span named ``name``.

        ``job_of(args)`` names the job (else the parent span's job);
        ``before(args)`` captures state for ``after(args, result,
        captured)``, which returns ``(job or None, attrs or None)``.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            job = job_of(args) if job_of is not None else None
            span = self._open(name, job)
            captured = before(args) if before is not None else None
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(span, start, _clock(), {"error": 1})
                raise
            end = _clock()
            attrs = None
            if after is not None:
                late_job, attrs = after(args, result, captured)
                if late_job is not None:
                    span.job = late_job
            self._close(span, start, end, attrs)
            return result

        return wrapper

    def counter(self, fn, key):
        """``fn`` wrapped to count calls on the innermost open span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(key)
            return fn(*args, **kwargs)

        return wrapper

    def flush(self) -> None:
        """Append buffered spans to this process's JSONL file."""
        if not self.spans:
            return
        spans, self.spans = self.spans, []
        pid = os.getpid()
        path = os.path.join(self.trace_dir, f"spans-{pid}.jsonl")
        with open(path, "a", encoding="utf-8") as handle:
            for sid, parent, name, job, start, end, attrs in spans:
                record = {
                    "p": pid, "i": sid, "u": parent, "n": name,
                    "j": job, "a": start, "b": end,
                }
                if attrs:
                    record["x"] = attrs
                handle.write(json.dumps(record) + "\n")


def _rebind(original, replacement) -> None:
    """Point every ``repro.*`` module global bound to ``original`` at
    ``replacement`` (names imported with ``from ... import``)."""
    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")) or module is None:
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            if value is original:
                namespace[attr] = replacement


def _patch_method(recorder, cls, attr, name, **hooks):
    setattr(cls, attr, recorder.wrap(getattr(cls, attr), name, **hooks))


def _job_attr(index, attr="job_id"):
    def job_of(args):
        value = args[index] if len(args) > index else None
        return getattr(value, attr, None)

    return job_of


def install(trace_dir: str) -> Recorder:
    """Import the program's layers and wrap their public calls."""
    import repro.annealer.device as annealer_device
    import repro.annealer.embedded as embedded
    import repro.cache.persistent as persistent
    import repro.cdcl.fast as fast
    import repro.cdcl.solver as solver
    import repro.cli  # noqa: F401 — binds the names rebinding looks for
    import repro.core.backend as backend
    import repro.core.clause_queue as clause_queue
    import repro.core.frontend as frontend
    import repro.core.hyqsat as hyqsat
    import repro.embedding.hyqsat_embed as hyqsat_embed
    import repro.gateway.fleet as fleet
    import repro.gateway.protocol as protocol
    import repro.gateway.server  # noqa: F401
    import repro.qubo.encoding as encoding
    import repro.resilience.device as resilience_device
    import repro.sat.cnf as cnf
    import repro.sat.dimacs as dimacs
    import repro.service.jobs as jobs
    import repro.service.journal as journal
    import repro.service.pool as pool
    import repro.service.service  # noqa: F401

    rec = Recorder(trace_dir)

    # -- sat ------------------------------------------------------------
    for fn in (dimacs.parse_dimacs, dimacs.read_dimacs):
        _rebind(fn, rec.wrap(fn, "sat.parse"))

    def note_formula(args, result, _captured):
        rec.formula_jobs[id(result)] = args[0].job_id
        return None, None

    _patch_method(
        rec, jobs.JobSpec, "load_formula", "sat.parse",
        job_of=_job_attr(0), after=note_formula,
    )
    _rebind(
        cnf.fingerprint,
        rec.wrap(
            cnf.fingerprint, "sat.fingerprint",
            job_of=lambda args: rec.current_job()
            or rec.formula_jobs.get(id(args[0])),
        ),
    )

    # -- gateway --------------------------------------------------------
    def decoded_job(_args, result, _captured):
        job = result.get("job")
        if isinstance(job, dict):
            return job.get("id"), None
        return result.get("id"), None

    _rebind(
        protocol.parse_line,
        rec.wrap(protocol.parse_line, "gateway.decode", after=decoded_job),
    )
    _rebind(
        protocol.encode,
        rec.wrap(
            protocol.encode, "gateway.encode",
            job_of=lambda args: args[0].get("id"),
        ),
    )
    _patch_method(
        rec, fleet.FleetRouter, "route", "gateway.route",
        job_of=lambda args: rec.formula_jobs.get(id(args[1])),
        after=lambda _a, result, _c: (
            None, {"device": result.qpu.name, "fallback": int(not result.fits)}
        ),
    )

    # -- cache ----------------------------------------------------------
    _patch_method(
        rec, persistent.PersistentResultStore, "lookup", "cache.lookup",
        job_of=_job_attr(2),
        after=lambda _a, result, _c: (
            None, {"kind": result.cache_kind if result is not None else "miss"}
        ),
    )
    _patch_method(
        rec, persistent.PersistentResultStore, "record", "cache.record",
        job_of=_job_attr(3),
    )
    _patch_method(
        rec, persistent.PersistentResultStore, "warm_clauses", "cache.warm",
        job_of=lambda args: rec.formula_jobs.get(id(args[1])),
        after=lambda _a, result, _c: (
            None, {"warm": 1} if result is not None else None
        ),
    )

    # -- service --------------------------------------------------------
    _patch_method(
        rec, pool.WorkerPool, "submit", "service.submit", job_of=_job_attr(2),
    )
    for attr in ("record_submit", "record_done"):
        _patch_method(
            rec, journal.JobJournal, attr, "service.journal",
            job_of=_job_attr(1),
        )
    for attr in ("record_start", "record_retry"):
        _patch_method(
            rec, journal.JobJournal, attr, "service.journal",
            job_of=lambda args: args[1],
        )
    _patch_method(
        rec, journal.JobJournal, "sync", "service.journal",
        before=lambda args: bool(args[0]._unsynced and not args[0]._closed),
        after=lambda _a, _r, will_sync: (
            None, {"fsync": 1} if will_sync else None
        ),
    )

    run_job = rec.wrap(
        jobs.run_job, "service.run_job", job_of=_job_attr(0),
        after=lambda _a, _r, _c: (None, {"pid": os.getpid()}),
    )

    @functools.wraps(jobs.run_job)
    def run_job_and_flush(*args, **kwargs):
        try:
            return run_job(*args, **kwargs)
        finally:
            if os.getpid() != rec.main_pid:
                rec.flush()

    # Pickled by reference for process pools: keep the wrapper
    # reachable under the original's module and name.
    _rebind(jobs.run_job, run_job_and_flush)
    _patch_method(
        rec, jobs.JobOutcome, "to_json", "service.result_encode",
        job_of=_job_attr(0),
    )

    # -- core -----------------------------------------------------------
    def solve_counts(_args, result, _captured):
        hybrid = result.hybrid
        return None, {
            "conflicts": result.stats.conflicts,
            "propagations": result.stats.propagations,
            "qa_calls": hybrid.qa_calls if hybrid is not None else 0,
        }

    _patch_method(
        rec, hyqsat.HyQSatSolver, "solve", "core.solve", after=solve_counts
    )
    for attr in ("generate", "generate_random"):
        _patch_method(
            rec, clause_queue.ClauseQueueGenerator, attr, "core.select"
        )
    for engine in (solver.CdclSolver, fast.FastCdclSolver):
        if "unsatisfied_original_clauses" in vars(engine):
            _patch_method(
                rec, engine, "unsatisfied_original_clauses", "core.select"
            )
    _patch_method(
        rec, frontend.Frontend, "prepare", "core.prepare",
        before=lambda args: args[0].cache_hits,
        after=lambda args, _r, hits: (
            None, {"hit": int(args[0].cache_hits > hits)}
        ),
    )
    _patch_method(
        rec, backend.Backend, "interpret", "core.classify",
        after=lambda _a, result, _c: (
            None,
            {"feedback": int(result.strategy is not backend.Strategy.NO_FEEDBACK)},
        ),
    )

    # -- qubo (as bound in the frontend) ----------------------------------
    frontend.encode_formula = rec.wrap(frontend.encode_formula, "qubo.encode")
    frontend.adjust_coefficients = rec.wrap(
        frontend.adjust_coefficients, "qubo.adjust"
    )
    frontend.normalize = rec.wrap(frontend.normalize, "qubo.normalize")
    encoding.FormulaEncoding.with_coefficients = rec.counter(
        encoding.FormulaEncoding.with_coefficients, "rescale"
    )

    # -- embedding / annealer / resilience --------------------------------
    _patch_method(
        rec, hyqsat_embed.HyQSatEmbedder, "embed", "embedding.embed",
        after=lambda args, result, _c: (
            None,
            {"embedded": result.num_embedded, "total": len(args[1].clauses)},
        ),
    )
    _rebind(
        embedded.build_embedded_problem,
        rec.wrap(embedded.build_embedded_problem, "annealer.compile"),
    )
    _patch_method(
        rec, annealer_device.AnnealerDevice, "run", "annealer.run",
        after=lambda _a, result, _c: (None, {"qpu_us": result.qpu_time_us}),
    )
    _patch_method(
        rec, resilience_device.ResilientDevice, "run", "resilience.run"
    )
    return rec
