"""The solver service coordinator: the one dispatcher of both front ends.

:class:`SolverService` wires the subsystem together: jobs are admitted
into a :class:`~repro.service.queue.JobQueue` (priority, deadlines,
admission control), read and (given a fleet router) placed as they
leave it, deduplicated by solve key, answered from the persistent
cache or dispatched onto a :class:`~repro.service.pool.WorkerPool` as
worker slots free up, and their anneal requests arbitrated by one
:class:`~repro.service.scheduler.QpuScheduler` per hardware lattice.

It is a long-lived object.  :meth:`~SolverService.submit` admits a
job, :meth:`~SolverService.cancel` withdraws a queued one,
:meth:`~SolverService.pump` moves queued jobs into free worker slots
and :meth:`~SolverService.complete` finalises a job whose worker
finished; every finalised outcome goes to ``on_outcome``, and
``on_start`` hears where each popped job was placed.  ``hyqsat
batch``/``serve`` drive it through :meth:`~SolverService.run`; the
gateway drives it from its event loop (docs/GATEWAY.md).

Deduplication: the first job to claim a
:meth:`~repro.service.jobs.JobSpec.solve_key` is its *primary* and
solves; a later job with the same key is a *follower*, handed the
primary's outcome (``deduped``, ``dedup_of`` naming the primary; a
follower of a primary that is not ``done`` finalises in the primary's
state).  A ``done`` primary answers duplicates until the coordinator
next has no queued or running job; any other outcome releases the
claim, so the next duplicate re-solves.  Results outlive that only in
the persistent cache.

Threading model: **all** coordination — admission, queue pops, reads,
dedup decisions, cache lookups, outcome finalisation, and every
tracer/metrics touch — happens on one coordinating thread: the caller
of :meth:`run`, or the gateway's event loop.  Worker threads/processes
only execute :func:`~repro.service.jobs.run_job`; each finished future
calls :attr:`SolverService.wake` with its job id, which hands it back
to that thread.  The tracer's explicit span stack is never shared,
which makes the service safe on every pool mode without a single lock
around the observability layer.

Determinism: a job's solver output depends only on its spec — same
seed, same device construction as a solo ``hyqsat solve`` — never on
worker count, dispatch order, or sibling jobs.  The batch bit-identity
tests pin this property.
"""

from __future__ import annotations

import concurrent.futures
import queue as queue_module
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.sat.cnf import fingerprint
from repro.service.jobs import JobOutcome, JobSpec, run_job
from repro.service.journal import JobJournal
from repro.service.pool import WorkerPool
from repro.service.queue import AdmissionError, JobQueue
from repro.service.scheduler import QpuScheduler

#: How many times a job lost to a dead worker process is returned to
#: the pool before it is failed.
MAX_WORKER_RETRIES = 2


@dataclass
class ServiceConfig:
    """Knobs of one :class:`SolverService`."""

    #: Worker slots (jobs solving concurrently).
    workers: int = 1
    #: Pool mode: ``thread`` | ``process`` | ``inline``
    #: (:data:`~repro.service.pool.POOL_MODES`).
    pool_mode: str = "thread"
    #: Queue admission cap (``None`` = unbounded).
    max_depth: Optional[int] = None
    #: Modelled-µs cap on each lattice's QPU (``None`` = unlimited).
    #: Positive, and only on pools whose workers anneal through the
    #: live scheduler (``thread``/``inline``).
    qpu_budget_us: Optional[float] = None
    #: Canonical-CNF result deduplication.
    dedup: bool = True
    #: Crash-safe write-ahead job journal
    #: (:class:`~repro.service.journal.JobJournal`); ``None`` disables
    #: journaling.  Re-running the same command against an existing
    #: journal replays acked outcomes instead of re-solving them.
    journal_path: Optional[str] = None
    #: Directory for per-job mid-search checkpoints
    #: (:mod:`repro.service.checkpoint`); ``None`` disables them.  Only
    #: jobs with ``checkpoint_every > 0`` in their spec checkpoint.
    checkpoint_dir: Optional[str] = None
    #: SQLite file of the persistent (L2) result cache
    #: (:class:`~repro.cache.PersistentResultStore`); ``None`` disables
    #: the cache entirely.
    cache_path: Optional[str] = None
    #: LRU cap on exact-result rows in the persistent cache
    #: (``None`` = unbounded).
    cache_cap: Optional[int] = None
    #: TTL in seconds on exact-result rows (``None`` = no expiry).
    cache_ttl_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.qpu_budget_us is not None:
            if self.qpu_budget_us <= 0:
                raise ValueError("qpu_budget_us must be positive when set")
            if self.pool_mode == "process":
                # Process workers cannot be arbitrated live, and their
                # usage is replayed only after each solve.
                raise ValueError(
                    "qpu_budget_us needs a thread or inline pool: process "
                    "workers cannot be held to a shared budget"
                )


@dataclass
class ServiceStats:
    """Aggregate counters of one service run (CLI summary source)."""

    jobs_by_state: Dict[str, int] = field(default_factory=dict)
    dedup_hits: int = 0
    qpu_grants: int = 0
    qpu_busy_us: float = 0.0
    wall_seconds: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_subsumption_hits: int = 0
    cache_warm_starts: int = 0
    cache_errors: int = 0

    def count(self, state: str) -> None:
        self.jobs_by_state[state] = self.jobs_by_state.get(state, 0) + 1

    @property
    def total_jobs(self) -> int:
        return sum(self.jobs_by_state.values())


class SolverService:
    """The job coordinator (see module docstring).

    ``observability`` is an optional
    :class:`~repro.observability.Observability` bundle used only from
    the coordinating thread.  ``router`` (a
    :class:`~repro.gateway.fleet.FleetRouter`) places hybrid jobs that
    pin no ``topology``/``grid``.  ``on_outcome(outcome)`` fires as
    each job finalises; ``on_start(spec, decision)`` fires when a
    popped job has been read and placed (``decision`` is the router's
    :class:`~repro.gateway.fleet.RoutingDecision`, None when the job was
    not routed), before its dedup check, cache lookup or dispatch.
    """

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        observability=None,
        router=None,
        on_outcome: Optional[Callable[[JobOutcome], None]] = None,
        on_start: Optional[Callable] = None,
    ):
        from repro.observability import DISABLED, declare_solver_metrics

        self.config = config or ServiceConfig()
        self.queue = JobQueue(max_depth=self.config.max_depth)
        #: Persistent result cache (``None`` when disabled); used only
        #: on the coordinating thread.
        self.cache = None
        if self.config.cache_path is not None:
            from repro.cache import PersistentResultStore

            self.cache = PersistentResultStore(
                self.config.cache_path,
                max_entries=self.config.cache_cap,
                ttl_s=self.config.cache_ttl_s,
            )
        self.router = router
        #: (topology, grid) -> the arbiter of that lattice's QPU, built
        #: on first use.
        self.schedulers: Dict[Tuple[str, int], QpuScheduler] = {}
        self.pool = WorkerPool(
            workers=self.config.workers, mode=self.config.pool_mode
        )
        #: Opening the journal performs crash recovery: the valid
        #: record prefix is parsed and any torn tail truncated away.
        self.journal: Optional[JobJournal] = (
            JobJournal(self.config.journal_path)
            if self.config.journal_path is not None
            else None
        )
        self.stats = ServiceStats()
        self.observability = observability or DISABLED
        if self.observability.metrics is not None:
            declare_solver_metrics(self.observability.metrics)
        self.on_outcome = on_outcome
        self.on_start = on_start
        #: Finished worker futures' job ids, for :meth:`run`.
        self._completions: "queue_module.Queue[str]" = queue_module.Queue()
        #: Hands a finished job's id to the coordinating thread; called
        #: on the worker's thread.  A front end with its own loop
        #: replaces it (the gateway posts to its event loop).
        self.wake: Callable[[str], None] = self._completions.put
        self._free_slots = self.config.workers
        # Per-job state, all of it dropped once the service is idle.
        #: Ids admitted and not yet finalised (queued or running).
        self._live: set = set()
        #: dispatched job_id ->
        #: (spec, future, waited_s, dedup key, formula, warm start)
        self._inflight: Dict[str, Tuple] = {}
        #: dedup key -> job id of the in-flight primary solving it
        self._claims: Dict[str, str] = {}
        #: dedup key -> parked duplicate (spec, waited_s) pairs
        self._followers: Dict[str, List[Tuple[JobSpec, float]]] = {}
        #: dedup key -> finished ``done`` primary outcome
        self._primaries: Dict[str, JobOutcome] = {}
        #: job_id -> times resubmitted after a worker-process death.
        self._worker_retries: Dict[str, int] = {}

    # -- the coordinator ------------------------------------------------

    @property
    def idle(self) -> bool:
        """True when no job is queued or running."""
        return not self._inflight and len(self.queue) == 0

    def submit(self, spec: JobSpec) -> None:
        """Admit ``spec``; raises :class:`AdmissionError` when the queue
        is full or closed or a job with its id is queued or running.
        A job the journal acked before a crash is finalised from its
        record instead (never re-solved)."""
        obs = self.observability
        if self.journal is not None:
            recovered = self.journal.recovered_outcome(spec)
            if recovered is not None:
                # Acked before the crash: re-emit the journaled outcome
                # exactly once, and bill its QPU usage into this
                # session's ledger so modelled time is charged once.
                outcome = JobOutcome.from_dict(recovered)
                obs.tracer.event(
                    "service.recover", job_id=spec.job_id, state=outcome.state
                )
                if obs.metrics is not None:
                    obs.metrics.counter("hyqsat_service_recoveries_total").inc()
                if not spec.classic and (
                    outcome.qa_calls or outcome.qpu_time_us
                ):
                    self._scheduler_for(spec).replay(
                        spec.job_id, outcome.qa_calls, outcome.qpu_time_us
                    )
                self._finalise(outcome, record=False)
                return
            self.journal.record_submit(spec)
        if spec.job_id in self._live:
            raise AdmissionError(f"duplicate job id {spec.job_id!r}")
        self.queue.push(spec)
        self._live.add(spec.job_id)
        obs.tracer.event(
            "service.admit", job_id=spec.job_id, priority=spec.priority
        )

    def cancel(self, job_id: str) -> bool:
        """Cancel a still-queued job and finalise it ``cancelled``
        (running jobs finish); False when ``job_id`` is not queued."""
        if not self.queue.cancel(job_id):
            return False
        self.observability.tracer.event("service.cancel", job_id=job_id)
        self._finalise(
            JobOutcome(
                job_id=job_id, state="cancelled", error="cancelled while queued"
            )
        )
        return True

    def pump(self) -> None:
        """Pop queued jobs while a worker slot is free.  Followers,
        cache hits, expired and unreadable jobs take no slot, so popping
        goes on until a slot is used or the queue is empty.  Once the
        service is idle, every per-job entry is dropped."""
        while self._free_slots > 0:
            spec, expired, waited = self.queue.pop(timeout=0)
            for dead in expired:
                self.observability.tracer.event(
                    "service.expire", job_id=dead.job_id
                )
                self._finalise(
                    JobOutcome(
                        job_id=dead.job_id,
                        state="expired",
                        error="queue deadline exceeded",
                        seed=dead.seed,
                    )
                )
            if spec is None:
                break
            self._start(spec, waited)
        if self.idle:
            # Claims, followers and in-flight entries are empty by now.
            self._primaries.clear()
            self._worker_retries.clear()
            for scheduler in self.schedulers.values():
                scheduler.stats.spent_by_job.clear()

    def complete(self, job_id: str) -> None:
        """Finalise dispatched job ``job_id`` once its worker finished
        (the id :attr:`wake` delivered)."""
        obs = self.observability
        spec, future, waited, key, formula, warm = self._inflight.pop(job_id)
        self._free_slots += 1
        try:
            outcome = future.result()  # run_job never raises
        except concurrent.futures.BrokenExecutor:
            # A worker process died mid-job and poisoned the pool.
            # Respawn the executor (a no-op unless it is actually
            # broken) and return the job to the pool a bounded number
            # of times instead of hanging or losing it.
            self.pool.respawn()
            retries = self._worker_retries.get(job_id, 0)
            if retries < MAX_WORKER_RETRIES:
                self._worker_retries[job_id] = retries + 1
                if self.journal is not None:
                    self.journal.record_retry(job_id, "worker process died")
                obs.tracer.event(
                    "service.retry", job_id=job_id, attempt=retries + 1
                )
                if obs.metrics is not None:
                    obs.metrics.counter(
                        "hyqsat_service_worker_retries_total"
                    ).inc()
                self._dispatch(spec, waited, key, formula, warm)
                return
            outcome = JobOutcome(
                job_id=job_id,
                state="failed",
                error="worker process died (retries exhausted)",
                seed=spec.seed,
            )
        outcome.wait_seconds = waited
        if not spec.classic and (
            not self.pool.live_scheduling or outcome.resumed
        ):
            # Process workers solved in another address space, and a
            # checkpoint-resumed solve made no live QA calls
            # (checkpoints only exist post-warm-up): fold their device
            # usage into the lattice's ledger so it is billed once.
            self._scheduler_for(spec).replay(
                job_id, outcome.qa_calls, outcome.qpu_time_us
            )
        if self.cache is not None and key is not None:
            saved = self.cache.after_solve(key, formula, outcome, warm)
            if saved is not None:
                obs.tracer.event(
                    "service.warm_start",
                    job_id=job_id,
                    clauses=outcome.warm_clauses,
                    conflicts_saved=saved,
                )
        self._finalise(outcome)
        if key is not None:
            self._settle(key, outcome)

    def close(self, wait: bool = True) -> None:
        """Stop the pool (``wait=False`` abandons queued work and lets
        running jobs finish in the background), fold the schedulers'
        and cache's counters into :attr:`stats` and the metrics, and
        close the journal and the cache."""
        obs = self.observability
        self.queue.close()
        self.pool.shutdown(wait=wait, cancel_pending=not wait)
        if self.journal is not None:
            self.journal.close()
        stats = self.stats
        if self.cache is not None:
            cache_stats = self.cache.stats
            stats.cache_hits = cache_stats.hits
            stats.cache_misses = cache_stats.misses
            stats.cache_subsumption_hits = sum(
                cache_stats.subsumption_hits.values()
            )
            stats.cache_warm_starts = cache_stats.warm_starts
            stats.cache_errors = cache_stats.errors
        schedulers = [s.stats for s in self.schedulers.values()]
        stats.qpu_grants = sum(s.grants for s in schedulers)
        stats.qpu_busy_us = sum(s.busy_us for s in schedulers)
        if obs.metrics is not None:
            metrics = obs.metrics
            if stats.qpu_grants:
                metrics.counter("hyqsat_service_qpu_grants_total").inc(
                    stats.qpu_grants
                )
            metrics.gauge("hyqsat_service_qpu_busy_us").set(stats.qpu_busy_us)
            if self.cache is not None:
                self.cache.flush_metrics(metrics)
            if self.journal is not None:
                jstats = self.journal.stats
                for kind, count in sorted(jstats.records_by_kind.items()):
                    metrics.counter("hyqsat_journal_records_total").labels(
                        kind=kind
                    ).inc(count)
                for name, value in (
                    ("hyqsat_journal_fsyncs_total", jstats.fsyncs),
                    ("hyqsat_journal_replayed_total", jstats.replayed),
                    ("hyqsat_journal_torn_records_total", jstats.torn_records),
                ):
                    if value:
                        metrics.counter(name).inc(value)
        if self.cache is not None:
            self.cache.close()

    # -- the batch front end --------------------------------------------

    def run(
        self,
        specs: Sequence[JobSpec],
        on_outcome: Optional[Callable[[JobOutcome], None]] = None,
    ) -> List[JobOutcome]:
        """Admit ``specs``, drive them to completion from this thread,
        then :meth:`close` the service.

        Returns outcomes in **submission order** regardless of
        completion order; ``on_outcome`` (in place of the one given at
        construction) fires in completion order as each job finalises
        (the streaming hook ``hyqsat serve`` writes result lines from).
        A spec the queue refuses finalises ``rejected``.
        """
        tracer = self.observability.tracer
        started = time.perf_counter()
        outcomes: Dict[str, JobOutcome] = {}

        def collect(outcome: JobOutcome) -> None:
            outcomes[outcome.job_id] = outcome
            if on_outcome is not None:
                on_outcome(outcome)

        self.on_outcome = collect
        batch_span = tracer.start_span(
            "service.batch",
            jobs=len(specs),
            workers=self.config.workers,
            pool=self.config.pool_mode,
        )
        wait = True
        try:
            for spec in specs:
                try:
                    self.submit(spec)
                except AdmissionError as error:
                    tracer.event(
                        "service.reject", job_id=spec.job_id, reason=str(error)
                    )
                    self._finalise(
                        JobOutcome(
                            job_id=spec.job_id,
                            state="rejected",
                            error=str(error),
                            seed=spec.seed,
                        )
                    )
            self._set_depth_gauge()
            self.pump()
            while self._inflight:
                self.complete(self._completions.get())
                self.pump()
        except BaseException:
            # Interrupt/crash: stop feeding workers and return control
            # immediately; already-running jobs finish in the
            # background (their streamed results stay valid).
            wait = False
            raise
        finally:
            self.close(wait=wait)
            self.stats.wall_seconds = time.perf_counter() - started
            batch_span.end(
                done=self.stats.jobs_by_state.get("done", 0),
                deduped=self.stats.jobs_by_state.get("deduped", 0),
                failed=self.stats.jobs_by_state.get("failed", 0),
            )
        return [outcomes[spec.job_id] for spec in specs]

    # -- internals ------------------------------------------------------

    def _scheduler_for(self, spec: JobSpec) -> QpuScheduler:
        """The arbiter of ``spec``'s lattice (chimera / 16 unless
        pinned, as in ``hyqsat solve``)."""
        lattice = (spec.topology or "chimera", spec.grid or 16)
        scheduler = self.schedulers.get(lattice)
        if scheduler is None:
            scheduler = self.schedulers[lattice] = QpuScheduler(
                budget_us=self.config.qpu_budget_us
            )
        return scheduler

    def _set_depth_gauge(self) -> None:
        if self.observability.metrics is not None:
            self.observability.metrics.gauge("hyqsat_service_queue_depth").set(
                len(self.queue)
            )

    def _start(self, spec: JobSpec, waited: float) -> None:
        """One popped job: read it once, place it, then follow a
        primary, take a cache answer or dispatch it."""
        obs = self.observability
        decision = key = None
        try:
            formula = spec.load_formula()
            if not spec.classic:
                if self.router is not None and (
                    spec.topology is None and spec.grid is None
                ):
                    # Pin the placement so the solve (and any solo
                    # replay of it) builds exactly the routed device.
                    decision = self.router.route(formula)
                    spec.topology = decision.qpu.topology
                    spec.grid = decision.qpu.grid
                if self.config.dedup or self.cache is not None:
                    key = spec.solve_key(fingerprint(formula))
        except Exception as error:  # noqa: BLE001 — unreadable instance
            self._finalise(
                JobOutcome(
                    job_id=spec.job_id,
                    state="failed",
                    error=f"{type(error).__name__}: {error}",
                    seed=spec.seed,
                    wait_seconds=waited,
                )
            )
            return
        if self.on_start is not None:
            self.on_start(spec, decision)
        if key is not None and self.config.dedup:
            primary = self._primaries.get(key)
            primary_id = (
                self._claims.get(key) if primary is None else primary.job_id
            )
            if primary_id is not None:
                self.stats.dedup_hits += 1
                obs.tracer.event(
                    "service.dedup", job_id=spec.job_id, primary=primary_id
                )
                if obs.metrics is not None:
                    obs.metrics.counter("hyqsat_service_dedup_hits_total").inc()
                if primary is not None:
                    self._credit(spec, waited, primary)
                else:
                    self._followers.setdefault(key, []).append((spec, waited))
                return
            self._claims[key] = spec.job_id
        warm = None
        if self.cache is not None and key is not None:
            hit, warm = self.cache.before_solve(key, spec, formula)
            if hit is not None:
                hit.wait_seconds = waited
                obs.tracer.event(
                    "service.cache_hit", job_id=spec.job_id, kind=hit.cache_kind
                )
                self._finalise(hit)
                self._settle(key, hit)
                return
        if self.journal is not None:
            self.journal.record_start(spec.job_id)
        self._dispatch(spec, waited, key, formula, warm)

    def _dispatch(self, spec, waited, key, formula, warm) -> None:
        live = self.pool.live_scheduling and not spec.classic
        future = self.pool.submit(
            run_job,
            spec,
            self._scheduler_for(spec) if live else None,
            self.config.checkpoint_dir,
            warm.clauses if warm is not None else None,
            self.cache is not None and key is not None,
            formula,
        )
        self._free_slots -= 1
        self._inflight[spec.job_id] = (spec, future, waited, key, formula, warm)
        future.add_done_callback(lambda _f, jid=spec.job_id: self.wake(jid))

    def _finalise(self, outcome: JobOutcome, record: bool = True) -> None:
        obs = self.observability
        if record and self.journal is not None:
            # The ack: fsynced before the consumer can observe the
            # result, so "emitted" always implies "journaled".
            self.journal.record_done(outcome)
        self._live.discard(outcome.job_id)
        self.stats.count(outcome.state)
        if obs.metrics is not None:
            obs.metrics.counter("hyqsat_service_jobs_total").labels(
                state=outcome.state
            ).inc()
            if outcome.state in ("done", "failed") and outcome.dedup_of is None:
                obs.metrics.histogram(
                    "hyqsat_service_queue_wait_seconds"
                ).observe(outcome.wait_seconds)
                obs.metrics.histogram("hyqsat_service_job_run_seconds").observe(
                    outcome.run_seconds
                )
            self._set_depth_gauge()
        if obs.tracer.enabled:
            obs.tracer.start_span("service.job", job_id=outcome.job_id).end(
                state=outcome.state,
                status=outcome.status,
                wait_s=round(outcome.wait_seconds, 6),
                run_s=round(outcome.run_seconds, 6),
                qa_calls=outcome.qa_calls,
                dedup_of=outcome.dedup_of,
            )
        if self.on_outcome is not None:
            self.on_outcome(outcome)

    def _credit(self, spec: JobSpec, waited: float, primary: JobOutcome) -> None:
        self._finalise(
            JobOutcome(job_id=spec.job_id, wait_seconds=waited).as_dedup_of(
                primary, spec.job_id
            )
        )

    def _settle(self, key: str, primary: JobOutcome) -> None:
        self._claims.pop(key, None)
        if primary.state == "done":
            self._primaries[key] = primary
        for spec, waited in self._followers.pop(key, []):
            self._credit(spec, waited, primary)


def run_batch(
    specs: Sequence[JobSpec],
    observability=None,
    on_outcome: Optional[Callable[[JobOutcome], None]] = None,
    **config,
) -> Tuple[List[JobOutcome], "ServiceStats"]:
    """One-shot convenience: build a service from
    :class:`ServiceConfig` keyword arguments, run ``specs``, return
    ``(outcomes, stats)`` (outcomes in submission order)."""
    service = SolverService(
        ServiceConfig(**config), observability=observability
    )
    return service.run(specs, on_outcome=on_outcome), service.stats
