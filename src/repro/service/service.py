"""The in-process solver service coordinator.

:class:`SolverService` wires the subsystem together: jobs are admitted
into a :class:`~repro.service.queue.JobQueue` (priority, deadlines,
admission control), dispatched onto a :class:`~repro.service.pool.
WorkerPool` as worker slots free up, deduplicated by solve key, and
their anneal requests arbitrated by one shared
:class:`~repro.service.scheduler.QpuScheduler`.

Deduplication: the first job to claim a
:meth:`~repro.service.jobs.JobSpec.solve_key` is its *primary* and
solves; a later job with the same key is a *follower*, handed the
primary's outcome (``deduped``, ``dedup_of`` naming the primary; a
follower of a primary that is not ``done`` finalises in the primary's
state).  A ``done`` primary answers duplicates for the rest of the
session; any other outcome releases the claim, so the next duplicate
re-solves.  Results outlive a session only in the persistent cache.

Threading model: **all** coordination — queue pops, dedup decisions,
outcome finalisation, and every tracer/metrics touch — happens on the
single thread that calls :meth:`run`.  Worker threads/processes only
execute :func:`~repro.service.jobs.run_job` and push a completion
token onto an internal queue; the tracer's explicit span stack is never
shared.  That makes the service safe on every pool mode without a
single lock around the observability layer.

Determinism: a job's solver output depends only on its spec — same
seed, same device construction as a solo ``hyqsat solve`` — never on
worker count, dispatch order, or sibling jobs.  The batch bit-identity
tests pin this property.
"""

from __future__ import annotations

import concurrent.futures
import queue as queue_module
import threading
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
    #: Shared modelled-µs cap on the QPU pool (``None`` = unlimited).
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


@dataclass
class ServiceStats:
    """Aggregate counters of one service run (CLI summary source)."""

    jobs_by_state: Dict[str, int] = field(default_factory=dict)
    dedup_hits: int = 0
    qpu_grants: int = 0
    qpu_coalesced: int = 0
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
    """Concurrent solve orchestrator (see module docstring).

    One instance serves one batch/serve session; construct fresh per
    run.  ``observability`` is an optional
    :class:`~repro.observability.Observability` bundle used only from
    the coordinator thread.
    """

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        observability=None,
    ):
        from repro.observability import DISABLED, declare_solver_metrics

        self.config = config or ServiceConfig()
        self.queue = JobQueue(max_depth=self.config.max_depth)
        #: Persistent result cache (``None`` when disabled).  Opened on
        #: the coordinator thread; workers never touch it.
        self.cache = None
        if self.config.cache_path is not None:
            from repro.cache import PersistentResultStore

            self.cache = PersistentResultStore(
                self.config.cache_path,
                max_entries=self.config.cache_cap,
                ttl_s=self.config.cache_ttl_s,
            )
        self.scheduler = QpuScheduler(budget_us=self.config.qpu_budget_us)
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
        #: job_id -> times resubmitted after a worker-process death.
        self._worker_retries: Dict[str, int] = {}
        self.stats = ServiceStats()
        self.observability = observability or DISABLED
        if self.observability.metrics is not None:
            declare_solver_metrics(self.observability.metrics)
        #: Completion tokens: ``("done", job_id)`` from worker
        #: callbacks, ``("cancelled", job_id)`` from :meth:`cancel`.
        self._completions: "queue_module.Queue[Tuple[str, str]]" = (
            queue_module.Queue()
        )
        self._cancelled_ids: set = set()
        self._cancel_lock = threading.Lock()

    # -- control surface ----------------------------------------------

    def cancel(self, job_id: str) -> bool:
        """Cancel a still-queued job (running jobs finish).  Safe from
        any thread; returns False when the job is unknown, already
        dispatched, or already finished."""
        if self.queue.cancel(job_id):
            with self._cancel_lock:
                self._cancelled_ids.add(job_id)
            self._completions.put(("cancelled", job_id))
            return True
        return False

    # -- the run loop --------------------------------------------------

    def run(
        self,
        specs: Sequence[JobSpec],
        on_outcome: Optional[Callable[[JobOutcome], None]] = None,
    ) -> List[JobOutcome]:
        """Admit, dispatch, and finalise ``specs``; block to completion.

        Returns outcomes in **submission order** regardless of
        completion order; ``on_outcome`` fires in completion order as
        each job finalises (the streaming hook ``hyqsat serve`` writes
        result lines from).
        """
        obs = self.observability
        tracer = obs.tracer
        started = time.perf_counter()
        outcomes: Dict[str, JobOutcome] = {}
        #: dispatched job_id ->
        #: (spec, future, waited_s, dedup key, formula, warm start)
        inflight: Dict[str, Tuple] = {}
        #: dedup key -> job id of the in-flight primary solving it
        claims: Dict[str, str] = {}
        #: dedup key -> parked duplicate (spec, waited_s) pairs
        followers: Dict[str, List[Tuple[JobSpec, float]]] = {}
        #: dedup key -> finished ``done`` primary outcome
        primaries: Dict[str, JobOutcome] = {}
        free_slots = self.config.workers

        def finalise(outcome: JobOutcome, record: bool = True) -> None:
            if record and self.journal is not None:
                # The ack: fsynced before the consumer can observe the
                # result, so "emitted" always implies "journaled".
                self.journal.record_done(outcome)
            outcomes[outcome.job_id] = outcome
            self.stats.count(outcome.state)
            if obs.metrics is not None:
                obs.metrics.counter("hyqsat_service_jobs_total").labels(
                    state=outcome.state
                ).inc()
                if outcome.state in ("done", "failed") and (
                    outcome.dedup_of is None
                ):
                    obs.metrics.histogram(
                        "hyqsat_service_queue_wait_seconds"
                    ).observe(outcome.wait_seconds)
                    obs.metrics.histogram(
                        "hyqsat_service_job_run_seconds"
                    ).observe(outcome.run_seconds)
                obs.metrics.gauge("hyqsat_service_queue_depth").set(
                    len(self.queue)
                )
            if tracer.enabled:
                tracer.start_span("service.job", job_id=outcome.job_id).end(
                    state=outcome.state,
                    status=outcome.status,
                    wait_s=round(outcome.wait_seconds, 6),
                    run_s=round(outcome.run_seconds, 6),
                    qa_calls=outcome.qa_calls,
                    dedup_of=outcome.dedup_of,
                )
            if on_outcome is not None:
                on_outcome(outcome)

        def credit(spec: JobSpec, waited: float, primary: JobOutcome) -> None:
            finalise(
                JobOutcome(job_id=spec.job_id, wait_seconds=waited)
                .as_dedup_of(primary, spec.job_id)
            )

        def settle(key: str, primary: JobOutcome) -> None:
            claims.pop(key, None)
            if primary.state == "done":
                primaries[key] = primary
            for spec, waited in followers.pop(key, []):
                credit(spec, waited, primary)

        def dispatch(spec, waited, key, formula, warm) -> None:
            nonlocal free_slots
            live = self.pool.live_scheduling and not spec.classic
            future = self.pool.submit(
                run_job,
                spec,
                self.scheduler if live else None,
                self.config.checkpoint_dir,
                warm.clauses if warm is not None else None,
                self.cache is not None and key is not None,
                formula,
            )
            free_slots -= 1
            inflight[spec.job_id] = (spec, future, waited, key, formula, warm)
            future.add_done_callback(
                lambda _f, jid=spec.job_id: self._completions.put(
                    ("done", jid)
                )
            )

        batch_span = tracer.start_span(
            "service.batch",
            jobs=len(specs),
            workers=self.config.workers,
            pool=self.config.pool_mode,
        )
        try:
            # Admission: every spec either replays from the journal,
            # enters the queue, or is rejected on the spot.
            pending = 0
            for spec in specs:
                if self.journal is not None:
                    recovered = self.journal.recovered_outcome(spec)
                    if recovered is not None:
                        # Acked before the crash: re-emit the journaled
                        # outcome exactly once, never re-solve — and
                        # bill its QPU usage into this session's ledger
                        # so modelled time is charged once overall.
                        outcome = JobOutcome.from_dict(recovered)
                        tracer.event(
                            "service.recover",
                            job_id=spec.job_id,
                            state=outcome.state,
                        )
                        if obs.metrics is not None:
                            obs.metrics.counter(
                                "hyqsat_service_recoveries_total"
                            ).inc()
                        if not spec.classic and (
                            outcome.qa_calls or outcome.qpu_time_us
                        ):
                            self.scheduler.replay(
                                spec.job_id,
                                outcome.qa_calls,
                                outcome.qpu_time_us,
                            )
                        finalise(outcome, record=False)
                        continue
                try:
                    if self.journal is not None:
                        self.journal.record_submit(spec)
                    self.queue.push(spec)
                    pending += 1
                    tracer.event(
                        "service.admit",
                        job_id=spec.job_id,
                        priority=spec.priority,
                    )
                except AdmissionError as error:
                    tracer.event(
                        "service.reject", job_id=spec.job_id, reason=str(error)
                    )
                    finalise(
                        JobOutcome(
                            job_id=spec.job_id,
                            state="rejected",
                            error=str(error),
                            seed=spec.seed,
                        )
                    )
            if obs.metrics is not None:
                obs.metrics.gauge("hyqsat_service_queue_depth").set(
                    len(self.queue)
                )

            while pending > 0 or inflight:
                # Fill free worker slots from the queue.  Followers and
                # expired/cancelled jobs consume no slot, so keep
                # popping until a slot is actually used or the queue is
                # momentarily empty.
                while free_slots > 0 and pending > 0:
                    spec, expired, waited = self.queue.pop(timeout=0)
                    for dead in expired:
                        pending -= 1
                        tracer.event("service.expire", job_id=dead.job_id)
                        finalise(
                            JobOutcome(
                                job_id=dead.job_id,
                                state="expired",
                                error="queue deadline exceeded",
                                seed=dead.seed,
                            )
                        )
                    if spec is None:
                        break
                    pending -= 1
                    key: Optional[str] = None
                    formula = None
                    want_key = (
                        self.config.dedup or self.cache is not None
                    ) and not spec.classic
                    if want_key:
                        try:
                            formula = spec.load_formula()
                            key = spec.solve_key(fingerprint(formula))
                        except Exception:  # noqa: BLE001 — unreadable
                            key = formula = None  # run_job reports it
                    if key is not None and self.config.dedup:
                        primary = primaries.get(key)
                        primary_id = (
                            claims.get(key)
                            if primary is None
                            else primary.job_id
                        )
                        if primary_id is not None:
                            self.stats.dedup_hits += 1
                            tracer.event(
                                "service.dedup",
                                job_id=spec.job_id,
                                primary=primary_id,
                            )
                            if obs.metrics is not None:
                                obs.metrics.counter(
                                    "hyqsat_service_dedup_hits_total"
                                ).inc()
                            if primary is not None:
                                credit(spec, waited, primary)
                            else:
                                followers.setdefault(key, []).append(
                                    (spec, waited)
                                )
                            continue
                        claims[key] = spec.job_id
                    warm = None
                    if self.cache is not None and key is not None:
                        hit, warm = self.cache.before_solve(
                            key, spec, formula
                        )
                        if hit is not None:
                            hit.wait_seconds = waited
                            tracer.event(
                                "service.cache_hit",
                                job_id=spec.job_id,
                                kind=hit.cache_kind,
                            )
                            finalise(hit)
                            settle(key, hit)
                            continue
                    if self.journal is not None:
                        self.journal.record_start(spec.job_id)
                    dispatch(spec, waited, key, formula, warm)

                if not inflight and pending == 0:
                    break
                kind, job_id = self._completions.get()
                if kind == "cancelled":
                    pending -= 1
                    tracer.event("service.cancel", job_id=job_id)
                    finalise(
                        JobOutcome(
                            job_id=job_id,
                            state="cancelled",
                            error="cancelled while queued",
                        )
                    )
                    continue
                spec, future, waited, key, formula, warm = inflight.pop(
                    job_id
                )
                free_slots += 1
                try:
                    outcome = future.result()  # run_job never raises
                except concurrent.futures.BrokenExecutor:
                    # A worker process died mid-job and poisoned the
                    # pool.  Respawn the executor (a no-op unless it is
                    # actually broken) and return the job to the pool a
                    # bounded number of times instead of hanging or
                    # losing it.
                    self.pool.respawn()
                    retries = self._worker_retries.get(job_id, 0)
                    if retries < MAX_WORKER_RETRIES:
                        self._worker_retries[job_id] = retries + 1
                        if self.journal is not None:
                            self.journal.record_retry(
                                job_id, "worker process died"
                            )
                        tracer.event(
                            "service.retry",
                            job_id=job_id,
                            attempt=retries + 1,
                        )
                        if obs.metrics is not None:
                            obs.metrics.counter(
                                "hyqsat_service_worker_retries_total"
                            ).inc()
                        dispatch(spec, waited, key, formula, warm)
                        continue
                    outcome = JobOutcome(
                        job_id=job_id,
                        state="failed",
                        error="worker process died (retries exhausted)",
                        seed=spec.seed,
                    )
                outcome.wait_seconds = waited
                if not self.pool.live_scheduling and not spec.classic:
                    # Process workers solved in another address space;
                    # fold their device usage into the shared ledger.
                    self.scheduler.replay(
                        job_id, outcome.qa_calls, outcome.qpu_time_us
                    )
                elif outcome.resumed and not spec.classic:
                    # A checkpoint-resumed solve made no live QA calls
                    # (checkpoints only exist post-warm-up): bill its
                    # restored counters so the session ledger carries
                    # the job's usage exactly once.
                    self.scheduler.replay(
                        job_id, outcome.qa_calls, outcome.qpu_time_us
                    )
                if self.cache is not None and key is not None:
                    saved = self.cache.after_solve(
                        key, formula, outcome, warm
                    )
                    if saved is not None:
                        tracer.event(
                            "service.warm_start",
                            job_id=job_id,
                            clauses=outcome.warm_clauses,
                            conflicts_saved=saved,
                        )
                finalise(outcome)
                if key is not None:
                    settle(key, outcome)
        except BaseException:
            # Interrupt/crash: stop feeding workers and return control
            # immediately; already-running jobs finish in the
            # background (their streamed results stay valid).
            self.queue.close()
            self.pool.shutdown(wait=False, cancel_pending=True)
            raise
        else:
            self.pool.shutdown(wait=True)
        finally:
            if self.journal is not None:
                self.journal.close()
            if self.cache is not None:
                self.stats.cache_hits = self.cache.stats.hits
                self.stats.cache_misses = self.cache.stats.misses
                self.stats.cache_subsumption_hits = sum(
                    self.cache.stats.subsumption_hits.values()
                )
                self.stats.cache_warm_starts = self.cache.stats.warm_starts
                self.stats.cache_errors = self.cache.stats.errors
            self.stats.wall_seconds = time.perf_counter() - started
            self.stats.qpu_grants = self.scheduler.stats.grants
            self.stats.qpu_coalesced = self.scheduler.stats.coalesced
            self.stats.qpu_busy_us = self.scheduler.stats.busy_us
            if obs.metrics is not None:
                metrics = obs.metrics
                if self.scheduler.stats.grants:
                    metrics.counter(
                        "hyqsat_service_qpu_grants_total"
                    ).inc(self.scheduler.stats.grants)
                if self.scheduler.stats.coalesced:
                    metrics.counter(
                        "hyqsat_service_qpu_coalesced_total"
                    ).inc(self.scheduler.stats.coalesced)
                metrics.gauge("hyqsat_service_qpu_busy_us").set(
                    self.scheduler.stats.busy_us
                )
                if self.cache is not None:
                    self.cache.flush_metrics(metrics)
                if self.journal is not None:
                    jstats = self.journal.stats
                    for kind, count in sorted(
                        jstats.records_by_kind.items()
                    ):
                        metrics.counter(
                            "hyqsat_journal_records_total"
                        ).labels(kind=kind).inc(count)
                    if jstats.fsyncs:
                        metrics.counter(
                            "hyqsat_journal_fsyncs_total"
                        ).inc(jstats.fsyncs)
                    if jstats.replayed:
                        metrics.counter(
                            "hyqsat_journal_replayed_total"
                        ).inc(jstats.replayed)
                    if jstats.torn_records:
                        metrics.counter(
                            "hyqsat_journal_torn_records_total"
                        ).inc(jstats.torn_records)
            if self.cache is not None:
                self.cache.close()
            batch_span.end(
                done=self.stats.jobs_by_state.get("done", 0),
                deduped=self.stats.jobs_by_state.get("deduped", 0),
                failed=self.stats.jobs_by_state.get("failed", 0),
            )
        return [outcomes[spec.job_id] for spec in specs]


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
