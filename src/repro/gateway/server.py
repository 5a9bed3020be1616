"""The asyncio gateway server: socket -> queue -> fleet.

One event loop owns everything except the solves themselves:
connection handlers parse and answer protocol messages, admitted jobs
enter the shared :class:`~repro.service.queue.JobQueue` (the same
admission/priority/deadline engine ``hyqsat serve`` uses), and a
dispatcher coroutine feeds popped jobs to a thread pool bounded by
the worker count.  Each solve runs
:func:`~repro.service.jobs.run_job` with the
:class:`~repro.service.scheduler.QpuScheduler` of the fleet device
the router picked — so per seed, a gateway solve is bit-identical to
``hyqsat solve`` with the placement's ``--topology``/``--grid``.

Observability follows the service's single-threaded rule: spans,
events, and metrics are emitted only from the event loop thread
(worker threads never touch the bundle), under the ``gateway.session``
root span documented in docs/TELEMETRY.md.

Backpressure and fairness are admission-time: the tenant ledger
answers ``rate_limited``/``quota_exhausted`` and a full queue answers
``backpressure``, each as a ``reject`` carrying ``retry_after_s`` (an
EWMA of recent run times scaled by queue depth) while the connection
stays open.  Shutdown is a drain: stop accepting, let queued and
running jobs finish (bounded by ``drain_grace_s``), stream their
results, then say ``goodbye``.
"""

from __future__ import annotations

import asyncio
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set

from repro.gateway import protocol
from repro.gateway.fleet import FleetRouter, GatewayQpu, parse_fleet_spec
from repro.gateway.limits import TenantLedger, TenantPolicy
from repro.service.jobs import JobOutcome, JobSpec, run_job
from repro.service.queue import AdmissionError, JobQueue

#: Fallback retry-after before any job has finished (seconds).
_INITIAL_RUN_EWMA_S = 1.0
#: EWMA smoothing for observed run times.
_RUN_EWMA_ALPHA = 0.3


@dataclass
class GatewayConfig:
    """Gateway deployment knobs (every ``hyqsat gateway`` flag)."""

    host: str = "127.0.0.1"
    port: int = 7465
    workers: int = 2
    max_depth: Optional[int] = 64
    fleet: str = "chimera:16"
    rate_per_s: float = 20.0
    burst: int = 40
    tenant_budget_us: Optional[float] = None
    #: Accepted API keys; empty = open gateway (anonymous tenant).
    api_keys: tuple = ()
    #: Fixed retry-after hint; None = estimate from load.
    retry_after_s: Optional[float] = None
    #: Seconds to wait for in-flight jobs at shutdown.
    drain_grace_s: float = 30.0
    #: Shared per-device modelled QPU budget (None = unmetered).
    qpu_budget_us: Optional[float] = None
    #: SQLite file of the persistent result cache
    #: (:class:`~repro.cache.PersistentResultStore`); None = no cache.
    cache_db: Optional[str] = None
    #: LRU cap on exact-result rows in the cache (None = unbounded).
    cache_cap: Optional[int] = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.max_depth is not None and self.max_depth < 1:
            raise ValueError("max_depth must be >= 1 when set")
        if self.drain_grace_s < 0:
            raise ValueError("drain_grace_s must be >= 0")
        if self.cache_cap is not None and self.cache_cap < 1:
            raise ValueError("cache_cap must be >= 1 when set")


@dataclass
class GatewayStats:
    """Lifetime counters (mirrored into ``hyqsat_gateway_*`` metrics)."""

    connections: int = 0
    active_connections: int = 0
    messages: Dict[str, int] = field(default_factory=dict)
    sent: Dict[str, int] = field(default_factory=dict)
    jobs: Dict[str, int] = field(default_factory=dict)
    rate_limited: int = 0
    quota_denied: int = 0
    backpressure_rejects: int = 0


class _Connection:
    """Per-connection state: writer, tenant, and its submitted jobs."""

    def __init__(self, writer: asyncio.StreamWriter, peer: str):
        self.writer = writer
        self.peer = peer
        self.tenant: Optional[str] = None
        self.send_lock = asyncio.Lock()
        self.job_ids: Set[str] = set()
        self.closed = False

    async def send(self, message: Dict[str, Any]) -> None:
        if self.closed:
            return
        async with self.send_lock:
            try:
                self.writer.write(protocol.encode(message))
                await self.writer.drain()
            except (ConnectionError, RuntimeError):
                self.closed = True


class GatewayServer:
    """The long-running TCP gateway (``hyqsat gateway``)."""

    def __init__(self, config: GatewayConfig, observability=None):
        from repro.observability import DISABLED, declare_gateway_metrics

        self.config = config
        self.observability = observability or DISABLED
        if self.observability.metrics is not None:
            declare_gateway_metrics(self.observability.metrics)
        self.fleet: List[GatewayQpu] = parse_fleet_spec(config.fleet)
        self.router = FleetRouter(self.fleet, qpu_budget_us=config.qpu_budget_us)
        self.queue = JobQueue(max_depth=config.max_depth)
        self.ledger = TenantLedger(
            TenantPolicy(
                rate_per_s=config.rate_per_s,
                burst=config.burst,
                qa_budget_us=config.tenant_budget_us,
            )
        )
        self.stats = GatewayStats()
        #: Persistent result cache shared by every tenant (None when
        #: disabled).  Lookups/records run on executor threads; the
        #: store is internally locked and the SQLite file is WAL-mode,
        #: so a fleet of gateways may share one path.
        self.cache = None
        if config.cache_db is not None:
            from repro.cache import PersistentResultStore

            self.cache = PersistentResultStore(
                config.cache_db, max_entries=config.cache_cap
            )
        self._executor = ThreadPoolExecutor(
            max_workers=config.workers, thread_name_prefix="gateway-worker"
        )
        self._server: Optional[asyncio.base_events.Server] = None
        self._dispatcher: Optional[asyncio.Task] = None
        self._work = asyncio.Event()
        self._draining = False
        self._pending = 0
        self._inflight: Set[asyncio.Task] = set()
        #: job_id -> (connection, tenant) for result routing.
        self._owners: Dict[str, _Connection] = {}
        self._run_ewma_s = _INITIAL_RUN_EWMA_S
        self._served = 0

        if self.observability.metrics is not None:
            self.observability.metrics.gauge("hyqsat_fleet_devices").set(
                len(self.fleet)
            )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Bind the listening socket and start the dispatcher."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self._dispatcher = asyncio.get_running_loop().create_task(
            self._dispatch_loop()
        )

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` to the ephemeral pick)."""
        assert self._server is not None, "server not started"
        return self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        assert self._server is not None, "server not started"
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass

    async def shutdown(self) -> None:
        """Drain: stop accepting, finish queued + running jobs (up to
        ``drain_grace_s``), then stop the dispatcher and executor."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        deadline = time.monotonic() + self.config.drain_grace_s
        while (self._pending > 0 or self._inflight) and time.monotonic() < deadline:
            await asyncio.sleep(0.02)
        self.queue.close()
        self._work.set()
        if self._dispatcher is not None:
            await self._dispatcher
        if self._inflight:
            await asyncio.wait(self._inflight, timeout=self.config.drain_grace_s)
        self._executor.shutdown(wait=False, cancel_futures=True)
        if self.cache is not None:
            if self.observability.metrics is not None:
                self.cache.flush_metrics(self.observability.metrics)
            self.cache.close()

    # ------------------------------------------------------------------
    # Observability helpers (event loop thread only)
    # ------------------------------------------------------------------

    def _metric(self, name: str):
        metrics = self.observability.metrics
        return None if metrics is None else metrics.counter(name)

    def _count_message(self, kind: str) -> None:
        self.stats.messages[kind] = self.stats.messages.get(kind, 0) + 1
        counter = self._metric("hyqsat_gateway_messages_total")
        if counter is not None:
            counter.labels(type=kind).inc()

    def _count_sent(self, kind: str) -> None:
        self.stats.sent[kind] = self.stats.sent.get(kind, 0) + 1
        counter = self._metric("hyqsat_gateway_stream_events_total")
        if counter is not None:
            counter.labels(type=kind).inc()

    def _count_job(self, state: str) -> None:
        self.stats.jobs[state] = self.stats.jobs.get(state, 0) + 1
        counter = self._metric("hyqsat_gateway_jobs_total")
        if counter is not None:
            counter.labels(state=state).inc()

    async def _send(self, conn: _Connection, message: Dict[str, Any]) -> None:
        self._count_sent(message["type"])
        await conn.send(message)

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        peername = writer.get_extra_info("peername")
        peer = f"{peername[0]}:{peername[1]}" if peername else "?"
        conn = _Connection(writer, peer)
        tracer = self.observability.tracer
        span = tracer.start_span("gateway.session", peer=peer)
        self.stats.connections += 1
        self.stats.active_connections += 1
        counter = self._metric("hyqsat_gateway_connections_total")
        if counter is not None:
            counter.inc()
        gauge = (
            self.observability.metrics.gauge("hyqsat_gateway_active_connections")
            if self.observability.metrics is not None
            else None
        )
        if gauge is not None:
            gauge.set(self.stats.active_connections)
        messages = 0
        try:
            if not await self._handshake(conn, reader):
                return
            tracer.event("gateway.connect", peer=peer, tenant=conn.tenant)
            while True:
                try:
                    line = await reader.readline()
                except (ConnectionError, asyncio.IncompleteReadError):
                    break
                if not line:
                    break
                messages += 1
                try:
                    payload = protocol.parse_line(line, from_client=True)
                except protocol.ProtocolError as bad:
                    self._count_message("invalid")
                    await self._send(conn, protocol.error(bad.code, bad.reason))
                    break
                self._count_message(payload["type"])
                if payload["type"] == "bye":
                    await self._send(conn, protocol.goodbye(self._served))
                    break
                await self._handle_message(conn, payload)
        finally:
            conn.closed = True
            for job_id in conn.job_ids:
                self._owners.pop(job_id, None)
            tracer.event("gateway.disconnect", peer=peer, messages=messages)
            span.end(tenant=conn.tenant, messages=messages)
            self.stats.active_connections -= 1
            if gauge is not None:
                gauge.set(self.stats.active_connections)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, RuntimeError):
                pass

    async def _handshake(
        self, conn: _Connection, reader: asyncio.StreamReader
    ) -> bool:
        """Read and answer ``hello``; False closes the connection."""
        try:
            line = await asyncio.wait_for(reader.readline(), timeout=10.0)
        except (asyncio.TimeoutError, ConnectionError):
            return False
        if not line:
            return False
        try:
            payload = protocol.parse_line(line, from_client=True)
        except protocol.ProtocolError as bad:
            await self._send(conn, protocol.error(bad.code, bad.reason))
            return False
        self._count_message(payload["type"])
        if payload["type"] != "hello":
            await self._send(
                conn,
                protocol.error("bad_message", "first message must be 'hello'"),
            )
            return False
        if payload.get("protocol") != protocol.PROTOCOL_VERSION:
            await self._send(
                conn,
                protocol.error(
                    "unsupported_protocol",
                    f"server speaks {protocol.PROTOCOL_VERSION}",
                ),
            )
            return False
        api_key = payload.get("api_key")
        if self.config.api_keys:
            if api_key not in self.config.api_keys:
                await self._send(
                    conn,
                    protocol.error("unauthorized", "unknown or missing api_key"),
                )
                return False
            conn.tenant = api_key
        else:
            conn.tenant = api_key  # open gateway: key optional, still a tenant
        limits = {
            "rate_per_s": self.ledger.policy.rate_per_s,
            "burst": self.ledger.policy.burst,
            "qa_budget_us": self.ledger.policy.qa_budget_us,
        }
        await self._send(
            conn,
            protocol.welcome(
                [qpu.describe() for qpu in self.fleet], limits
            ),
        )
        return True

    async def _handle_message(
        self, conn: _Connection, payload: Dict[str, Any]
    ) -> None:
        kind = payload["type"]
        if kind == "ping":
            await self._send(conn, protocol.pong(payload.get("nonce", 0)))
        elif kind == "hello":
            await self._send(
                conn, protocol.error("bad_message", "already said hello")
            )
            conn.closed = True
        elif kind == "submit":
            await self._handle_submit(conn, payload)
        elif kind == "cancel":
            await self._handle_cancel(conn, payload)

    # ------------------------------------------------------------------
    # Submission and results
    # ------------------------------------------------------------------

    def _retry_after(self) -> float:
        if self.config.retry_after_s is not None:
            return self.config.retry_after_s
        depth = len(self.queue)
        return max(
            0.1, (depth + 1) * self._run_ewma_s / self.config.workers
        )

    async def _handle_submit(
        self, conn: _Connection, payload: Dict[str, Any]
    ) -> None:
        tracer = self.observability.tracer
        job = payload.get("job")
        if not isinstance(job, dict):
            await self._send(
                conn,
                protocol.reject("bad_message", "submit needs a 'job' object"),
            )
            return
        job_id = job.get("id") or job.get("job_id")
        try:
            spec = JobSpec.from_json(json.dumps(job))
        except (ValueError, TypeError) as error:
            await self._send(
                conn,
                protocol.reject("bad_message", str(error), job_id=job_id),
            )
            return
        if self._draining:
            await self._send(
                conn,
                protocol.reject(
                    "shutting_down", "gateway is draining", job_id=spec.job_id
                ),
            )
            return
        denial, retry_after = self.ledger.admit(conn.tenant)
        if denial is not None:
            if denial == "rate_limited":
                self.stats.rate_limited += 1
                counter = self._metric("hyqsat_gateway_rate_limited_total")
            else:
                self.stats.quota_denied += 1
                counter = self._metric("hyqsat_gateway_quota_denied_total")
            if counter is not None:
                counter.inc()
            tracer.event("gateway.reject", job_id=spec.job_id, code=denial)
            await self._send(
                conn,
                protocol.reject(
                    denial,
                    "tenant rate limit exceeded"
                    if denial == "rate_limited"
                    else "tenant QA budget exhausted",
                    job_id=spec.job_id,
                    retry_after_s=retry_after or self._retry_after(),
                ),
            )
            return
        try:
            self.queue.push(spec)
        except AdmissionError as error:
            reason = str(error)
            if "duplicate" in reason:
                code = "duplicate_id"
                retry: Optional[float] = None
            elif "closed" in reason:
                code = "shutting_down"
                retry = None
            else:
                code = "backpressure"
                retry = self._retry_after()
                self.stats.backpressure_rejects += 1
                counter = self._metric(
                    "hyqsat_gateway_backpressure_rejects_total"
                )
                if counter is not None:
                    counter.inc()
            tracer.event("gateway.reject", job_id=spec.job_id, code=code)
            await self._send(
                conn,
                protocol.reject(
                    code, reason, job_id=spec.job_id, retry_after_s=retry
                ),
            )
            return
        self._pending += 1
        conn.job_ids.add(spec.job_id)
        self._owners[spec.job_id] = conn
        tracer.event(
            "gateway.submit", job_id=spec.job_id, tenant=conn.tenant
        )
        self._work.set()
        await self._send(
            conn, protocol.ack(spec.job_id, queue_depth=len(self.queue))
        )

    async def _handle_cancel(
        self, conn: _Connection, payload: Dict[str, Any]
    ) -> None:
        job_id = payload.get("id")
        if not isinstance(job_id, str) or not job_id:
            await self._send(
                conn, protocol.reject("bad_message", "cancel needs an 'id'")
            )
            return
        if self.queue.cancel(job_id):
            self._pending -= 1
            self.observability.tracer.event("gateway.cancel", job_id=job_id)
            await self._finalise(
                JobOutcome(
                    job_id=job_id, state="cancelled", error="cancelled by client"
                )
            )
        else:
            await self._send(
                conn,
                protocol.reject(
                    "unknown_job",
                    f"job {job_id!r} is not queued (unknown, running, or done)",
                    job_id=job_id,
                ),
            )

    async def _finalise(self, outcome: JobOutcome) -> None:
        """Count a terminal outcome and stream it to its owner."""
        self._count_job(outcome.state)
        self._served += 1
        if outcome.state == "done" and outcome.run_seconds > 0:
            self._run_ewma_s = (
                (1 - _RUN_EWMA_ALPHA) * self._run_ewma_s
                + _RUN_EWMA_ALPHA * outcome.run_seconds
            )
        if not outcome.cached:
            # Cache hits replay stored counters; the original solve
            # already billed that modelled QPU time — never twice.
            self.ledger.charge(
                getattr(self._owners.get(outcome.job_id), "tenant", None),
                outcome.qpu_time_us,
            )
        conn = self._owners.pop(outcome.job_id, None)
        if conn is not None:
            conn.job_ids.discard(outcome.job_id)
            await self._send(
                conn,
                protocol.event(
                    outcome.job_id,
                    "done",
                    state=outcome.state,
                    cached=bool(outcome.cached),
                ),
            )
            payload = {
                key: value
                for key, value in outcome.as_dict().items()
                if value is not None
            }
            await self._send(conn, protocol.result(outcome.job_id, payload))

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def _run_with_cache(self, spec: JobSpec, scheduler) -> JobOutcome:
        """Executor-side solve through the cache's
        :meth:`~repro.cache.PersistentResultStore.before_solve` /
        ``after_solve`` steps (the store is internally locked)."""
        if self.cache is None or spec.classic:
            return run_job(spec, scheduler)
        try:
            formula = spec.load_formula()
            key = spec.solve_key(formula)
        except Exception:  # noqa: BLE001 — run_job reports it
            return run_job(spec, scheduler)
        hit, warm = self.cache.before_solve(key, spec, formula)
        if hit is not None:
            return hit
        outcome = run_job(
            spec,
            scheduler,
            warm_clauses=warm.clauses if warm is not None else None,
            collect_learned=True,
        )
        self.cache.after_solve(key, formula, outcome, warm)
        return outcome

    async def _dispatch_loop(self) -> None:
        """Pop admitted jobs and run them on the thread pool, at most
        ``workers`` concurrently (the pool itself is the bound; the
        loop just avoids popping faster than slots free up)."""
        while True:
            await self._work.wait()
            spec, expired, waited = self.queue.pop(timeout=0)
            for dead in expired:
                self._pending -= 1
                await self._finalise(
                    JobOutcome(
                        job_id=dead.job_id,
                        state="expired",
                        error="queue deadline exceeded",
                        seed=dead.seed,
                        wait_seconds=dead.deadline_s or 0.0,
                    )
                )
            if spec is None:
                if self.queue._closed and self._pending <= 0:
                    return
                self._work.clear()
                continue
            while len(self._inflight) >= self.config.workers:
                await asyncio.wait(
                    self._inflight, return_when=asyncio.FIRST_COMPLETED
                )
            task = asyncio.get_running_loop().create_task(
                self._execute(spec, waited)
            )
            self._inflight.add(task)
            task.add_done_callback(self._inflight.discard)

    async def _execute(self, spec: JobSpec, waited_s: float) -> None:
        loop = asyncio.get_running_loop()
        conn = self._owners.get(spec.job_id)
        scheduler = None
        pinned = spec.topology is not None or spec.grid is not None
        if pinned and not spec.classic:
            # The client chose its lattice: respect it, and share the
            # matching device's scheduler when the fleet has one.
            for qpu in self.fleet:
                if (
                    qpu.topology == (spec.topology or "chimera")
                    and qpu.grid == (spec.grid or 16)
                ):
                    scheduler = self.router.scheduler_for(qpu)
                    break
        elif not spec.classic:
            try:
                formula = await loop.run_in_executor(
                    self._executor, spec.load_formula
                )
                decision = await loop.run_in_executor(
                    self._executor, self.router.route, formula
                )
            except Exception as error:  # noqa: BLE001 — bad instance
                self._pending -= 1
                await self._finalise(
                    JobOutcome(
                        job_id=spec.job_id,
                        state="failed",
                        error=f"{type(error).__name__}: {error}",
                        seed=spec.seed,
                        wait_seconds=waited_s,
                    )
                )
                return
            # Pin the placement so the solve (and any solo replay of
            # it) builds exactly the routed device.
            spec.topology = decision.qpu.topology
            spec.grid = decision.qpu.grid
            counter = self._metric("hyqsat_fleet_routed_total")
            if counter is not None:
                counter.labels(device=decision.qpu.name).inc()
            if not decision.fits:
                counter = self._metric("hyqsat_fleet_routing_fallbacks_total")
                if counter is not None:
                    counter.inc()
            if conn is not None:
                await self._send(
                    conn,
                    protocol.event(
                        spec.job_id,
                        "routed",
                        device=decision.qpu.name,
                        topology=decision.qpu.topology,
                        grid=decision.qpu.grid,
                        embedded_clauses=decision.embedded_clauses,
                        total_clauses=decision.total_clauses,
                        fits=decision.fits,
                    ),
                )
            scheduler = self.router.scheduler_for(decision.qpu)
        if conn is not None:
            await self._send(conn, protocol.event(spec.job_id, "started"))
        outcome = await loop.run_in_executor(
            self._executor, self._run_with_cache, spec, scheduler
        )
        outcome.wait_seconds = waited_s
        self._pending -= 1
        await self._finalise(outcome)
