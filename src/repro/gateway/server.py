"""The asyncio gateway server: socket -> solver service -> fleet.

One event loop owns everything except the solves themselves:
connection handlers parse and answer protocol messages, and admitted
jobs go to a :class:`~repro.service.service.SolverService` — the same
coordinator ``hyqsat batch``/``serve`` run, with its admission queue,
in-flight dedup and persistent cache — given the gateway's
:class:`~repro.gateway.fleet.FleetRouter`.  The loop drives that
coordinator: it pops, reads, routes and looks up each job on the loop
thread, its thread workers solve, and each finished solve comes back
through ``loop.call_soon_threadsafe``.  A routed job is pinned to its
device's lattice, so per seed a gateway solve is bit-identical to
``hyqsat solve`` with the placement's ``--topology``/``--grid``.

Observability follows the service's single-threaded rule: spans,
events, and metrics are emitted only from the event loop thread
(worker threads never touch the bundle).  Each connection's handler
is its own asyncio task, so its ``gateway.session`` span is a root of
its own however connections overlap, and each coordinator step runs
in the context of the connection it serves (docs/TELEMETRY.md).

Backpressure and fairness are admission-time: the tenant ledger
answers ``rate_limited``/``quota_exhausted`` and a full queue answers
``backpressure``, each as a ``reject`` carrying ``retry_after_s`` (an
EWMA of recent run times scaled by queue depth) while the connection
stays open.  Shutdown is a drain: stop accepting, let queued and
running jobs finish (bounded by ``drain_grace_s``), stream their
results, then close.
"""

from __future__ import annotations

import asyncio
import contextvars
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set

from repro.gateway import protocol
from repro.gateway.fleet import FleetRouter, GatewayQpu, parse_fleet_spec
from repro.gateway.limits import TenantLedger, TenantPolicy
from repro.service.jobs import JobOutcome, JobSpec
from repro.service.queue import AdmissionError
from repro.service.service import ServiceConfig, SolverService

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
    #: Modelled QPU budget of each fleet lattice (None = unmetered).
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
        self.job_ids: Set[str] = set()
        self.closed = False
        #: The handler's context, taken with its ``gateway.session``
        #: span open: coordinator steps for this connection run in it.
        self.context = contextvars.copy_context()

    def send(self, message: Dict[str, Any]) -> None:
        """Write one message; messages leave in call order."""
        try:
            self.writer.write(protocol.encode(message))
        except (ConnectionError, RuntimeError):
            self.closed = True

    async def drain(self) -> None:
        """Wait out a full send buffer (a client that reads slowly)."""
        if self.closed:
            return
        try:
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
        self.ledger = TenantLedger(
            TenantPolicy(
                rate_per_s=config.rate_per_s,
                burst=config.burst,
                qa_budget_us=config.tenant_budget_us,
            )
        )
        self.stats = GatewayStats()
        #: The coordinator every admitted job goes through.  Its
        #: persistent cache (when ``cache_db`` is set) is shared by
        #: every tenant; the SQLite file is WAL-mode, so a fleet of
        #: gateways may share one path.
        self.service = SolverService(
            ServiceConfig(
                workers=config.workers,
                max_depth=config.max_depth,
                qpu_budget_us=config.qpu_budget_us,
                cache_path=config.cache_db,
                cache_cap=config.cache_cap,
            ),
            observability=self.observability,
            router=FleetRouter(self.fleet),
            on_outcome=self._finalise,
            on_start=self._started,
        )
        self._server: Optional[asyncio.base_events.Server] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._draining = False
        #: job_id -> the connection that submitted it, until its outcome.
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
        """Bind the listening socket; the running loop becomes the
        service's coordinating thread."""
        self._loop = loop = asyncio.get_running_loop()

        def wake(job_id: str) -> None:
            try:
                loop.call_soon_threadsafe(self._complete, job_id)
            except RuntimeError:  # loop closed: the drain gave up on it
                pass

        self.service.wake = wake
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
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
        ``drain_grace_s``), then close the service."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        deadline = time.monotonic() + self.config.drain_grace_s
        while not self.service.idle and time.monotonic() < deadline:
            await asyncio.sleep(0.02)
        self._loop = None  # jobs still running past the grace are dropped
        self.service.close(wait=False)

    def _complete(self, job_id: str) -> None:
        """A worker finished ``job_id`` (runs on the loop)."""
        if self._loop is not None:
            conn = self._owners.get(job_id)
            self._in_session(conn, self.service.complete, job_id)
            self._in_session(conn, self.service.pump)

    @staticmethod
    def _in_session(conn: Optional[_Connection], step, *args) -> None:
        """Run a coordinator step with its trace records under
        ``conn``'s ``gateway.session`` span, or at the trace root once
        that connection has closed."""
        live = conn is not None and not conn.closed
        (conn.context if live else contextvars.Context()).run(step, *args)

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

    def _send(self, conn: _Connection, message: Dict[str, Any]) -> None:
        if not conn.closed:
            self._count_sent(message["type"])
            conn.send(message)

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        peername = writer.get_extra_info("peername")
        peer = f"{peername[0]}:{peername[1]}" if peername else "?"
        tracer = self.observability.tracer
        span = tracer.start_span("gateway.session", peer=peer)
        conn = _Connection(writer, peer)
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
                    self._send(conn, protocol.error(bad.code, bad.reason))
                    break
                self._count_message(payload["type"])
                if payload["type"] == "bye":
                    self._send(conn, protocol.goodbye(self._served))
                    break
                self._handle_message(conn, payload)
                await conn.drain()
        finally:
            # Its jobs run on: each still bills this tenant, and its
            # owner entry goes with its outcome.
            conn.closed = True
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
            self._send(conn, protocol.error(bad.code, bad.reason))
            return False
        self._count_message(payload["type"])
        if payload["type"] != "hello":
            self._send(
                conn,
                protocol.error("bad_message", "first message must be 'hello'"),
            )
            return False
        if payload.get("protocol") != protocol.PROTOCOL_VERSION:
            self._send(
                conn,
                protocol.error(
                    "unsupported_protocol",
                    f"server speaks {protocol.PROTOCOL_VERSION}",
                ),
            )
            return False
        api_key = payload.get("api_key")
        if self.config.api_keys and api_key not in self.config.api_keys:
            self._send(
                conn,
                protocol.error("unauthorized", "unknown or missing api_key"),
            )
            return False
        # An open gateway takes the key optionally; it still names a tenant.
        conn.tenant = api_key
        limits = {
            "rate_per_s": self.ledger.policy.rate_per_s,
            "burst": self.ledger.policy.burst,
            "qa_budget_us": self.ledger.policy.qa_budget_us,
        }
        self._send(
            conn,
            protocol.welcome([qpu.describe() for qpu in self.fleet], limits),
        )
        await conn.drain()
        return True

    def _handle_message(self, conn: _Connection, payload: Dict[str, Any]) -> None:
        kind = payload["type"]
        if kind == "ping":
            self._send(conn, protocol.pong(payload.get("nonce", 0)))
        elif kind == "hello":
            self._send(conn, protocol.error("bad_message", "already said hello"))
            conn.closed = True
        elif kind == "submit":
            self._handle_submit(conn, payload)
        elif kind == "cancel":
            self._handle_cancel(conn, payload)

    # ------------------------------------------------------------------
    # Submission and results
    # ------------------------------------------------------------------

    def _retry_after(self) -> float:
        if self.config.retry_after_s is not None:
            return self.config.retry_after_s
        depth = len(self.service.queue)
        return max(
            0.1, (depth + 1) * self._run_ewma_s / self.config.workers
        )

    def _handle_submit(self, conn: _Connection, payload: Dict[str, Any]) -> None:
        tracer = self.observability.tracer
        job = payload.get("job")
        if not isinstance(job, dict):
            self._send(
                conn,
                protocol.reject("bad_message", "submit needs a 'job' object"),
            )
            return
        job_id = job.get("id") or job.get("job_id")
        try:
            spec = JobSpec.from_dict(job)
        except (ValueError, TypeError) as error:
            self._send(
                conn, protocol.reject("bad_message", str(error), job_id=job_id)
            )
            return
        if self._draining:
            self._send(
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
            self._send(
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
            self.service.submit(spec)
        except AdmissionError as error:
            reason = str(error)
            retry: Optional[float] = None
            if "duplicate" in reason:
                code = "duplicate_id"
            elif "closed" in reason:
                code = "shutting_down"
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
            self._send(
                conn,
                protocol.reject(
                    code, reason, job_id=spec.job_id, retry_after_s=retry
                ),
            )
            return
        conn.job_ids.add(spec.job_id)
        self._owners[spec.job_id] = conn
        tracer.event("gateway.submit", job_id=spec.job_id, tenant=conn.tenant)
        self._send(
            conn, protocol.ack(spec.job_id, queue_depth=len(self.service.queue))
        )
        if self._loop is not None:
            self._loop.call_soon(self._in_session, conn, self.service.pump)

    def _handle_cancel(self, conn: _Connection, payload: Dict[str, Any]) -> None:
        job_id = payload.get("id")
        if not isinstance(job_id, str) or not job_id:
            self._send(
                conn, protocol.reject("bad_message", "cancel needs an 'id'")
            )
            return
        # Only the submitting connection may cancel; anyone else sees
        # the same answer as for an id it never submitted.
        if job_id in conn.job_ids and self.service.cancel(job_id):
            self.observability.tracer.event("gateway.cancel", job_id=job_id)
            return
        self._send(
            conn,
            protocol.reject(
                "unknown_job",
                f"job {job_id!r} is not queued (unknown, running, or done)",
                job_id=job_id,
            ),
        )

    def _started(self, spec: JobSpec, decision) -> None:
        """The service read (and maybe routed) a popped job: stream
        ``routed`` for a placement, then ``started``."""
        conn = self._owners.get(spec.job_id)
        if decision is not None:
            counter = self._metric("hyqsat_fleet_routed_total")
            if counter is not None:
                counter.labels(device=decision.qpu.name).inc()
            if not decision.fits:
                counter = self._metric("hyqsat_fleet_routing_fallbacks_total")
                if counter is not None:
                    counter.inc()
            if conn is not None:
                self._send(
                    conn,
                    protocol.event(
                        spec.job_id,
                        "routed",
                        device=decision.qpu.name,
                        topology=decision.qpu.topology,
                        grid=decision.qpu.grid,
                        fits=decision.fits,
                    ),
                )
        if conn is not None:
            self._send(conn, protocol.event(spec.job_id, "started"))

    def _finalise(self, outcome: JobOutcome) -> None:
        """Count a terminal outcome, bill its tenant, and stream it to
        its owner (the service's outcome callback)."""
        self._count_job(outcome.state)
        self._served += 1
        if outcome.state == "done" and outcome.run_seconds > 0:
            self._run_ewma_s = (
                (1 - _RUN_EWMA_ALPHA) * self._run_ewma_s
                + _RUN_EWMA_ALPHA * outcome.run_seconds
            )
        conn = self._owners.pop(outcome.job_id, None)
        if not outcome.cached and outcome.dedup_of is None:
            # Cache hits replay stored counters and followers share
            # their primary's solve: that modelled QPU time was billed
            # once already — never twice.
            self.ledger.charge(
                getattr(conn, "tenant", None), outcome.qpu_time_us
            )
        if conn is not None:
            conn.job_ids.discard(outcome.job_id)
            self._send(
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
            self._send(conn, protocol.result(outcome.job_id, payload))
