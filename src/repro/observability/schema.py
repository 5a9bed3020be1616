"""The telemetry contract: span tree, event catalog, metric catalog.

This module is the in-code twin of ``docs/TELEMETRY.md``.  Everything
the observability layer may emit is enumerated here:

- :data:`SPAN_CHILDREN` — the legal parent -> child span edges of one
  hybrid solve (``None`` is the root);
- :data:`EVENT_PARENTS` — which span each event type may appear under;
- :data:`METRICS` — every metric name with its type, labels, unit, and
  help string;
- :func:`declare_solver_metrics` — pre-registers the whole catalog on
  a :class:`~repro.observability.metrics.MetricsRegistry`.

The trace-contract tests (``tests/observability/test_contract.py``)
assert both directions of the contract: a seeded solve emits only
spans/events/edges listed here, and every metric name documented in
``docs/TELEMETRY.md`` matches this catalog exactly — so the doc cannot
drift from the code without CI failing.
"""

from __future__ import annotations

import re
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Tuple

from repro.observability.metrics import (
    FRACTION_BUCKETS,
    LATENCY_BUCKETS_S,
    MetricsRegistry,
)

# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------

#: Legal span nesting of one hybrid solve.  Key = parent span name
#: (None = trace root), value = allowed child span names.
SPAN_CHILDREN: Dict[Optional[str], FrozenSet[str]] = {
    None: frozenset({"solve", "service.batch", "gateway.session"}),
    # One gateway connection, hello to disconnect.  Like
    # ``service.job`` spans it is emitted from a single thread (the
    # gateway's event loop); per-job telemetry hangs off it as events,
    # never child spans, because jobs outlive connections.
    "gateway.session": frozenset(),
    # One service run (a batch or a serve session).  ``service.job``
    # spans are emitted retrospectively by the service coordinator as
    # each job finalises (the tracer is single-threaded, so worker
    # threads never touch it); their wall duration is therefore ~0 and
    # the job's real timings live in the ``wait_s`` / ``run_s`` attrs.
    "service.batch": frozenset({"service.job"}),
    "service.job": frozenset(),
    "solve": frozenset({"iteration"}),
    "iteration": frozenset({"select", "embed", "anneal", "classify", "feedback"}),
    # The frontend-side chain compile (cache miss with a known chain
    # strength) and the device-side fallback compile share one name,
    # distinguished by the ``where`` attribute.
    "embed": frozenset({"compile"}),
    "anneal": frozenset({"compile"}),
    "select": frozenset(),
    "classify": frozenset(),
    "feedback": frozenset(),
    "compile": frozenset(),
}

#: All span names (derived).
SPAN_NAMES: FrozenSet[str] = frozenset(
    name for children in SPAN_CHILDREN.values() for name in children
)

# ---------------------------------------------------------------------------
# Events
# ---------------------------------------------------------------------------

#: Which span each event may be attached to.
EVENT_PARENTS: Dict[str, FrozenSet[str]] = {
    "cdcl.propagate": frozenset({"iteration"}),
    "cdcl.conflict": frozenset({"iteration"}),
    "cdcl.restart": frozenset({"iteration"}),
    "qa.retry": frozenset({"anneal"}),
    "qa.unavailable": frozenset({"anneal"}),
    "qa.degraded": frozenset({"iteration"}),
    "checkpoint.saved": frozenset({"iteration"}),
    "breaker.transition": frozenset({"anneal"}),
    "service.admit": frozenset({"service.batch"}),
    "service.reject": frozenset({"service.batch"}),
    "service.expire": frozenset({"service.batch"}),
    "service.dedup": frozenset({"service.batch"}),
    "service.cancel": frozenset({"service.batch"}),
    "service.recover": frozenset({"service.batch"}),
    "service.retry": frozenset({"service.batch"}),
    "service.cache_hit": frozenset({"service.batch"}),
    "service.warm_start": frozenset({"service.batch"}),
    "device.quarantine": frozenset({"anneal"}),
    "device.failover": frozenset({"anneal"}),
    "gateway.connect": frozenset({"gateway.session"}),
    "gateway.disconnect": frozenset({"gateway.session"}),
    "gateway.submit": frozenset({"gateway.session"}),
    "gateway.reject": frozenset({"gateway.session"}),
    "gateway.cancel": frozenset({"gateway.session"}),
}

EVENT_NAMES: FrozenSet[str] = frozenset(EVENT_PARENTS)

# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


class MetricSpec(NamedTuple):
    """One catalog entry (see docs/TELEMETRY.md for prose semantics)."""

    name: str
    kind: str  # "counter" | "gauge" | "histogram"
    labels: Tuple[str, ...]
    unit: str
    help: str
    buckets: Optional[Tuple[float, ...]] = None


#: Buckets for per-call problem energies (problem units; Figure 8's
#: axis).  Negative energies occur on fully-satisfied sub-objectives.
ENERGY_BUCKETS = (-1.0, -0.5, -0.1, 0.0, 0.1, 0.5, 1.0, 2.0, 5.0)

METRICS: Tuple[MetricSpec, ...] = (
    # -- QA service -----------------------------------------------------
    MetricSpec(
        "hyqsat_qa_calls_total", "counter", (), "calls",
        "QA calls that returned samples",
    ),
    MetricSpec(
        "hyqsat_qa_failures_total", "counter", ("reason",), "calls",
        "QA calls lost to faults or refused by the resilience layer, by reason",
    ),
    MetricSpec(
        "hyqsat_qa_retries_total", "counter", (), "attempts",
        "Retry attempts beyond the first, across all QA calls",
    ),
    MetricSpec(
        "hyqsat_qa_dropped_reads_total", "counter", (), "reads",
        "Reads lost to the per-read dropout channel",
    ),
    MetricSpec(
        "hyqsat_qpu_time_us_total", "counter", (), "microseconds",
        "Modelled device time of successful QA calls",
    ),
    MetricSpec(
        "hyqsat_qa_budget_spent_us", "gauge", (), "microseconds",
        "Modelled device time charged against the resilience QA budget",
    ),
    MetricSpec(
        "hyqsat_breaker_transitions_total", "counter",
        ("from_state", "to_state"), "transitions",
        "Circuit-breaker state transitions",
    ),
    MetricSpec(
        "hyqsat_breaker_state", "gauge", (), "state",
        "Current breaker state (0=closed, 1=half_open, 2=open)",
    ),
    MetricSpec(
        "hyqsat_degraded", "gauge", (), "bool",
        "1 when a persistent QA failure switched the run to pure CDCL",
    ),
    # -- hybrid loop ----------------------------------------------------
    MetricSpec(
        "hyqsat_warmup_iterations", "gauge", (), "iterations",
        "Length of the sqrt(K) warm-up stage",
    ),
    MetricSpec(
        "hyqsat_strategy_total", "counter", ("strategy",), "calls",
        "Feedback strategies applied, by strategy name",
    ),
    MetricSpec(
        "hyqsat_band_total", "counter", ("band",), "calls",
        "GNB energy-band classifications, by band",
    ),
    MetricSpec(
        "hyqsat_embedded_clauses_total", "counter", (), "clauses",
        "Formula clauses embedded across all QA calls",
    ),
    MetricSpec(
        "hyqsat_frontend_cache_hits_total", "counter", (), "lookups",
        "Frontend compilation-cache hits",
    ),
    MetricSpec(
        "hyqsat_frontend_cache_misses_total", "counter", (), "lookups",
        "Frontend compilation-cache misses",
    ),
    MetricSpec(
        "hyqsat_device_compile_total", "counter", ("source",), "compiles",
        "Embedded-problem compiles by source (precompiled|device)",
    ),
    MetricSpec(
        "hyqsat_phase_seconds", "histogram", ("phase",), "seconds",
        "Wall-clock latency of one hybrid-iteration phase",
        buckets=LATENCY_BUCKETS_S,
    ),
    MetricSpec(
        "hyqsat_chain_break_fraction", "histogram", (), "fraction",
        "Best-sample chain-break fraction per QA call",
        buckets=FRACTION_BUCKETS,
    ),
    MetricSpec(
        "hyqsat_qa_energy", "histogram", (), "problem-units",
        "Best-sample energy per QA call (problem units)",
        buckets=ENERGY_BUCKETS,
    ),
    # -- CDCL engine ----------------------------------------------------
    MetricSpec(
        "hyqsat_cdcl_iterations_total", "counter", (), "iterations",
        "Search iterations (decision/propagation/conflict rounds)",
    ),
    MetricSpec(
        "hyqsat_cdcl_conflicts_total", "counter", (), "conflicts",
        "Conflicts analysed",
    ),
    MetricSpec(
        "hyqsat_cdcl_propagations_total", "counter", (), "assignments",
        "Unit propagations",
    ),
    MetricSpec(
        "hyqsat_cdcl_decisions_total", "counter", (), "decisions",
        "Decision literals picked",
    ),
    MetricSpec(
        "hyqsat_cdcl_restarts_total", "counter", (), "restarts",
        "Search restarts",
    ),
    MetricSpec(
        "hyqsat_cdcl_learned_clauses_total", "counter", (), "clauses",
        "Clauses learned",
    ),
    MetricSpec(
        "hyqsat_cdcl_propagations_per_s", "gauge", (), "assignments/s",
        "CDCL propagation throughput of the last solve (wall clock in "
        "the search; QA rounds and checkpoint saves excluded)",
    ),
    MetricSpec(
        "hyqsat_cdcl_conflicts_per_s", "gauge", (), "conflicts/s",
        "CDCL conflict throughput of the last solve (wall clock in "
        "the search; QA rounds and checkpoint saves excluded)",
    ),
    # -- solver service --------------------------------------------------
    MetricSpec(
        "hyqsat_service_jobs_total", "counter", ("state",), "jobs",
        "Jobs finalised by the service, by terminal state",
    ),
    MetricSpec(
        "hyqsat_service_dedup_hits_total", "counter", (), "jobs",
        "Jobs served another job's result via canonical-CNF dedup",
    ),
    MetricSpec(
        "hyqsat_service_queue_depth", "gauge", (), "jobs",
        "Jobs currently queued (admitted, not yet dispatched)",
    ),
    MetricSpec(
        "hyqsat_service_queue_wait_seconds", "histogram", (), "seconds",
        "Wall-clock time a dispatched job spent queued",
        buckets=LATENCY_BUCKETS_S,
    ),
    MetricSpec(
        "hyqsat_service_job_run_seconds", "histogram", (), "seconds",
        "Wall-clock time a job spent executing on a worker",
        buckets=LATENCY_BUCKETS_S,
    ),
    MetricSpec(
        "hyqsat_service_qpu_grants_total", "counter", (), "grants",
        "Exclusive QPU windows granted (a coalesced group counts once)",
    ),
    MetricSpec(
        "hyqsat_service_qpu_coalesced_total", "counter", (), "requests",
        "Anneal requests served by joining an identical request's window",
    ),
    MetricSpec(
        "hyqsat_service_qpu_busy_us", "gauge", (), "microseconds",
        "Modelled device time the shared QPU spent occupied",
    ),
    # -- durability tier --------------------------------------------------
    MetricSpec(
        "hyqsat_service_recoveries_total", "counter", (), "jobs",
        "Acked jobs re-emitted from the journal instead of re-solving",
    ),
    MetricSpec(
        "hyqsat_service_worker_retries_total", "counter", (), "jobs",
        "Jobs requeued after their worker process died",
    ),
    MetricSpec(
        "hyqsat_journal_records_total", "counter", ("kind",), "records",
        "Journal records appended, by kind (submit|start|retry|done)",
    ),
    MetricSpec(
        "hyqsat_journal_fsyncs_total", "counter", (), "fsyncs",
        "Journal fsync batches flushed to stable storage",
    ),
    MetricSpec(
        "hyqsat_journal_replayed_total", "counter", (), "records",
        "Journaled acked outcomes replayed on recovery",
    ),
    MetricSpec(
        "hyqsat_journal_torn_records_total", "counter", (), "records",
        "Invalid journal tail records dropped during recovery",
    ),
    MetricSpec(
        "hyqsat_device_health", "gauge", ("device",), "score",
        "Per-device EWMA health score of the annealer fleet (0..1)",
    ),
    MetricSpec(
        "hyqsat_device_quarantines_total", "counter", ("device",), "transitions",
        "Fleet members moved into quarantine, by device",
    ),
    # -- persistent result cache ------------------------------------------
    MetricSpec(
        "hyqsat_cache_hits_total", "counter", (), "lookups",
        "Exact solve-key hits served bit-identically from the persistent cache",
    ),
    MetricSpec(
        "hyqsat_cache_misses_total", "counter", (), "lookups",
        "Cache lookups that found no exact or subsumption answer",
    ),
    MetricSpec(
        "hyqsat_cache_subsumption_hits_total", "counter", ("kind",), "lookups",
        "Subsumption-layer hits, by certificate kind (model|unsat)",
    ),
    MetricSpec(
        "hyqsat_cache_warm_starts_total", "counter", (), "jobs",
        "Solves seeded with a clause-bank donor's learned clauses",
    ),
    MetricSpec(
        "hyqsat_cache_warm_start_conflicts_saved_total", "counter", (),
        "conflicts",
        "Conflicts saved by warm starts (donor conflicts minus actual)",
    ),
    MetricSpec(
        "hyqsat_cache_evictions_total", "counter", (), "entries",
        "Exact-result rows dropped by the cache's LRU cap or TTL",
    ),
    MetricSpec(
        "hyqsat_cache_entries", "gauge", (), "entries",
        "Exact-result rows currently in the persistent cache",
    ),
    # -- gateway & heterogeneous fleet ------------------------------------
    MetricSpec(
        "hyqsat_gateway_connections_total", "counter", (), "connections",
        "Client connections accepted since start",
    ),
    MetricSpec(
        "hyqsat_gateway_active_connections", "gauge", (), "connections",
        "Connections currently open",
    ),
    MetricSpec(
        "hyqsat_gateway_messages_total", "counter", ("type",), "messages",
        "Client messages received, by wire type (invalid = unparseable)",
    ),
    MetricSpec(
        "hyqsat_gateway_stream_events_total", "counter", ("type",), "messages",
        "Server messages sent, by wire type",
    ),
    MetricSpec(
        "hyqsat_gateway_jobs_total", "counter", ("state",), "jobs",
        "Gateway jobs reaching a terminal state, by state",
    ),
    MetricSpec(
        "hyqsat_gateway_rate_limited_total", "counter", (), "submissions",
        "Submissions rejected by a tenant's token bucket",
    ),
    MetricSpec(
        "hyqsat_gateway_quota_denied_total", "counter", (), "submissions",
        "Submissions rejected on an exhausted tenant QA budget",
    ),
    MetricSpec(
        "hyqsat_gateway_backpressure_rejects_total", "counter", (), "submissions",
        "Submissions shed because the admission queue was full",
    ),
    MetricSpec(
        "hyqsat_fleet_devices", "gauge", (), "devices",
        "QPUs in the gateway's heterogeneous fleet",
    ),
    MetricSpec(
        "hyqsat_fleet_routed_total", "counter", ("device",), "jobs",
        "Jobs placed per fleet device by the topology-aware router",
    ),
    MetricSpec(
        "hyqsat_fleet_routing_fallbacks_total", "counter", (), "jobs",
        "Jobs that fit no device fully and took the best partial embedding",
    ),
)

METRIC_NAMES: FrozenSet[str] = frozenset(spec.name for spec in METRICS)

#: The labelled phases of ``hyqsat_phase_seconds``.
PHASES: Tuple[str, ...] = ("select", "embed", "anneal", "classify", "feedback")

#: Breaker-state encoding of the ``hyqsat_breaker_state`` gauge.
BREAKER_STATE_CODES: Dict[str, int] = {"closed": 0, "half_open": 1, "open": 2}


def declare_solver_metrics(registry: MetricsRegistry) -> MetricsRegistry:
    """Register every catalog metric (idempotent).

    Called by the hybrid solver when metrics are enabled so exporters
    and the doc-drift test always see the complete catalog, including
    counters that never fire on a given run.
    """
    for spec in METRICS:
        if spec.kind == "counter":
            registry.counter(spec.name, spec.help, spec.labels)
        elif spec.kind == "gauge":
            registry.gauge(spec.name, spec.help, spec.labels)
        elif spec.kind == "histogram":
            registry.histogram(
                spec.name,
                spec.help,
                spec.labels,
                buckets=spec.buckets or LATENCY_BUCKETS_S,
            )
        else:  # pragma: no cover - catalog typo guard
            raise ValueError(f"unknown metric kind {spec.kind!r}")
    return registry


def declare_gateway_metrics(registry: MetricsRegistry) -> MetricsRegistry:
    """Register the catalog for a gateway process (idempotent).

    The catalog is one namespace, so this is the same full
    registration as :func:`declare_solver_metrics` — a separate entry
    point only so gateway code reads as declaring its own group and
    keeps working if the groups ever split.
    """
    return declare_solver_metrics(registry)


# ---------------------------------------------------------------------------
# Doc cross-checking
# ---------------------------------------------------------------------------

_METRIC_NAME_RE = re.compile(r"`(hyqsat_[a-z0-9_]+)`")


def metric_names_in_doc(text: str) -> List[str]:
    """Backtick-quoted ``hyqsat_*`` metric names found in a document.

    Histogram series suffixes (``_bucket``/``_sum``/``_count``) are
    normalised away so the worked examples in docs/TELEMETRY.md don't
    register as phantom metrics.
    """
    names = set()
    for match in _METRIC_NAME_RE.finditer(text):
        name = match.group(1)
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[: -len(suffix)] in (
                n.name for n in METRICS
            ):
                name = name[: -len(suffix)]
                break
        names.add(name)
    return sorted(names)
