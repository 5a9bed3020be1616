"""Per-layer metrics from the spans ``tracing.py`` wrote.

A span's self time is its duration minus the time its child spans
cover (children run on the span's own thread, nested inside it).
Per-job numbers are summed over a job's spans, and a run reports the
median over the jobs that entered the layer; a layer no job entered
reports 0.  Run-level counts and ratios are totals over the run.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
from collections import defaultdict
from typing import Dict, Iterable, List

#: span name -> per-job self-time metric.  ``HyQSatSolver.solve``'s
#: self time is the CDCL search plus the private feedback step.
SELF_TIME = {
    "sat.parse": "sat.parse_s",
    "sat.fingerprint": "sat.fingerprint_s",
    "gateway.decode": "gateway.decode_s",
    "gateway.encode": "gateway.encode_s",
    "gateway.route": "gateway.route_s",
    "cache.lookup": "cache.lookup_s",
    "cache.record": "cache.record_s",
    "cache.warm": "cache.warm_s",
    "service.journal": "service.journal_s",
    "service.run_job": "service.run_job_s",
    "service.result_encode": "service.result_encode_s",
    "core.select": "core.select_s",
    "core.prepare": "core.prepare_s",
    "core.classify": "core.classify_s",
    "qubo.encode": "qubo.encode_s",
    "qubo.adjust": "qubo.adjust_s",
    "qubo.normalize": "qubo.normalize_s",
    "embedding.embed": "embedding.embed_s",
    "annealer.compile": "annealer.compile_s",
    "annealer.run": "annealer.run_s",
    "resilience.run": "resilience.overhead_s",
    "core.solve": "cdcl.self_s",
}

#: Layers whose spans under ``FleetRouter.route`` are router capacity
#: probes, charged to ``gateway.route_s``.
_PROBE_LAYERS = ("qubo.", "embedding.", "annealer.")

#: span attribute -> per-job count metric (summed over the job's spans).
JOB_COUNTS = {
    "conflicts": "cdcl.conflicts",
    "propagations": "cdcl.propagations",
    "qa_calls": "core.qa_calls",
    "rescale": "qubo.rescale_evals",
    "qpu_us": "annealer.qpu_us_modelled",
}


def load_spans(trace_dir: str) -> List[dict]:
    spans = []
    for path in sorted(glob.glob(os.path.join(trace_dir, "spans-*.jsonl"))):
        with open(path, encoding="utf-8") as handle:
            spans.extend(json.loads(line) for line in handle if line.strip())
    return spans


def _median(values: Iterable[float]) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(spans: List[dict], job_ids: Iterable[str]) -> Dict[str, float]:
    """Per-layer metrics of the jobs in ``job_ids`` (see module doc)."""
    job_ids = set(job_ids)
    by_key = {(s["p"], s["i"]): s for s in spans}
    child_time: Dict[tuple, float] = defaultdict(float)
    for s in spans:
        if s["u"]:
            child_time[(s["p"], s["u"])] += s["b"] - s["a"]

    def under_route(s) -> bool:
        parent = by_key.get((s["p"], s["u"]))
        while parent is not None:
            if parent["n"] == "gateway.route":
                return True
            parent = by_key.get((parent["p"], parent["u"]))
        return False

    per_job: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    totals: Dict[str, float] = defaultdict(float)
    routed: Dict[str, int] = defaultdict(int)
    worker_pids = set()
    coordinator_pids = set()
    submit_at: Dict[str, float] = {}
    admitted_at: Dict[str, float] = {}
    started_at: Dict[str, float] = {}
    for s in spans:
        name, attrs, job = s["n"], s.get("x", {}), s["j"]
        if job not in job_ids:
            continue
        totals["fsyncs"] += attrs.get("fsync", 0)
        record = per_job[job]
        self_time = (s["b"] - s["a"]) - child_time[(s["p"], s["i"])]
        metric = SELF_TIME.get(name)
        if metric is not None and name.startswith(_PROBE_LAYERS) and under_route(s):
            metric = "gateway.route_s"
        elif name == "sat.parse":
            parent = by_key.get((s["p"], s["u"]))
            if parent is None or parent["n"] != "sat.parse":
                record["sat.parse_calls"] += 1
        if metric is not None:
            record[metric] += self_time
        for attr, count_metric in JOB_COUNTS.items():
            if attr in attrs:
                record[count_metric] += attrs[attr]
        if name == "sat.fingerprint":
            record["sat.fingerprint_calls"] += 1
        elif name == "core.solve":
            record["core.solve_s"] += s["b"] - s["a"]
        elif name == "core.prepare":
            record["core.prepare_calls"] += 1
            totals["prepare"] += 1
            totals["prepare_hits"] += attrs.get("hit", 0)
        elif name == "core.classify":
            totals["rounds"] += 1
            totals["feedback"] += attrs.get("feedback", 0)
        elif name == "embedding.embed" and metric == "embedding.embed_s":
            totals["embedded"] += attrs.get("embedded", 0)
            totals["embed_total"] += attrs.get("total", 0)
        elif name == "gateway.route":
            totals["routes"] += 1
            totals["fallbacks"] += attrs.get("fallback", 0)
            routed[attrs.get("device", "?")] += 1
        elif name == "cache.lookup":
            totals["lookups"] += 1
            kind = attrs.get("kind", "miss")
            totals[f"hits.{kind}"] += 1
        elif name == "cache.warm":
            totals["warm_starts"] += attrs.get("warm", 0)
        elif name == "cache.record":
            totals["solves"] += 1
        elif name == "service.run_job":
            worker_pids.add(attrs.get("pid"))
            started_at.setdefault(job, s["a"])
        elif name == "service.submit":
            submit_at.setdefault(job, s["a"])
            coordinator_pids.add(s["p"])
        elif name == "service.journal":
            admitted_at.setdefault(job, s["b"])

    for job, record in per_job.items():
        if record.get("cdcl.self_s"):
            record["cdcl.props_per_s"] = (
                record.get("cdcl.propagations", 0) / record["cdcl.self_s"]
            )
        if job in submit_at and job in started_at:
            record["service.dispatch_s"] = started_at[job] - submit_at[job]
        if job in submit_at and job in admitted_at:
            record["service.queue_wait_s"] = submit_at[job] - admitted_at[job]

    names = {metric for record in per_job.values() for metric in record}
    metrics = {
        name: _median(record[name] for record in per_job.values() if name in record)
        for name in names
    }
    lookups = totals["lookups"]
    metrics.update({
        "cache.hit_ratio": _ratio(lookups - totals["hits.miss"], lookups),
        "cache.hits.exact": totals["hits.exact"],
        "cache.hits.model": totals["hits.model"],
        "cache.hits.unsat": totals["hits.unsat"],
        "cache.warm_starts": totals["warm_starts"],
        "cache.solves": totals["solves"],
        "gateway.route_fallback_ratio": _ratio(totals["fallbacks"], totals["routes"]),
        "service.journal_fsyncs": totals["fsyncs"],
        "service.worker_processes": len(worker_pids - coordinator_pids),
        "core.frontend_hit_ratio": _ratio(totals["prepare_hits"], totals["prepare"]),
        "core.feedback_ratio": _ratio(totals["feedback"], totals["rounds"]),
        "embedding.embedded_ratio": _ratio(totals["embedded"], totals["embed_total"]),
    })
    for device, count in routed.items():
        metrics[f"gateway.routed.{device}"] = count
    return metrics


def job_totals(spans: List[dict], job_ids: Iterable[str]) -> Dict[str, Dict[str, int]]:
    """job id -> exact search counts of its solve (for repeat checks)."""
    job_ids = set(job_ids)
    out: Dict[str, Dict[str, int]] = {}
    for s in spans:
        if s["n"] == "core.solve" and s["j"] in job_ids:
            attrs = s.get("x", {})
            out[s["j"]] = {
                key: attrs.get(key, 0)
                for key in ("conflicts", "propagations", "qa_calls")
            }
    return out
