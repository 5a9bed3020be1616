"""Tracer unit tests: spans, events, clocks, sinks, read-back."""

from __future__ import annotations

import io
import json

import numpy as np
import pytest

from repro.observability import (
    JsonlSink,
    ListSink,
    NULL_TRACER,
    Observability,
    TRACE_SCHEMA_VERSION,
    Tracer,
    read_trace,
)


def _spans(tracer):
    return [r for r in tracer.records if r["type"] == "span"]


def _events(tracer):
    return [r for r in tracer.records if r["type"] == "event"]


class TestSpans:
    def test_meta_record_leads_the_stream(self):
        tracer = Tracer()
        meta = tracer.records[0]
        assert meta["type"] == "meta"
        assert meta["schema"] == TRACE_SCHEMA_VERSION
        assert meta["clocks"] == {"wall": "seconds", "qpu": "microseconds"}

    def test_nesting_via_stack(self):
        tracer = Tracer()
        with tracer.span("solve"):
            with tracer.span("iteration", index=1):
                with tracer.span("select"):
                    pass
        spans = {s["name"]: s for s in _spans(tracer)}
        assert spans["solve"]["parent"] is None
        assert spans["iteration"]["parent"] == spans["solve"]["id"]
        assert spans["select"]["parent"] == spans["iteration"]["id"]

    def test_children_emitted_before_parents(self):
        tracer = Tracer()
        with tracer.span("solve"):
            with tracer.span("iteration"):
                pass
        names = [s["name"] for s in _spans(tracer)]
        assert names == ["iteration", "solve"]

    def test_attrs_merge_and_end_attrs(self):
        tracer = Tracer()
        span = tracer.start_span("anneal", reads=3)
        span.set(embedded=7)
        span.end(outcome="ok")
        record = _spans(tracer)[0]
        assert record["attrs"] == {"reads": 3, "embedded": 7, "outcome": "ok"}

    def test_double_end_is_idempotent(self):
        tracer = Tracer()
        span = tracer.start_span("solve")
        span.end()
        span.end()
        assert len(_spans(tracer)) == 1

    def test_exception_records_error_attr(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("solve"):
                raise ValueError("boom")
        assert _spans(tracer)[0]["attrs"]["error"] == "ValueError"

    def test_out_of_order_end_closes_inner_spans(self):
        tracer = Tracer()
        outer = tracer.start_span("solve")
        tracer.start_span("iteration")
        outer.end()  # iteration never explicitly ended
        names = [s["name"] for s in _spans(tracer)]
        assert names == ["iteration", "solve"]
        assert tracer.current_span_id is None

    def test_close_ends_dangling_spans(self):
        tracer = Tracer()
        tracer.start_span("solve")
        tracer.start_span("iteration")
        tracer.close()
        assert len(_spans(tracer)) == 2
        tracer.close()  # idempotent
        assert len(_spans(tracer)) == 2

    def test_wall_durations_are_monotone(self):
        tracer = Tracer()
        with tracer.span("solve"):
            with tracer.span("iteration"):
                pass
        spans = {s["name"]: s for s in _spans(tracer)}
        assert spans["solve"]["wall_dur_s"] >= spans["iteration"]["wall_dur_s"]
        assert spans["iteration"]["t_wall_s"] >= spans["solve"]["t_wall_s"]


class TestQpuClock:
    def test_qpu_clock_injection(self):
        clock = {"now": 0.0}
        tracer = Tracer(qpu_clock=lambda: clock["now"])
        with tracer.span("solve"):
            clock["now"] = 140.0
        record = _spans(tracer)[0]
        assert record["t_qpu_us"] == 0.0
        assert record["qpu_dur_us"] == 140.0

    def test_qpu_clock_settable_after_creation(self):
        tracer = Tracer()
        with tracer.span("before"):
            pass
        tracer.set_qpu_clock(lambda: 42.0)
        with tracer.span("after"):
            pass
        spans = {s["name"]: s for s in _spans(tracer)}
        assert spans["before"]["qpu_dur_us"] == 0.0
        assert spans["after"]["t_qpu_us"] == 42.0
        assert spans["after"]["qpu_dur_us"] == 0.0

    def test_sibling_spans_split_the_qpu_time(self):
        clock = {"now": 0.0}
        tracer = Tracer(qpu_clock=lambda: clock["now"])
        with tracer.span("solve"):
            with tracer.span("embed"):
                pass  # no QPU time
            with tracer.span("anneal"):
                clock["now"] += 140.0
        spans = {s["name"]: s for s in _spans(tracer)}
        assert spans["embed"]["qpu_dur_us"] == 0.0
        assert spans["anneal"]["qpu_dur_us"] == 140.0
        assert spans["solve"]["qpu_dur_us"] == 140.0


class TestEvents:
    def test_event_attaches_to_innermost_span(self):
        tracer = Tracer()
        with tracer.span("solve") as solve:
            with tracer.span("iteration") as iteration:
                tracer.event("cdcl.propagate", trail=5)
            tracer.event("qa.degraded")
        events = {e["name"]: e for e in _events(tracer)}
        assert events["cdcl.propagate"]["span"] == iteration.span_id
        assert events["cdcl.propagate"]["attrs"] == {"trail": 5}
        assert events["qa.degraded"]["span"] == solve.span_id

    def test_root_event_has_no_span(self):
        tracer = Tracer()
        tracer.event("orphan")
        assert _events(tracer)[0]["span"] is None


class TestSinksAndReadback:
    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(sink=JsonlSink(path))
        with tracer.span("solve", num_vars=3):
            tracer.event("cdcl.propagate")
        tracer.close()
        records = read_trace(path)
        assert records[0]["type"] == "meta"
        assert [r["type"] for r in records[1:]] == ["event", "span"]
        assert records[2]["attrs"] == {"num_vars": 3}

    def test_jsonl_accepts_open_handle(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            tracer = Tracer(sink=JsonlSink(handle))
            with tracer.span("solve"):
                pass
            tracer.close()
            assert not handle.closed  # caller-owned handle stays open
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[1])["name"] == "solve"

    def test_jsonl_bytes_of_a_traced_hybrid_solve(self):
        """Every record of a traced uf50 hybrid solve is written as the
        bytes ``json.dump`` with the sink's options writes."""
        from repro.benchgen import random_3sat
        from repro.core.config import HyQSatConfig
        from repro.core.hyqsat import HyQSatSolver

        written, dumped = io.StringIO(), io.StringIO()
        sink = JsonlSink(written)

        class Both:
            def write(self, record):
                sink.write(record)
                json.dump(record, dumped, separators=(",", ":"), sort_keys=True)
                dumped.write("\n")

            def close(self):
                sink.close()

        observability = Observability(tracer=Tracer(sink=Both()))
        formula = random_3sat(50, 218, np.random.default_rng(0))
        HyQSatSolver(
            formula, config=HyQSatConfig(seed=0), observability=observability
        ).solve()
        observability.close()
        assert written.getvalue() == dumped.getvalue()
        assert written.getvalue().count("\n") > 500

    def test_read_trace_rejects_missing_meta(self):
        with pytest.raises(ValueError, match="missing meta"):
            read_trace(['{"type":"span","name":"solve"}'])

    def test_read_trace_rejects_unknown_schema(self):
        with pytest.raises(ValueError, match="unsupported trace schema"):
            read_trace(['{"type":"meta","schema":"hyqsat-trace/999"}'])

    def test_list_sink_records_property(self):
        sink = ListSink()
        tracer = Tracer(sink=sink)
        with tracer.span("solve"):
            pass
        assert tracer.records is sink.records


class TestNullTracer:
    def test_null_tracer_is_disabled_and_inert(self):
        assert NULL_TRACER.enabled is False
        span = NULL_TRACER.start_span("solve", x=1)
        assert span.set(y=2) is span
        span.end()
        with NULL_TRACER.span("iteration"):
            NULL_TRACER.event("cdcl.propagate")
        NULL_TRACER.set_qpu_clock(lambda: 1.0)
        NULL_TRACER.close()

    def test_null_span_is_shared(self):
        assert NULL_TRACER.start_span("a") is NULL_TRACER.start_span("b")
