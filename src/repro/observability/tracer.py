"""Structured tracing for the hybrid solve loop.

A :class:`Tracer` emits typed records — *spans* (named intervals with a
parent, forming a tree) and *events* (named points attached to the
enclosing span) — with two clocks per record:

- **wall clock**: monotonic seconds (``time.perf_counter``) relative to
  tracer creation; this is real CPU time of the pure-Python pipeline.
- **modelled QPU clock**: microseconds of modelled device time (the
  :class:`~repro.annealer.timing.QpuTimingModel` accounting), injected
  via :meth:`Tracer.set_qpu_clock`.  It only advances across device
  calls, so a span's ``qpu_dur_us`` isolates the annealer share of an
  interval exactly — the distinction Figure 11's breakdown is built on.

Spans nest through an explicit stack: ``start_span`` parents the new
span under the innermost open span, so call sites never pass parent
ids around.  The stack lives in a context variable, so each thread and
each asyncio task nests its own spans: the gateway's overlapping
connections each keep a root ``gateway.session`` span of their own.
Records are handed to a *sink* — an in-memory list (:class:`ListSink`)
or a JSONL file (:class:`JsonlSink`) — when the span **ends**
(children therefore appear before their parents in the stream, as in
most trace formats; :mod:`repro.analysis.trace_report` rebuilds the
tree from ids).

The complete record schema — every span name, event name, attribute,
and unit — is documented in ``docs/TELEMETRY.md`` and mirrored in
:mod:`repro.observability.schema`; the trace-contract tests enforce
that the two stay in sync.

The disabled path is a singleton :data:`NULL_TRACER` whose methods are
no-ops returning a shared null span, so instrumentation points cost an
attribute check (``tracer.enabled``) or one trivial call when tracing
is off; ``benchmarks/bench_observability.py`` measures the residual
overhead (acceptance: <= 2% on the hybrid solve hot path).
"""

from __future__ import annotations

import contextvars
import json
import time
from typing import Any, Callable, Dict, IO, Iterable, List, Optional, Tuple

#: Trace format identifier written in the leading meta record; bump on
#: any breaking change to the record schema.
TRACE_SCHEMA_VERSION = "hyqsat-trace/1"


class ListSink:
    """Collects records in memory (``records`` attribute)."""

    def __init__(self) -> None:
        self.records: List[Dict[str, Any]] = []

    def write(self, record: Dict[str, Any]) -> None:
        """Append one record."""
        self.records.append(record)

    def close(self) -> None:
        """No-op (memory sink)."""


class JsonlSink:
    """Writes each record as one JSON line.

    Accepts a path (opened lazily, closed by :meth:`close`) or an
    already-open text handle (left open on :meth:`close` unless it was
    path-opened here).
    """

    def __init__(self, path_or_handle) -> None:
        self._path: Optional[str] = None
        self._handle: Optional[IO[str]] = None
        self._owns_handle = False
        if hasattr(path_or_handle, "write"):
            self._handle = path_or_handle
        else:
            self._path = str(path_or_handle)

    def write(self, record: Dict[str, Any]) -> None:
        """Serialise one record as a JSON line."""
        if self._handle is None:
            self._handle = open(self._path, "w", encoding="utf-8")
            self._owns_handle = True
        # One dumps call: json's C encoder, one write per record
        # (json.dump takes the pure-Python encoder, a write per token).
        self._handle.write(
            json.dumps(record, separators=(",", ":"), sort_keys=True) + "\n"
        )

    def close(self) -> None:
        """Flush and (for path-opened files) close the output."""
        if self._handle is not None:
            self._handle.flush()
            if self._owns_handle:
                self._handle.close()
                self._handle = None


class Span:
    """One open (or finished) trace interval.

    Usable imperatively (``span = tracer.start_span(...); span.end()``)
    or as a context manager.  ``set(**attrs)`` merges attributes at any
    point before the span ends.
    """

    __slots__ = (
        "tracer",
        "name",
        "span_id",
        "parent_id",
        "t_wall_s",
        "t_qpu_us",
        "attrs",
        "_ended",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        span_id: int,
        parent_id: Optional[int],
        t_wall_s: float,
        t_qpu_us: float,
        attrs: Dict[str, Any],
    ):
        self.tracer = tracer
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.t_wall_s = t_wall_s
        self.t_qpu_us = t_qpu_us
        self.attrs = attrs
        self._ended = False

    def set(self, **attrs: Any) -> "Span":
        """Merge attributes into the span."""
        self.attrs.update(attrs)
        return self

    def end(self, **attrs: Any) -> None:
        """Close the span and emit its record."""
        if not self._ended:
            self._ended = True
            if attrs:
                self.attrs.update(attrs)
            self.tracer._end_span(self)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None and "error" not in self.attrs:
            self.attrs["error"] = exc_type.__name__
        self.end()


class _NullSpan:
    """The do-nothing span returned by :class:`NullTracer`."""

    __slots__ = ()

    def set(self, **attrs: Any) -> "_NullSpan":
        return self

    def end(self, **attrs: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Disabled tracer: every operation is a no-op.

    Shared as the module singleton :data:`NULL_TRACER`; instrumented
    code may either call through it (cheap) or skip instrumentation
    entirely after checking :attr:`enabled` (cheapest — the CDCL
    per-iteration path does this).
    """

    enabled = False

    def start_span(self, name: str, **attrs: Any) -> _NullSpan:
        """Return the shared null span."""
        return _NULL_SPAN

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        """Return the shared null span (context-manager form)."""
        return _NULL_SPAN

    def event(self, name: str, **attrs: Any) -> None:
        """Drop the event."""

    def set_qpu_clock(self, clock: Callable[[], float]) -> None:
        """Ignore the clock."""

    def close(self) -> None:
        """No-op."""


NULL_TRACER = NullTracer()


class Tracer:
    """Span/event emitter with an explicit nesting stack.

    Parameters
    ----------
    sink:
        Record consumer; defaults to an in-memory :class:`ListSink`
        (exposed as :attr:`records`).
    qpu_clock:
        Zero-argument callable returning the current modelled device
        time in microseconds; settable later via :meth:`set_qpu_clock`
        (the hybrid solver injects its device's accumulator).
    """

    enabled = True

    def __init__(
        self,
        sink=None,
        qpu_clock: Optional[Callable[[], float]] = None,
    ):
        self.sink = sink if sink is not None else ListSink()
        self._qpu_clock: Callable[[], float] = qpu_clock or (lambda: 0.0)
        self._t0 = time.perf_counter()
        self._next_id = 1
        #: The current context's open spans, innermost last.
        self._stack: "contextvars.ContextVar[Tuple[Span, ...]]" = (
            contextvars.ContextVar("hyqsat_open_spans", default=())
        )
        self._closed = False
        self.sink.write(
            {
                "type": "meta",
                "schema": TRACE_SCHEMA_VERSION,
                "clocks": {"wall": "seconds", "qpu": "microseconds"},
            }
        )

    # -- clocks --------------------------------------------------------

    def set_qpu_clock(self, clock: Callable[[], float]) -> None:
        """Install the modelled-QPU-time source (microseconds)."""
        self._qpu_clock = clock

    def _now_wall(self) -> float:
        return time.perf_counter() - self._t0

    def _now_qpu(self) -> float:
        return float(self._qpu_clock())

    # -- spans ---------------------------------------------------------

    @property
    def current_span_id(self) -> Optional[int]:
        """Id of the innermost open span (None at the root)."""
        stack = self._stack.get()
        return stack[-1].span_id if stack else None

    def start_span(self, name: str, **attrs: Any) -> Span:
        """Open a span under the innermost open span."""
        span = Span(
            tracer=self,
            name=name,
            span_id=self._next_id,
            parent_id=self.current_span_id,
            t_wall_s=self._now_wall(),
            t_qpu_us=self._now_qpu(),
            attrs=dict(attrs),
        )
        self._next_id += 1
        self._stack.set(self._stack.get() + (span,))
        return span

    #: ``with tracer.span("name"): ...`` — Span is its own context
    #: manager, so the two spellings share one implementation.
    span = start_span

    def _end_span(self, span: Span) -> None:
        stack = self._stack.get()
        if span in stack:
            # Tolerate out-of-order ends (e.g. an exception skipped a
            # child's end): close every span opened after this one first.
            index = stack.index(span)
            self._stack.set(stack[:index])
            for child in reversed(stack[index + 1 :]):
                child.end()
        self.sink.write(
            {
                "type": "span",
                "name": span.name,
                "id": span.span_id,
                "parent": span.parent_id,
                "t_wall_s": round(span.t_wall_s, 9),
                "wall_dur_s": round(self._now_wall() - span.t_wall_s, 9),
                "t_qpu_us": round(span.t_qpu_us, 6),
                "qpu_dur_us": round(self._now_qpu() - span.t_qpu_us, 6),
                "attrs": span.attrs,
            }
        )

    # -- events --------------------------------------------------------

    def event(self, name: str, **attrs: Any) -> None:
        """Emit a point record attached to the innermost open span."""
        self.sink.write(
            {
                "type": "event",
                "name": name,
                "span": self.current_span_id,
                "t_wall_s": round(self._now_wall(), 9),
                "t_qpu_us": round(self._now_qpu(), 6),
                "attrs": dict(attrs),
            }
        )

    # -- lifecycle -----------------------------------------------------

    @property
    def records(self) -> List[Dict[str, Any]]:
        """In-memory records (ListSink only)."""
        return getattr(self.sink, "records", [])

    def close(self) -> None:
        """End dangling spans and flush/close the sink."""
        if self._closed:
            return
        stack = self._stack.get()
        if stack:
            stack[0].end()
        self._closed = True
        self.sink.close()


def read_trace(path_or_lines) -> List[Dict[str, Any]]:
    """Load a JSONL trace back into a record list.

    Accepts a file path or an iterable of JSON lines; blank lines are
    skipped.  Raises ``ValueError`` when the leading meta record is
    missing or declares an unknown schema.
    """
    if isinstance(path_or_lines, (str, bytes)) or hasattr(
        path_or_lines, "__fspath__"
    ):
        with open(path_or_lines, "r", encoding="utf-8") as handle:
            lines: Iterable[str] = handle.readlines()
    else:
        lines = path_or_lines
    records = [json.loads(line) for line in lines if line.strip()]
    if not records or records[0].get("type") != "meta":
        raise ValueError("not a hyqsat trace: missing meta record")
    if records[0].get("schema") != TRACE_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported trace schema {records[0].get('schema')!r} "
            f"(expected {TRACE_SCHEMA_VERSION})"
        )
    return records
