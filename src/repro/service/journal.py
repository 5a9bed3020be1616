"""Crash-safe write-ahead job journal.

:class:`JobJournal` is an append-only JSONL log that makes
``hyqsat serve`` / ``hyqsat batch`` restartable: every admitted job,
every dispatch, every worker retry, and — crucially — every *acked*
terminal outcome is a journal record, so a crashed session can be
re-run with the same command and

- acked jobs are **re-emitted from the journal** exactly once, never
  re-solved (and never re-billed on the modelled QPU clock);
- unacked jobs (pending or in-flight at the crash) simply run again,
  which is safe because a job's result depends only on its spec
  (docs/SERVICE.md, "The determinism contract").

Durability model
----------------

Each record is one JSON object per line carrying a CRC-32 checksum of
its own canonical serialisation (``"ck"``), so a torn or bit-flipped
tail is detected, not replayed.  ``submit``/``start`` records are
batched (fsync every :data:`FSYNC_EVERY` records); ``done`` records —
the ack — are flushed **and fsynced before the result line is
emitted** to the consumer, which is the invariant that makes "the
consumer saw it" imply "the journal holds it".  On open, the journal reads the existing
file, drops everything from the first unparseable or checksum-failing
line onward (counting the torn records), truncates the file back to
the last valid record, and appends from there.

Record kinds::

    {"k": "submit", "id": ..., "spec": {...}, "ck": ...}
    {"k": "start",  "id": ..., "ck": ...}
    {"k": "retry",  "id": ..., "reason": ..., "ck": ...}
    {"k": "done",   "id": ..., "outcome": {...}, "ck": ...}

Pure stdlib (``json``, ``zlib``, ``os``); no third-party deps.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: Valid record kinds, in lifecycle order.
RECORD_KINDS = ("submit", "start", "retry", "done")

#: Batched records (``submit``/``start``) between two fsyncs.
FSYNC_EVERY = 8


def _encode_record(payload: dict) -> str:
    """Canonical JSONL line for ``payload`` with its checksum added."""
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    check = format(zlib.crc32(canon.encode("utf-8")) & 0xFFFFFFFF, "08x")
    return json.dumps(
        dict(payload, ck=check), sort_keys=True, separators=(",", ":")
    )


def _decode_record(line: str) -> Optional[dict]:
    """Parse and verify one journal line; ``None`` when invalid."""
    try:
        record = json.loads(line)
    except (ValueError, TypeError):
        return None
    if not isinstance(record, dict):
        return None
    check = record.pop("ck", None)
    canon = json.dumps(record, sort_keys=True, separators=(",", ":"))
    expected = format(zlib.crc32(canon.encode("utf-8")) & 0xFFFFFFFF, "08x")
    if check != expected:
        return None
    if record.get("k") not in RECORD_KINDS:
        return None
    return record


@dataclass
class JournalStats:
    """Counters of one :class:`JobJournal` lifetime (metrics feed)."""

    records_by_kind: Dict[str, int] = field(default_factory=dict)
    fsyncs: int = 0
    torn_records: int = 0
    replayed: int = 0

    def count(self, kind: str) -> None:
        self.records_by_kind[kind] = self.records_by_kind.get(kind, 0) + 1


@dataclass
class RecoveryReport:
    """What a journal knew when it was (re)opened.

    ``outcomes`` maps job id → the journaled terminal outcome dict
    (the ack); ``submitted`` maps job id → the journaled spec dict;
    ``started`` / ``retries`` describe in-flight state at the crash.
    """

    outcomes: Dict[str, dict] = field(default_factory=dict)
    submitted: Dict[str, dict] = field(default_factory=dict)
    started: List[str] = field(default_factory=list)
    retries: Dict[str, int] = field(default_factory=dict)
    torn_records: int = 0
    valid_records: int = 0

    @property
    def has_state(self) -> bool:
        return bool(self.valid_records)


def read_journal(path: str) -> Tuple[List[dict], int, int]:
    """Read a journal file without opening it for writes.

    Returns ``(valid_records, valid_byte_length, torn_records)``.
    Validation is prefix-based: the first bad line invalidates
    everything after it (an append-only log's suffix cannot be trusted
    past a corrupt record).
    """
    records: List[dict] = []
    valid_len = 0
    torn = 0
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except FileNotFoundError:
        return records, 0, 0
    offset = 0
    for line in raw.splitlines(keepends=True):
        text = line.decode("utf-8", errors="replace").strip()
        if not line.endswith(b"\n"):
            # Torn final write: no newline means the record may be
            # incomplete even if it happens to parse.
            if text:
                torn += 1
            break
        if not text:
            offset += len(line)
            continue
        record = _decode_record(text)
        if record is None:
            # Everything from here on is untrusted.
            torn += sum(
                1
                for rest in raw[offset:].splitlines()
                if rest.strip()
            )
            break
        records.append(record)
        offset += len(line)
        valid_len = offset
    return records, valid_len, torn


def _report_from_records(records: List[dict]) -> RecoveryReport:
    report = RecoveryReport(valid_records=len(records))
    for record in records:
        kind = record["k"]
        job_id = record.get("id")
        if kind == "submit":
            report.submitted[job_id] = record.get("spec", {})
        elif kind == "start":
            report.started.append(job_id)
        elif kind == "retry":
            report.retries[job_id] = report.retries.get(job_id, 0) + 1
        elif kind == "done":
            report.outcomes[job_id] = record.get("outcome", {})
    return report


class JobJournal:
    """Append-only, checksummed, crash-recoverable job journal.

    Opening an existing journal performs recovery: the valid record
    prefix becomes :attr:`recovered`, the torn tail (if any) is
    truncated away, and subsequent records append after the last valid
    one.  All writes happen on the service coordinator thread.
    """

    def __init__(self, path: str):
        self.path = path
        self.stats = JournalStats()

        records, valid_len, torn = read_journal(path)
        self.stats.torn_records = torn
        self.recovered = _report_from_records(records)
        self.recovered.torn_records = torn

        parent = os.path.dirname(os.path.abspath(path))
        os.makedirs(parent, exist_ok=True)
        self._handle = open(path, "ab")
        if self._handle.tell() != valid_len:
            # Drop the torn tail so new records append after the last
            # valid one instead of gluing onto a partial line.
            self._handle.truncate(valid_len)
            self._handle.seek(valid_len)
        self._unsynced = 0
        self._closed = False

    # -- writes --------------------------------------------------------

    def _append(self, payload: dict, durable: bool) -> None:
        if self._closed:
            raise RuntimeError("journal is closed")
        line = _encode_record(payload) + "\n"
        self._handle.write(line.encode("utf-8"))
        self.stats.count(payload["k"])
        self._unsynced += 1
        if durable or self._unsynced >= FSYNC_EVERY:
            self.sync()

    def record_submit(self, spec) -> None:
        """Journal an admitted job (batched fsync)."""
        self._append(
            {"k": "submit", "id": spec.job_id, "spec": spec.as_dict()},
            durable=False,
        )

    def record_start(self, job_id: str) -> None:
        """Journal a dispatch (batched fsync)."""
        self._append({"k": "start", "id": job_id}, durable=False)

    def record_retry(self, job_id: str, reason: str) -> None:
        """Journal a worker-death requeue (durable)."""
        self._append(
            {"k": "retry", "id": job_id, "reason": reason}, durable=True
        )

    def record_done(self, outcome) -> None:
        """Journal a terminal outcome — the ack.

        Returns only after the record is flushed **and fsynced**; the
        caller must emit the result line to the consumer *after* this
        returns, never before.
        """
        self._append(
            {"k": "done", "id": outcome.job_id, "outcome": outcome.as_dict()},
            durable=True,
        )

    def sync(self) -> None:
        """Flush buffered records to stable storage."""
        if self._unsynced == 0 or self._closed:
            return
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self.stats.fsyncs += 1
        self._unsynced = 0

    def close(self) -> None:
        if self._closed:
            return
        self.sync()
        self._closed = True
        self._handle.close()

    def __enter__(self) -> "JobJournal":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- recovery queries ---------------------------------------------

    def recovered_outcome(self, spec) -> Optional[dict]:
        """The journaled terminal outcome for ``spec``, if its acked
        record matches the spec the consumer is re-submitting.

        A job id whose journaled spec differs from the current one is
        treated as a *new* job (the consumer changed the job file), so
        it re-solves instead of replaying a stale result.
        """
        outcome = self.recovered.outcomes.get(spec.job_id)
        if outcome is None:
            return None
        journaled = self.recovered.submitted.get(spec.job_id)
        if journaled is not None and journaled != spec.as_dict():
            return None
        self.stats.replayed += 1
        return outcome
