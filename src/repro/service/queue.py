"""Priority job queue with deadlines and admission control.

A thread-safe bounded queue ordered by ``(priority class, submission
order)``: strict priority between classes, FIFO within a class.
Admission control happens at :meth:`~JobQueue.push` — a queue at
``max_depth`` rejects instead of blocking, so a flooded service sheds
load at the door rather than growing without bound.  Deadlines are
*queue* deadlines: a job whose ``deadline_s`` elapses while still
queued is expired at pop time and never dispatched (a job already
running is allowed to finish).

All deadline arithmetic runs on an injectable monotonic ``clock``
(default :func:`time.monotonic`), so expiry is immune to wall-clock
adjustments and fully deterministic under a fake clock in tests.
"""

from __future__ import annotations

import heapq
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from repro.service.jobs import JobSpec


class AdmissionError(RuntimeError):
    """The queue refused a job at admission (full, or closed)."""


@dataclass(order=True)
class _Entry:
    sort_key: Tuple[int, int]
    spec: JobSpec = field(compare=False)
    submitted_at: float = field(compare=False)
    #: Lazy cancellation: popped entries with this flag are discarded.
    cancelled: bool = field(default=False, compare=False)


@dataclass
class QueueStats:
    """Counters the service folds into its metrics."""

    admitted: int = 0
    rejected: int = 0
    expired: int = 0
    cancelled: int = 0


class JobQueue:
    """Bounded priority queue of :class:`JobSpec`.

    ``max_depth`` bounds the number of *queued* (not yet popped) jobs;
    ``None`` means unbounded.  ``clock`` is the monotonic time source
    used for deadlines and wait accounting (tests inject a fake).
    All methods are thread-safe.
    """

    def __init__(
        self,
        max_depth: Optional[int] = None,
        clock: Optional[Callable[[], float]] = None,
    ):
        if max_depth is not None and max_depth < 1:
            raise ValueError("max_depth must be >= 1 when set")
        self.max_depth = max_depth
        self._clock = time.monotonic if clock is None else clock
        self.stats = QueueStats()
        self._heap: List[_Entry] = []
        #: job_id -> entry of every queued, not cancelled job.
        self._by_id: dict = {}
        self._seq = 0
        self._closed = False
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)

    def __len__(self) -> int:
        return len(self._by_id)

    def push(self, spec: JobSpec, now: Optional[float] = None) -> None:
        """Admit a job or raise :class:`AdmissionError`.

        ``now`` (``time.monotonic()`` domain) exists so tests can pin
        the clock; deadlines are measured from this instant.
        """
        with self._not_empty:
            if self._closed:
                raise AdmissionError("queue is closed to new jobs")
            if spec.job_id in self._by_id:
                raise AdmissionError(f"duplicate job id {spec.job_id!r}")
            depth = len(self._by_id)
            if self.max_depth is not None and depth >= self.max_depth:
                self.stats.rejected += 1
                raise AdmissionError(
                    f"queue full (depth {depth} >= max_depth {self.max_depth})"
                )
            entry = _Entry(
                sort_key=(spec.priority_rank, self._seq),
                spec=spec,
                submitted_at=self._clock() if now is None else now,
            )
            self._seq += 1
            heapq.heappush(self._heap, entry)
            self._by_id[spec.job_id] = entry
            self.stats.admitted += 1
            self._not_empty.notify()

    def cancel(self, job_id: str) -> bool:
        """Cancel a still-queued job; False if unknown or already popped."""
        with self._lock:
            entry = self._by_id.pop(job_id, None)
            if entry is None:
                return False
            entry.cancelled = True
            self.stats.cancelled += 1
            return True

    def close(self) -> None:
        """Refuse further pushes and wake blocked poppers."""
        with self._not_empty:
            self._closed = True
            self._not_empty.notify_all()

    def pop(
        self, timeout: Optional[float] = None, now: Optional[float] = None
    ) -> Tuple[Optional[JobSpec], List[JobSpec], float]:
        """Pop the next runnable job.

        Returns ``(spec, expired, waited_s)`` where ``expired`` lists
        jobs whose queue deadline passed before dispatch (the caller
        owes each an ``expired`` outcome) and ``waited_s`` is the
        popped job's time in queue.  ``spec`` is ``None`` on timeout or
        when the queue is closed and drained.
        """
        deadline = None if timeout is None else self._clock() + timeout
        expired: List[JobSpec] = []
        with self._not_empty:
            while True:
                clock = self._clock() if now is None else now
                while self._heap:
                    entry = heapq.heappop(self._heap)
                    if entry.cancelled:
                        continue
                    del self._by_id[entry.spec.job_id]
                    spec = entry.spec
                    waited = clock - entry.submitted_at
                    if (
                        spec.deadline_s is not None
                        and waited > spec.deadline_s
                    ):
                        self.stats.expired += 1
                        expired.append(spec)
                        continue
                    return spec, expired, max(0.0, waited)
                if self._closed:
                    return None, expired, 0.0
                remaining = (
                    None if deadline is None else deadline - self._clock()
                )
                if remaining is not None and remaining <= 0:
                    return None, expired, 0.0
                self._not_empty.wait(remaining)
