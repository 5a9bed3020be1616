"""Worker pool: the execution substrate of the service.

Three interchangeable modes behind one ``submit`` API:

- ``thread`` (default) — a :class:`~concurrent.futures.
  ThreadPoolExecutor`.  Workers share the process, so each job's
  :class:`~repro.service.scheduler.ScheduledDevice` talks to the live
  :class:`~repro.service.scheduler.QpuScheduler` and QPU multiplexing
  (fair share, shared budget) is enforced in real time.
  The solver holds no global mutable state, so thread workers are safe.
- ``process`` — a :class:`~concurrent.futures.ProcessPoolExecutor`.
  True OS-level isolation; jobs are shipped as picklable
  :class:`~repro.service.jobs.JobSpec` and solved by the module-level
  :func:`~repro.service.jobs.run_job`, seeded per job, so results are
  bit-identical to thread/inline runs.  The scheduler cannot arbitrate
  across address spaces, so its accounting is *replayed* from each
  outcome's counters instead, and a shared budget is refused
  (:class:`~repro.service.service.ServiceConfig`).
- ``inline`` — runs the job synchronously inside ``submit`` (the
  ``--jobs 1`` path and the reference behaviour tests compare against).

Determinism is per-job, not per-pool: a job's result depends only on
its spec (seed included), never on which worker ran it or in what
order — the property the parallel-equals-serial tests pin.
"""

from __future__ import annotations

import concurrent.futures
import threading
from typing import Callable, Optional

POOL_MODES = ("thread", "process", "inline")


class _InlineFuture:
    """A completed-at-submit Future look-alike for inline mode."""

    def __init__(self, value=None, error: Optional[BaseException] = None):
        self._value = value
        self._error = error

    def result(self, timeout: Optional[float] = None):
        if self._error is not None:
            raise self._error
        return self._value

    def done(self) -> bool:
        return True

    def cancel(self) -> bool:
        return False

    def add_done_callback(self, fn: Callable) -> None:
        fn(self)


class WorkerPool:
    """A bounded pool of job executors (see module docstring)."""

    def __init__(self, workers: int = 1, mode: str = "thread"):
        if mode not in POOL_MODES:
            raise ValueError(f"unknown pool mode {mode!r}; known: {POOL_MODES}")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.mode = mode
        self.workers = workers
        self._executor = None
        self._lock = threading.Lock()
        if mode == "thread":
            self._executor = concurrent.futures.ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="hyqsat-worker"
            )
        elif mode == "process":
            self._executor = concurrent.futures.ProcessPoolExecutor(
                max_workers=workers
            )

    @property
    def live_scheduling(self) -> bool:
        """True when workers share the service's address space, so the
        QPU scheduler can arbitrate calls live rather than by replay."""
        return self.mode != "process"

    def submit(self, fn: Callable, /, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` on the pool; returns a Future.

        Inline mode executes synchronously and returns an
        already-completed future, so callers are mode-agnostic.
        """
        if self._executor is None:
            try:
                return _InlineFuture(value=fn(*args, **kwargs))
            except BaseException as error:  # noqa: BLE001 — future contract
                return _InlineFuture(error=error)
        return self._executor.submit(fn, *args, **kwargs)

    def respawn(self) -> bool:
        """Replace a *broken* process executor with a fresh one.

        A worker process dying (OOM kill, ``kill -9``) poisons the
        whole :class:`~concurrent.futures.ProcessPoolExecutor`: every
        in-flight future raises ``BrokenExecutor`` and no new work is
        accepted.  The service calls this before resubmitting the lost
        jobs.  Only an actually-broken executor is replaced — a second
        poisoned future arriving after a respawn must not discard the
        healthy pool (and the resubmissions already queued on it).
        Thread/inline pools never break; no-op.  Returns True when a
        new executor was installed.
        """
        if self.mode != "process":
            return False
        with self._lock:
            if not getattr(self._executor, "_broken", False):
                return False
            old = self._executor
            self._executor = concurrent.futures.ProcessPoolExecutor(
                max_workers=self.workers
            )
            old.shutdown(wait=False)
            return True

    def shutdown(self, wait: bool = True, cancel_pending: bool = False) -> None:
        """Stop accepting work; optionally cancel queued tasks."""
        if self._executor is not None:
            self._executor.shutdown(wait=wait, cancel_futures=cancel_pending)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown(wait=True)
