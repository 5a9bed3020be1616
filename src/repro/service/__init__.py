"""In-process concurrent solver service.

The service turns the single-shot hybrid solver into a multi-tenant
system: a priority :class:`~repro.service.queue.JobQueue` with
deadlines and admission control feeds a
:class:`~repro.service.pool.WorkerPool`; every worker's anneal
requests are multiplexed across the simulated annealer of their
hardware lattice by a fair-share
:class:`~repro.service.scheduler.QpuScheduler` (one request at a time,
with a shared device-time budget); and the
:class:`~repro.service.service.SolverService` coordinator — the one
dispatcher behind ``hyqsat batch``/``serve`` and the gateway —
deduplicates jobs whose canonical CNF fingerprint and solve options
match, solving each distinct instance once.

Results are bit-identical to solo ``hyqsat solve`` runs per job seed,
whatever the worker count or pool mode — see docs/SERVICE.md.

The durability tier makes the service crash-safe: a write-ahead
:class:`~repro.service.journal.JobJournal` lets a killed session be
re-run with acked jobs replayed instead of re-solved,
:mod:`repro.service.checkpoint` persists mid-search solver state so
long solves resume where they stopped, and
:class:`~repro.service.scheduler.FleetDevice` fails anneal traffic
over across a registry of health-tracked devices (see docs/SERVICE.md,
"Durability & failure model").
"""

from repro.service.checkpoint import (
    CheckpointManager,
    discard_checkpoint,
    load_checkpoint,
    save_checkpoint,
)
from repro.service.jobs import (
    JOB_STATES,
    PRIORITY_CLASSES,
    JobOutcome,
    JobSpec,
    build_device,
    build_solver,
    run_job,
)
from repro.service.journal import (
    JobJournal,
    JournalStats,
    RecoveryReport,
    read_journal,
)
from repro.service.pool import POOL_MODES, WorkerPool
from repro.service.queue import AdmissionError, JobQueue, QueueStats
from repro.service.scheduler import (
    FleetDevice,
    FleetPolicy,
    FleetStats,
    QpuScheduler,
    ScheduledDevice,
    SchedulerStats,
)
from repro.service.service import (
    ServiceConfig,
    ServiceStats,
    SolverService,
    run_batch,
)

__all__ = [
    "AdmissionError",
    "CheckpointManager",
    "FleetDevice",
    "FleetPolicy",
    "FleetStats",
    "JOB_STATES",
    "JobJournal",
    "JobOutcome",
    "JobQueue",
    "JobSpec",
    "JournalStats",
    "POOL_MODES",
    "PRIORITY_CLASSES",
    "QpuScheduler",
    "QueueStats",
    "RecoveryReport",
    "ScheduledDevice",
    "SchedulerStats",
    "ServiceConfig",
    "ServiceStats",
    "SolverService",
    "WorkerPool",
    "build_device",
    "build_solver",
    "discard_checkpoint",
    "load_checkpoint",
    "read_journal",
    "run_batch",
    "run_job",
    "save_checkpoint",
]
