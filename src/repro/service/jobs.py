"""Job model of the solver service.

A *job* is one CNF solve request: the instance (a DIMACS file path or
inline DIMACS text), the seeds and device options that make the solve
reproducible, and the scheduling attributes the service consumes
(priority class, relative deadline).  :class:`JobSpec` is the wire
format — one JSON object per line in the job JSONL files that
``hyqsat serve`` / ``hyqsat batch`` read — and :class:`JobOutcome` is
the matching result line.

:func:`build_solver` constructs *exactly* the solver ``hyqsat solve``
builds for the same options, so a job executed by the service is
bit-identical to a solo CLI run with the same seed; :func:`run_job` is
the worker-side entry point (picklable, module-level) that the
:class:`~repro.service.pool.WorkerPool` executes.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass
from dataclasses import fields as dataclass_fields
from typing import Any, Dict, List, Optional

from repro.cdcl.engine import DEFAULT_ENGINE
from repro.sat.cnf import CNF, fingerprint

#: Priority classes, highest first.  The queue serves strictly by
#: class, FIFO within a class.
PRIORITY_CLASSES = ("interactive", "batch", "background")

#: Terminal job states (the ``state`` label of
#: ``hyqsat_service_jobs_total``).
JOB_STATES = (
    "done", "failed", "deduped", "rejected", "expired", "cancelled",
)


@dataclass
class JobSpec:
    """One solve request (the job-JSONL line schema; docs/SERVICE.md).

    Exactly one of ``path`` / ``dimacs`` must be set.  The solver
    options mirror the ``hyqsat solve`` flags one-to-one so a job can
    be replayed as a solo CLI run.
    """

    job_id: str
    path: Optional[str] = None
    dimacs: Optional[str] = None
    seed: int = 0
    priority: str = "batch"
    #: Relative deadline in wall seconds from submission; a job still
    #: queued past its deadline is expired, never dispatched.
    deadline_s: Optional[float] = None
    classic: bool = False
    noise: bool = False
    lenient: bool = False
    qa_faults: Optional[str] = None
    fault_seed: Optional[int] = None
    qa_retries: int = 4
    qa_deadline_us: Optional[float] = None
    qa_budget_us: Optional[float] = None
    qa_breaker_threshold: int = 5
    no_resilience: bool = False
    #: Anneal against a fleet of this many devices with health-scored
    #: failover (0 or 1 = single device; see
    #: :class:`~repro.service.scheduler.FleetDevice`).
    fleet: int = 0
    #: Hedge fleet anneals: when the primary's modelled call time
    #: exceeds this many µs, a backup device anneals the same request
    #: and the lower-energy result wins.  Requires ``fleet`` >= 2.
    fleet_hedge_us: Optional[float] = None
    #: QA hardware topology ("chimera" or "pegasus"; None = chimera).
    #: The gateway's fleet router pins this when it places a job, so
    #: the placement is replayable as a solo ``hyqsat solve`` run.
    topology: Optional[str] = None
    #: Hardware grid size (``grid x grid`` cells; None = 16, the
    #: D-Wave 2000Q scale the paper targets).
    grid: Optional[int] = None
    #: Checkpoint the solve every N post-warmup conflicts (0 = off).
    #: Not part of the dedup key: checkpointing never changes the
    #: outcome, only crash recovery cost.
    checkpoint_every: int = 0
    #: CDCL engine ("fast" or "reference").  Not part of the dedup key:
    #: the engines are gated bit-identical, so either may serve the
    #: other's cached result.
    engine: str = DEFAULT_ENGINE

    def __post_init__(self) -> None:
        if self.engine not in ("reference", "fast"):
            raise ValueError(
                f"unknown CDCL engine {self.engine!r}; "
                "expected 'reference' or 'fast'"
            )
        if (self.path is None) == (self.dimacs is None):
            raise ValueError("exactly one of path/dimacs must be set")
        if self.priority not in PRIORITY_CLASSES:
            raise ValueError(
                f"unknown priority {self.priority!r}; "
                f"known: {PRIORITY_CLASSES}"
            )
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive when set")
        if self.fleet < 0:
            raise ValueError("fleet must be >= 0")
        if self.fleet_hedge_us is not None:
            if self.fleet_hedge_us <= 0:
                raise ValueError("fleet_hedge_us must be positive when set")
            if self.fleet < 2:
                raise ValueError("fleet_hedge_us requires fleet >= 2")
        if self.topology is not None:
            from repro.topology import TOPOLOGIES

            if self.topology not in TOPOLOGIES:
                raise ValueError(
                    f"unknown topology {self.topology!r}; "
                    f"known: {sorted(TOPOLOGIES)}"
                )
        if self.grid is not None and self.grid < 1:
            raise ValueError("grid must be >= 1 when set")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")
        if self.qa_faults is not None:
            from repro.annealer.faults import parse_fault_spec

            parse_fault_spec(self.qa_faults)  # validate eagerly

    @property
    def priority_rank(self) -> int:
        """Numeric rank (lower serves first)."""
        return PRIORITY_CLASSES.index(self.priority)

    def load_formula(self) -> CNF:
        """Read and, when needed, 3-SAT-reduce the instance."""
        from repro.sat import read_dimacs, parse_dimacs, to_3sat

        if self.path is not None:
            formula = read_dimacs(self.path, strict=not self.lenient)
        else:
            formula = parse_dimacs(self.dimacs, strict=not self.lenient)
        if not formula.is_3sat:
            formula = to_3sat(formula).formula
        return formula

    def solve_key(self, formula: Optional[CNF] = None) -> str:
        """Deduplication key: the canonical formula fingerprint plus
        every option that can change the solve's outcome.  Two jobs
        with equal keys are guaranteed to produce identical results,
        so the service solves one and shares the outcome."""
        import hashlib

        if formula is None:
            formula = self.load_formula()
        options = repr((
            self.seed, self.classic, self.noise, self.qa_faults,
            self.fault_seed, self.qa_retries, self.qa_deadline_us,
            self.qa_budget_us, self.qa_breaker_threshold,
            self.no_resilience, self.fleet, self.fleet_hedge_us,
            self.topology, self.grid,
        ))
        opt_hash = hashlib.sha256(options.encode()).hexdigest()[:12]
        return f"{fingerprint(formula)}:{opt_hash}"

    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict view (all fields, JSON-able) — the journal's
        record payload, compared field-for-field at recovery."""
        return asdict(self)

    def to_json(self) -> str:
        """One job-JSONL line (defaults omitted for readability)."""
        payload: Dict[str, Any] = {"id": self.job_id}
        for spec_field in dataclass_fields(self):
            name = spec_field.name
            if name in ("job_id", "path", "dimacs"):
                continue
            value = getattr(self, name)
            if value != spec_field.default:
                payload[name] = value
        if self.path is not None:
            payload["path"] = self.path
        else:
            payload["dimacs"] = self.dimacs
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "JobSpec":
        """Parse one job-JSONL line (see docs/SERVICE.md)."""
        payload = json.loads(line)
        if not isinstance(payload, dict):
            raise ValueError(f"job line must be a JSON object: {line!r}")
        job_id = payload.pop("id", None) or payload.pop("job_id", None)
        if not job_id:
            raise ValueError("job line missing 'id'")
        known = {f for f in cls.__dataclass_fields__ if f != "job_id"}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown job fields: {sorted(unknown)}")
        return cls(job_id=str(job_id), **payload)


@dataclass
class JobOutcome:
    """Terminal result of one job (the result-JSONL line schema).

    ``state`` is one of :data:`JOB_STATES`; solver fields are ``None``
    for jobs that never ran (rejected/expired/cancelled/failed).
    ``wait_seconds`` (submit → dispatch) and ``run_seconds`` (dispatch
    → completion) are filled in by the service, not the worker.
    """

    job_id: str
    state: str = "done"
    status: Optional[str] = None  # sat | unsat | unknown
    model: Optional[List[int]] = None
    iterations: Optional[int] = None
    conflicts: Optional[int] = None
    qa_calls: int = 0
    qpu_time_us: float = 0.0
    qa_retries: int = 0
    qa_failures: int = 0
    breaker_state: str = "closed"
    qa_budget_spent_us: float = 0.0
    degraded: bool = False
    seed: int = 0
    error: Optional[str] = None
    dedup_of: Optional[str] = None
    wait_seconds: float = 0.0
    run_seconds: float = 0.0
    #: True when the solve resumed from a mid-search checkpoint.  A
    #: resumed solve makes no live QA calls (checkpoints only exist
    #: post-warm-up), so the service bills its restored counters into
    #: the shared ledger by replay instead.
    resumed: bool = False
    #: True when the outcome was served from the persistent result
    #: cache (no solve ran, no QPU time was billed); ``cache_kind``
    #: says how — "exact" (bit-identical stored outcome replay),
    #: "model" (a cached model re-validated against this instance) or
    #: "unsat" (UNSAT inherited from a cached clause-subset).
    cached: Optional[bool] = None
    cache_kind: Optional[str] = None
    #: Number of banked learned clauses this solve was seeded with
    #: (cache warm start).  Warm-started outcomes are never stored for
    #: exact replay — their search counters differ from a cold solve's.
    warm_clauses: Optional[int] = None
    #: Short learned clauses harvested for the cache's clause bank
    #: (signed DIMACS literals).  Stripped before the outcome reaches
    #: result JSONL / the journal; only the cache layer reads it.
    learned: Optional[List[List[int]]] = None

    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict view (all fields, JSON-able) — the journal's
        ``done`` record payload."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JobOutcome":
        """Rebuild an outcome serialised by :meth:`as_dict` (journal
        replay)."""
        return cls(**data)

    def to_json(self) -> str:
        payload = {k: v for k, v in asdict(self).items() if v is not None}
        payload["id"] = payload.pop("job_id")
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "JobOutcome":
        payload = json.loads(line)
        payload["job_id"] = payload.pop("id")
        return cls(**payload)

    def as_dedup_of(self, primary: "JobOutcome", job_id: str) -> "JobOutcome":
        """A copy of ``primary``'s solver fields credited to this job:
        ``deduped`` when the primary is ``done``, else the primary's
        own state (a follower of a failed solve got no answer)."""
        twin = JobOutcome(**asdict(primary))
        twin.job_id = job_id
        twin.state = "deduped" if primary.state == "done" else primary.state
        twin.dedup_of = primary.job_id
        twin.wait_seconds = self.wait_seconds
        twin.run_seconds = 0.0
        return twin


def build_device(spec: JobSpec):
    """The device stack ``hyqsat solve`` would build for these options:
    a seeded (possibly faulty) :class:`AnnealerDevice`, wrapped in a
    :class:`ResilientDevice` unless ``no_resilience``; with ``fleet``
    >= 2, that many such stacks behind a health-scored
    :class:`~repro.service.scheduler.FleetDevice` (member 0 being
    exactly the solo stack, so a healthy fleet stays bit-identical)."""
    from repro.annealer import AnnealerDevice, NoiseModel, parse_fault_spec
    from repro.core.config import (
        BreakerPolicy,
        ResilienceConfig,
        RetryPolicy,
    )
    from repro.resilience import ResilientDevice

    noise = NoiseModel.dwave_2000q() if spec.noise else NoiseModel.noiseless()
    faults = parse_fault_spec(spec.qa_faults) if spec.qa_faults else None
    fault_seed = spec.seed if spec.fault_seed is None else spec.fault_seed
    hardware = None
    if spec.topology is not None or spec.grid is not None:
        from repro.topology import build_hardware

        hardware = build_hardware(spec.topology or "chimera", spec.grid or 16)

    def one_stack(member_fault_seed: int):
        device = AnnealerDevice(
            noise=noise,
            seed=spec.seed,
            faults=faults,
            fault_seed=member_fault_seed,
            hardware=hardware,
        )
        if not spec.no_resilience:
            device = ResilientDevice(
                device,
                ResilienceConfig(
                    retry=RetryPolicy(max_attempts=spec.qa_retries),
                    breaker=BreakerPolicy(
                        failure_threshold=spec.qa_breaker_threshold
                    ),
                    call_deadline_us=spec.qa_deadline_us,
                    qa_budget_us=spec.qa_budget_us,
                    seed=member_fault_seed,
                ),
            )
        return device

    if spec.fleet >= 2:
        from repro.service.scheduler import FleetDevice, FleetPolicy

        # Member i gets a decorrelated fault seed so one fault storm
        # does not take out every member in lockstep.
        members = [
            one_stack(fault_seed + 1000003 * i) for i in range(spec.fleet)
        ]
        return FleetDevice(
            members, FleetPolicy(hedge_after_us=spec.fleet_hedge_us)
        )
    return one_stack(fault_seed)


def build_solver(
    spec: JobSpec,
    formula: Optional[CNF] = None,
    device=None,
    observability=None,
    checkpoint_path: Optional[str] = None,
):
    """The solver a solo ``hyqsat solve`` run would construct.

    Returns an object with ``.solve()``: a CDCL preset for
    ``classic`` jobs, a :class:`HyQSatSolver` otherwise.  ``device``
    overrides the default stack (the service passes a
    scheduler-wrapped device here); ``formula`` skips a re-parse when
    the caller already loaded it.  With ``checkpoint_path`` set and
    ``spec.checkpoint_every`` > 0, the hybrid solve checkpoints there
    and resumes from any valid snapshot it finds (classic jobs never
    checkpoint — the preset has no hybrid hook to snapshot from).
    """
    from repro.cdcl import minisat_solver
    from repro.core import HyQSatConfig, HyQSatSolver

    if formula is None:
        formula = spec.load_formula()
    if spec.classic:
        return minisat_solver(formula, seed=spec.seed, engine=spec.engine)
    if device is None:
        device = build_device(spec)
    checkpoint_every = (
        spec.checkpoint_every if checkpoint_path is not None else 0
    )
    return HyQSatSolver(
        formula,
        device=device,
        config=HyQSatConfig(
            seed=spec.seed,
            engine=spec.engine,
            checkpoint_every=checkpoint_every,
            checkpoint_path=checkpoint_path if checkpoint_every else None,
        ),
        observability=observability,
    )


def outcome_from_result(spec: JobSpec, result) -> JobOutcome:
    """Fold a solve result (hybrid or classic) into a picklable
    :class:`JobOutcome`."""
    hybrid = getattr(result, "hybrid", None)
    outcome = JobOutcome(
        job_id=spec.job_id,
        state="done",
        status=result.status.value,
        model=(
            [lit.value for lit in result.model.as_literals()]
            if result.model is not None
            else None
        ),
        iterations=result.stats.iterations,
        conflicts=result.stats.conflicts,
        seed=spec.seed,
    )
    if hybrid is not None:
        outcome.qa_calls = hybrid.qa_calls
        outcome.qpu_time_us = hybrid.qpu_time_us
        outcome.qa_retries = hybrid.qa_retries
        outcome.qa_failures = hybrid.qa_failures
        outcome.breaker_state = hybrid.breaker_state
        outcome.qa_budget_spent_us = hybrid.qa_budget_spent_us
        outcome.degraded = hybrid.degraded
    return outcome


def run_job(
    spec: JobSpec,
    scheduler=None,
    checkpoint_dir=None,
    warm_clauses: Optional[List[List[int]]] = None,
    collect_learned: bool = False,
) -> JobOutcome:
    """Execute one job start to finish (the worker entry point).

    Never raises: any error becomes a ``failed`` outcome so one bad
    job cannot take down a worker or the service.  With a
    :class:`~repro.service.scheduler.QpuScheduler` supplied
    (thread/inline pools), the job's device is wrapped in a
    :class:`~repro.service.scheduler.ScheduledDevice` so its anneal
    requests go through the shared-QPU multiplexer; without one
    (process pools), the scheduler's accounting is replayed by the
    service from the outcome's counters.  With ``checkpoint_dir`` and
    ``spec.checkpoint_every`` set, the solve checkpoints under
    ``<checkpoint_dir>/<job_id>.ckpt`` and a retried/re-run job
    resumes from its last snapshot.

    ``warm_clauses`` seeds the solve with cache-banked learned clauses
    through the incremental API (hybrid jobs only; sound because the
    cache only donates clauses implied by a clause-subset of this
    instance).  ``collect_learned`` harvests the solve's own short
    learned clauses into ``outcome.learned`` for the bank.
    """
    started = time.perf_counter()
    try:
        formula = spec.load_formula()
        device = None
        if scheduler is not None and not spec.classic:
            from repro.service.scheduler import ScheduledDevice

            device = ScheduledDevice(
                build_device(spec), scheduler, spec.job_id
            )
        checkpoint_path = None
        if checkpoint_dir is not None and spec.checkpoint_every > 0:
            from repro.service.checkpoint import CheckpointManager

            checkpoint_path = CheckpointManager(checkpoint_dir).path_for(
                spec.job_id
            )
        solver = build_solver(
            spec,
            formula=formula,
            device=device,
            checkpoint_path=checkpoint_path,
        )
        if warm_clauses and not spec.classic:
            solver.preseed_clauses(warm_clauses)
        result = solver.solve()
        outcome = outcome_from_result(spec, result)
        outcome.resumed = getattr(solver, "_resumed_from_checkpoint", False)
        if warm_clauses and not spec.classic:
            outcome.warm_clauses = len(warm_clauses)
        if collect_learned and not spec.classic:
            from repro.cache import CLAUSE_BANK_MAX_CLAUSES, CLAUSE_BANK_MAX_LEN

            engine = getattr(solver, "last_engine", None)
            if engine is not None and outcome.status in ("sat", "unsat"):
                outcome.learned = engine.learned_clause_lits(
                    max_len=CLAUSE_BANK_MAX_LEN,
                    limit=CLAUSE_BANK_MAX_CLAUSES,
                ) or None
    except Exception as error:  # noqa: BLE001 — worker boundary
        outcome = JobOutcome(
            job_id=spec.job_id,
            state="failed",
            error=f"{type(error).__name__}: {error}",
            seed=spec.seed,
        )
    outcome.run_seconds = time.perf_counter() - started
    return outcome
