"""The HyQSAT hybrid solver (Sections III–V).

HyQSAT drives a classical CDCL search whose first ``ceil(sqrt(K))``
iterations — the warm-up stage, where CDCL's learned heuristics are
still cold — are accelerated by the quantum annealer.  Each warm-up
iteration the frontend deploys the hardest (highest conflict-activity)
clauses to the device, the backend interprets the returned energy, and
one of four feedback strategies steers the search:

1. *Accept solution* — every outstanding clause was embedded and the
   device reports zero energy: verify and finish.
2. *Keep assignment* — near-satisfiable: adopt the device's variable
   values as saved phases so decisions walk towards the QA solution.
3. *No feedback* — uncertain energy: the call contributed nothing.
4. *Rush conflict* — near-unsatisfiable: boost the embedded variables'
   decision priority (and queue a few as immediate decisions) so the
   inevitable conflict is found and learned from quickly.

After the warm-up the remaining search is plain CDCL with everything
it learned.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields as dataclass_fields
from typing import Dict, List, Optional, Tuple

from repro.annealer.device import AnnealerDevice
from repro.annealer.faults import DeviceFault, fault_channel
from repro.cdcl.engine import create_solver
from repro.cdcl.solver import CdclSolver, SolverConfig, SolverResult, SolverStatus
from repro.core.backend import Backend, BackendDecision, Strategy
from repro.core.clause_queue import ClauseQueueGenerator
from repro.core.config import HyQSatConfig
from repro.core.frontend import Frontend
from repro.core.timing import TimeBreakdown
from repro.observability import DISABLED, declare_solver_metrics
from repro.resilience.device import QaUnavailable
from repro.sat.assignment import Assignment
from repro.sat.cnf import CNF, Lit, fingerprint

#: Strategy 4 (Section V-B): the VSIDS bump given to each embedded
#: variable, and how many of them are queued as forced decisions to
#: race to the conflict.
STRATEGY_4_BUMP = 10.0
STRATEGY_4_DECISIONS = 8


def estimate_iterations(num_vars: int, num_clauses: int) -> int:
    """Empirical estimate of the classic-CDCL iteration count K.

    The paper sizes the warm-up stage as sqrt(K) with K "estimated
    based on the numbers of variables and clauses".  This calibration
    follows the usual random-3-SAT difficulty picture: iteration count
    scales with the clause count and blows up as the clause/variable
    ratio approaches the ~4.27 phase transition.
    """
    if num_vars <= 0 or num_clauses <= 0:
        return 1
    ratio = num_clauses / num_vars
    hardness = 1.0 + max(0.0, ratio - 2.0) ** 2
    scale = 1.0 + num_vars / 100.0
    return max(1, int(num_clauses * hardness * scale))


@dataclass
class HybridStats:
    """Counters of the hybrid layer (on top of the CDCL stats).

    ``qa_calls`` counts calls that returned samples; calls lost to
    device faults land in ``qa_failures`` instead (and, when the call
    was refused outright by the resilience layer, also in
    ``qa_unavailable``), so the ``qa_calls == sum(strategy_counts) ==
    len(energies)`` invariants keep holding under fault injection.
    ``degraded`` flips when a persistent failure (open breaker, spent
    budget) switched the rest of the run to pure CDCL.
    """

    warmup_iterations: int = 0
    qa_calls: int = 0
    qpu_time_us: float = 0.0
    frontend_seconds: float = 0.0
    backend_seconds: float = 0.0
    embedded_clause_total: int = 0
    frontend_cache_hits: int = 0
    frontend_cache_misses: int = 0
    qa_retries: int = 0
    qa_failures: int = 0
    qa_unavailable: int = 0
    qa_dropped_reads: int = 0
    qa_budget_spent_us: float = 0.0
    #: Wall-clock seconds spent inside the CDCL search of this solve
    #: (QA rounds and checkpoint saves run from the iteration hook and
    #: are not counted).
    cdcl_seconds: float = 0.0
    #: CDCL propagation / conflict throughput of this solve (wall
    #: clock; 0.0 when the solve was too fast to time).
    cdcl_propagations_per_s: float = 0.0
    cdcl_conflicts_per_s: float = 0.0
    qa_fault_counts: Dict[str, int] = field(default_factory=dict)
    breaker_state: str = "closed"
    breaker_transitions: int = 0
    degraded: bool = False
    degraded_reason: Optional[str] = None
    strategy_counts: Dict[Strategy, int] = field(
        default_factory=lambda: {s: 0 for s in Strategy}
    )
    energies: List[float] = field(default_factory=list)

    def as_dict(self) -> dict:
        """JSON-able view (``strategy_counts`` keyed by strategy name);
        the inverse of :meth:`from_dict`, used by checkpoints."""
        out = {}
        for spec in dataclass_fields(self):
            value = getattr(self, spec.name)
            if spec.name == "strategy_counts":
                value = {s.name: count for s, count in value.items()}
            elif spec.name == "qa_fault_counts":
                value = dict(value)
            elif spec.name == "energies":
                value = list(value)
            out[spec.name] = value
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "HybridStats":
        """Rebuild stats serialised by :meth:`as_dict`."""
        kwargs = dict(data)
        kwargs["strategy_counts"] = {
            Strategy[name]: count
            for name, count in data["strategy_counts"].items()
        }
        return cls(**kwargs)

    @property
    def avg_embedded_clauses(self) -> float:
        """Mean clauses embedded per QA call."""
        if self.qa_calls == 0:
            return 0.0
        return self.embedded_clause_total / self.qa_calls

    @property
    def frontend_cache_hit_rate(self) -> float:
        """Fraction of frontend prepares served from the compilation
        cache (0.0 when the cache never fielded a lookup)."""
        lookups = self.frontend_cache_hits + self.frontend_cache_misses
        if lookups == 0:
            return 0.0
        return self.frontend_cache_hits / lookups

    @property
    def qa_availability(self) -> float:
        """Share of attempted QA calls that returned samples (1.0 when
        no call was ever attempted)."""
        attempted = self.qa_calls + self.qa_failures
        if attempted == 0:
            return 1.0
        return self.qa_calls / attempted


@dataclass(frozen=True)
class HyQSatResult:
    """Outcome of a hybrid solve."""

    status: SolverStatus
    model: Optional[Assignment]
    stats: "SolverStats"
    hybrid: HybridStats

    @property
    def is_sat(self) -> bool:
        """True when a model was found."""
        return self.status is SolverStatus.SAT

    @property
    def is_unsat(self) -> bool:
        """True when the formula was refuted."""
        return self.status is SolverStatus.UNSAT

    @property
    def iterations(self) -> int:
        """Total search iterations (the Table I metric)."""
        return self.stats.iterations

    def time_breakdown(
        self,
        cdcl_iteration_seconds: float,
        frontend_us_per_call: Optional[float] = None,
        backend_us_per_call: Optional[float] = None,
    ) -> TimeBreakdown:
        """Modelled end-to-end time given a measured per-iteration CDCL
        cost.  Frontend/backend are priced per QA call from the paper's
        constants by default (see :mod:`repro.core.timing` for why the
        measured pure-Python times are not used here).
        """
        from repro.core.timing import (
            PAPER_BACKEND_US_PER_CALL,
            PAPER_FRONTEND_US_PER_CALL,
        )

        frontend_us = (
            PAPER_FRONTEND_US_PER_CALL
            if frontend_us_per_call is None
            else frontend_us_per_call
        )
        backend_us = (
            PAPER_BACKEND_US_PER_CALL
            if backend_us_per_call is None
            else backend_us_per_call
        )
        calls = self.hybrid.qa_calls
        return TimeBreakdown(
            frontend_s=calls * frontend_us * 1e-6,
            qpu_s=self.hybrid.qpu_time_us * 1e-6,
            backend_s=calls * backend_us * 1e-6,
            cdcl_s=self.stats.iterations * cdcl_iteration_seconds,
        )


from repro.cdcl.stats import SolverStats  # noqa: E402  (dataclass forward ref)


class _HybridHook:
    """The CDCL iteration hook that injects QA guidance."""

    def __init__(self, owner: "HyQSatSolver"):
        self._owner = owner
        #: Set once the warm-up is over or QA is disabled (degraded to
        #: pure CDCL), unless the solve checkpoints: every later call
        #: would return None (see :class:`~repro.cdcl.solver.IterationHook`).
        self.finished = False

    def on_iteration(self, solver: CdclSolver) -> Optional[Assignment]:
        owner = self._owner
        owner._maybe_checkpoint(solver)
        if (
            owner._qa_disabled
            or solver.stats.iterations > owner.hybrid_stats.warmup_iterations
        ):
            self.finished = not owner._checkpointing
            return None
        start = time.perf_counter()
        try:
            return owner._qa_step(solver)
        finally:
            owner._hook_seconds += time.perf_counter() - start


class HyQSatSolver:
    """Hybrid QA + CDCL solver for a 3-SAT formula.

    Parameters
    ----------
    formula:
        The CNF to solve (width <= 3; reduce wider inputs with
        :func:`repro.sat.to_3sat` first).
    device:
        The annealer (defaults to a noiseless C16 simulator).
    config:
        Hybrid-layer configuration.
    solver_config:
        Configuration of the underlying CDCL engine.
    """

    def __init__(
        self,
        formula: CNF,
        device: Optional[AnnealerDevice] = None,
        config: Optional[HyQSatConfig] = None,
        solver_config: Optional[SolverConfig] = None,
        observability=None,
    ):
        if not formula.is_3sat:
            raise ValueError(
                "HyQSAT requires a 3-SAT formula; use repro.sat.to_3sat or "
                "HyQSatSolver.from_ksat"
            )
        self.formula = formula
        self._ksat_reduction = None
        self.config = config or HyQSatConfig()
        self.device = device if device is not None else AnnealerDevice()
        self.solver_config = solver_config or SolverConfig()
        #: Tracing/metrics bundle shared with the frontend, the device,
        #: and the CDCL engine so every layer's spans nest under one
        #: ``solve`` root (see docs/TELEMETRY.md).
        self.observability = observability or DISABLED
        self.hybrid_stats = HybridStats()
        self._conflicts_at_enqueue = -1
        # Flipped by a persistent QA failure (open breaker / spent
        # budget): the rest of the run is pure CDCL, keeping every
        # learned clause.
        self._qa_disabled = False
        # Checkpoint bookkeeping: conflict count at the last snapshot,
        # and whether the current solve resumed from one (resumed runs
        # keep the restored resilience counters — the fresh device has
        # made no calls).
        self._conflicts_at_checkpoint = 0
        self._resumed_from_checkpoint = False
        self._fingerprint: Optional[str] = None
        # Last deployed queue + trail snapshot, reused while no new
        # conflict has been learned (see _qa_step).
        self._last_queue: Optional[List[int]] = None
        self._last_snapshot: Optional[Assignment] = None
        self._conflicts_at_queue = -1
        # Wall time the iteration hook spent in QA rounds and checkpoint
        # saves during the current solve (not CDCL search time).
        self._hook_seconds = 0.0
        # Clauses to seed each fresh engine with through the incremental
        # API (cache warm start); never applied to a checkpoint-resumed
        # search.
        self._preseed: Optional[List[List[int]]] = None
        #: The CDCL engine of the most recent :meth:`solve` call —
        #: the cache layer harvests learned clauses from it.
        self.last_engine = None

        self._frontend = Frontend(
            formula,
            self.device.hardware,
            num_reads=self.config.num_reads,
            cache_size=self.config.frontend_cache_size,
            chain_strength=getattr(self.device, "chain_strength", None),
            observability=self.observability,
        )
        if self.observability.enabled and hasattr(
            self.device, "set_observability"
        ):
            self.device.set_observability(self.observability)
        self._backend = Backend(
            bands=self.config.bands,
            enable_strategy_1=self.config.enable_strategy_1,
            enable_strategy_2=self.config.enable_strategy_2,
            enable_strategy_4=self.config.enable_strategy_4,
        )
        self._queue_gen = ClauseQueueGenerator(formula, seed=self.config.seed)
        # Each embedded clause occupies roughly one new vertical line
        # and two horizontal segments; allow headroom and let the
        # embedder decide what actually fits.
        self._capacity = max(8, 3 * self.device.hardware.num_vertical_lines)

    @classmethod
    def from_ksat(cls, formula: CNF, **kwargs) -> "HyQSatSolver":
        """Build a solver for an arbitrary-width CNF (Section VII-B).

        The input is reduced to 3-SAT with the standard clause
        splitting; models returned by :meth:`solve` are projected back
        onto the original variables.
        """
        from repro.sat.ksat import to_3sat

        reduction = to_3sat(formula)
        solver = cls(reduction.formula, **kwargs)
        solver._ksat_reduction = reduction
        return solver

    def preseed_clauses(self, clauses: List[List[int]]) -> None:
        """Seed the next fresh solve with extra clauses (signed DIMACS
        literal lists) via the incremental ``add_clause`` API.

        Intended for the persistent cache's learned-clause bank: the
        caller guarantees every clause is implied by the formula (e.g.
        learned from a clause-subset instance), so seeding changes the
        search trajectory but never the answer.  Ignored on checkpoint
        resumes, which already carry their own learned state.
        """
        self._preseed = [list(lits) for lits in clauses] or None

    def set_observability(self, observability) -> None:
        """Attach (or replace) the tracing/metrics bundle after
        construction, propagating it to the frontend and the device."""
        self.observability = observability or DISABLED
        self._frontend.observability = self.observability
        if self.observability.metrics is not None:
            declare_solver_metrics(self.observability.metrics)
        if hasattr(self.device, "set_observability"):
            self.device.set_observability(self.observability)

    def solve(self) -> HyQSatResult:
        """Run the hybrid search to SAT/UNSAT (or a budget limit)."""
        if self.config.warmup_iterations is not None:
            warmup = self.config.warmup_iterations
        else:
            estimate = estimate_iterations(
                self.formula.num_vars, self.formula.num_clauses
            )
            warmup = math.ceil(math.sqrt(estimate))
        self.hybrid_stats = HybridStats(warmup_iterations=warmup)
        self._frontend.reset_cache()
        self._last_queue = None
        self._last_snapshot = None
        self._conflicts_at_queue = -1
        self._qa_disabled = False
        self._conflicts_at_checkpoint = 0
        self._resumed_from_checkpoint = False
        # The formula never changes: one fingerprint serves the resume
        # check and every checkpoint this solve saves.
        self._fingerprint = (
            fingerprint(self.formula)
            if self.config.checkpoint_path is not None
            else None
        )
        resume_state = self._load_resume_state()
        if resume_state is not None:
            self.hybrid_stats = HybridStats.from_dict(resume_state["hybrid"])
            warmup = self.hybrid_stats.warmup_iterations
            self._qa_disabled = resume_state["qa_disabled"]
            self._conflicts_at_checkpoint = resume_state["conflicts"]
            self._resumed_from_checkpoint = True

        obs = self.observability
        if obs.metrics is not None:
            declare_solver_metrics(obs.metrics)
            obs.metrics.gauge("hyqsat_warmup_iterations").set(warmup)
        tracer = obs.tracer
        if tracer.enabled:
            tracer.set_qpu_clock(self._qpu_now_us)

        solver = create_solver(
            self.formula,
            engine=self.config.engine,
            config=self.solver_config,
            observability=obs if obs.enabled else None,
        )
        if resume_state is not None:
            try:
                solver.restore_search_state(resume_state["search"])
            except (KeyError, ValueError, RuntimeError):
                # Unusable snapshot (engine fell back, schema drift,
                # heuristic mismatch): start from scratch — same
                # answer, more work.  The solver may have been partly
                # mutated by the failed restore, so rebuild it.
                resume_state = None
                self.hybrid_stats = HybridStats(warmup_iterations=warmup)
                self._qa_disabled = False
                self._conflicts_at_checkpoint = 0
                self._resumed_from_checkpoint = False
                solver = create_solver(
                    self.formula,
                    engine=self.config.engine,
                    config=self.solver_config,
                    observability=obs if obs.enabled else None,
                )
        if resume_state is None and self._preseed:
            for lits in self._preseed:
                solver.add_clause(lits)
        self.last_engine = solver
        props_before = solver.stats.propagations
        conflicts_before = solver.stats.conflicts
        with tracer.span(
            "solve",
            num_vars=self.formula.num_vars,
            num_clauses=self.formula.num_clauses,
            warmup_iterations=warmup,
        ) as span:
            self._hook_seconds = 0.0
            cdcl_start = time.perf_counter()
            result = solver.solve(hook=_HybridHook(self))
            cdcl_seconds = (
                time.perf_counter() - cdcl_start - self._hook_seconds
            )
            span.set(
                status=result.status.value,
                iterations=result.stats.iterations,
                qa_calls=self.hybrid_stats.qa_calls,
            )
        self.hybrid_stats.cdcl_seconds = cdcl_seconds
        if cdcl_seconds > 0.0:
            self.hybrid_stats.cdcl_propagations_per_s = (
                result.stats.propagations - props_before
            ) / cdcl_seconds
            self.hybrid_stats.cdcl_conflicts_per_s = (
                result.stats.conflicts - conflicts_before
            ) / cdcl_seconds
        if self._resumed_from_checkpoint:
            # The restored stats already hold the pre-crash cache
            # counters; add only this run's (post-warmup: zero) lookups.
            self.hybrid_stats.frontend_cache_hits += self._frontend.cache_hits
            self.hybrid_stats.frontend_cache_misses += (
                self._frontend.cache_misses
            )
        else:
            self.hybrid_stats.frontend_cache_hits = self._frontend.cache_hits
            self.hybrid_stats.frontend_cache_misses = (
                self._frontend.cache_misses
            )
        self._sync_resilience_stats()
        self._publish_metrics(result)
        if (
            self.config.checkpoint_path is not None
            and result.status is not SolverStatus.UNKNOWN
        ):
            from repro.service.checkpoint import discard_checkpoint

            discard_checkpoint(self.config.checkpoint_path)
        model = result.model
        if model is not None and self._ksat_reduction is not None:
            model = self._ksat_reduction.restrict_model(model)
        return HyQSatResult(
            status=result.status,
            model=model,
            stats=result.stats,
            hybrid=self.hybrid_stats,
        )

    # ------------------------------------------------------------------

    def _qpu_now_us(self) -> float:
        """The modelled QPU clock (µs): budget spend on a resilient
        device, cumulative modelled device time on a bare one."""
        stats = getattr(self.device, "stats", None)
        if stats is not None and hasattr(stats, "budget_spent_us"):
            return stats.budget_spent_us
        return getattr(self.device, "total_modelled_us", 0.0)

    def _publish_metrics(self, result: SolverResult) -> None:
        """Fold the end-of-solve aggregates into the metrics registry
        (per-call metrics were already recorded as they happened)."""
        metrics = self.observability.metrics
        if metrics is None:
            return
        cdcl = result.stats
        metrics.counter("hyqsat_cdcl_iterations_total").inc(cdcl.iterations)
        metrics.counter("hyqsat_cdcl_conflicts_total").inc(cdcl.conflicts)
        metrics.counter("hyqsat_cdcl_propagations_total").inc(cdcl.propagations)
        metrics.counter("hyqsat_cdcl_decisions_total").inc(cdcl.decisions)
        metrics.counter("hyqsat_cdcl_restarts_total").inc(cdcl.restarts)
        metrics.counter("hyqsat_cdcl_learned_clauses_total").inc(
            cdcl.learned_clauses
        )
        metrics.gauge("hyqsat_cdcl_propagations_per_s").set(
            self.hybrid_stats.cdcl_propagations_per_s
        )
        metrics.gauge("hyqsat_cdcl_conflicts_per_s").set(
            self.hybrid_stats.cdcl_conflicts_per_s
        )
        metrics.gauge("hyqsat_degraded").set(
            1.0 if self.hybrid_stats.degraded else 0.0
        )

    def _resilience_totals(self) -> dict:
        """The resilience layer's live counters as :class:`HybridStats`
        fields: retries, budget spend, its fault counts added to the
        stats' own, and the breaker's state.  Empty for a bare device,
        and after a post-warmup resume, whose restored counters are
        already the run's totals (the fresh device made no calls)."""
        stats = getattr(self.device, "stats", None)
        if (
            self._resumed_from_checkpoint
            or stats is None
            or not hasattr(stats, "retry_trace")
        ):
            return {}
        fault_counts = dict(self.hybrid_stats.qa_fault_counts)
        for name, count in stats.fault_counts.items():
            fault_counts[name] = fault_counts.get(name, 0) + count
        totals = {
            "qa_retries": stats.retries,
            "qa_budget_spent_us": stats.budget_spent_us,
            "qa_fault_counts": fault_counts,
        }
        breaker = getattr(self.device, "breaker", None)
        if breaker is not None:
            totals["breaker_state"] = breaker.state.value
            totals["breaker_transitions"] = len(breaker.transitions)
        return totals

    def _sync_resilience_stats(self) -> None:
        """Fold the resilience layer's counters into the hybrid stats."""
        for name, value in self._resilience_totals().items():
            setattr(self.hybrid_stats, name, value)

    @property
    def _checkpointing(self) -> bool:
        """Whether solves save checkpoints (``checkpoint_every`` > 0
        and a path)."""
        config = self.config
        return config.checkpoint_every > 0 and config.checkpoint_path is not None

    def _maybe_checkpoint(self, solver: CdclSolver) -> None:
        """Snapshot the solve every ``checkpoint_every`` conflicts.

        Only fires once the warm-up has completed: after that the run
        is pure CDCL, so the engine state plus :class:`HybridStats` is
        the *complete* solve state — no device or frontend state needs
        capturing, and a resumed run is bit-identical.
        """
        config = self.config
        if not self._checkpointing:
            return
        if solver.stats.iterations <= self.hybrid_stats.warmup_iterations:
            return
        conflicts = solver.stats.conflicts
        if conflicts - self._conflicts_at_checkpoint < config.checkpoint_every:
            return
        from repro.service.checkpoint import save_checkpoint

        start = time.perf_counter()
        self._conflicts_at_checkpoint = conflicts
        hybrid = self.hybrid_stats.as_dict()
        # The frontend's and the resilience layer's live counters are
        # folded into the stats only at end-of-solve; the snapshot must
        # carry them itself.
        hybrid["frontend_cache_hits"] += self._frontend.cache_hits
        hybrid["frontend_cache_misses"] += self._frontend.cache_misses
        hybrid.update(self._resilience_totals())
        save_checkpoint(
            config.checkpoint_path,
            {
                "fingerprint": self._fingerprint,
                "solver_seed": self.solver_config.seed,
                "hybrid_seed": config.seed,
                "conflicts": conflicts,
                "qa_disabled": self._qa_disabled,
                "hybrid": hybrid,
                "search": solver.capture_search_state(),
            },
        )
        tracer = self.observability.tracer
        if tracer.enabled:
            tracer.event("checkpoint.saved", conflicts=conflicts)
        self._hook_seconds += time.perf_counter() - start

    def _load_resume_state(self) -> Optional[dict]:
        """A valid checkpoint for *this* formula and solver seed, or
        ``None`` (missing, corrupt, or mismatched — all start fresh)."""
        if self.config.checkpoint_path is None:
            return None
        from repro.service.checkpoint import load_checkpoint

        state = load_checkpoint(self.config.checkpoint_path)
        if state is None:
            return None
        if state.get("fingerprint") != self._fingerprint:
            return None
        if state.get("solver_seed") != self.solver_config.seed:
            return None
        if state.get("hybrid_seed") != self.config.seed:
            return None
        return state

    def _observe_phase(self, phase: str, seconds: float) -> None:
        """Record one phase latency (no-op when metrics are off)."""
        metrics = self.observability.metrics
        if metrics is not None:
            metrics.histogram("hyqsat_phase_seconds").labels(
                phase=phase
            ).observe(seconds)

    def _qa_step(self, solver: CdclSolver) -> Optional[Assignment]:
        """One QA call: queue -> frontend -> device -> backend -> apply."""
        config = self.config
        stats = self.hybrid_stats
        obs = self.observability
        tracer = obs.tracer
        metrics = obs.metrics

        if solver.has_pending_decisions:
            if solver.stats.conflicts == self._conflicts_at_enqueue:
                # Let the previous call's guidance play out before
                # paying for another QA round; re-forcing every
                # iteration thrashes the search between inconsistent
                # subset solutions.
                return None
            # A conflict invalidated part of the old guidance: drop the
            # stale remainder and ask the device about the *new*
            # residual problem (the paper's cross-iterative loop).
            solver.clear_decision_queue()
        queue_start = time.perf_counter()
        with tracer.span("select") as select_span:
            unsat = solver.unsatisfied_original_clauses()
            if self._preseed:
                # Incrementally seeded clauses sit past the formula's
                # clause range; they steer propagation only — the QA
                # queue deploys original clauses.
                num_clauses = self.formula.num_clauses
                unsat = [ci for ci in unsat if ci < num_clauses]
            if not unsat:
                select_span.set(unsat=0, queue_len=0)
                return None
            conflicts_now = solver.stats.conflicts
            reused = (
                self._last_queue is not None
                and conflicts_now == self._conflicts_at_queue
            )
            if reused:
                # Nothing was learned since the last deploy, so the
                # activity queue is unchanged by construction:
                # re-present the identical (queue, snapshot) pair — the
                # frontend's compilation cache makes the prepare free —
                # and let the device draw fresh samples of the same
                # hard kernel.
                queue, snapshot = self._last_queue, self._last_snapshot
            else:
                if config.use_activity_queue:
                    activity = solver.counters.activity
                    if self._preseed:
                        activity = activity[: self.formula.num_clauses]
                    queue = self._queue_gen.generate(
                        activity,
                        self._capacity,
                        candidates=unsat,
                    )
                else:
                    queue = self._queue_gen.generate_random(
                        self._capacity, candidates=unsat
                    )
                snapshot = solver.current_assignment()
                self._last_queue = queue
                self._last_snapshot = snapshot
                self._conflicts_at_queue = conflicts_now
            select_span.set(
                unsat=len(unsat), queue_len=len(queue), reused=reused
            )
        queue_seconds = time.perf_counter() - queue_start
        self._observe_phase("select", queue_seconds)

        prepared = self._frontend.prepare(queue, snapshot)
        stats.frontend_seconds += queue_seconds
        if prepared is None:
            return None
        stats.frontend_seconds += prepared.elapsed_seconds
        self._observe_phase("embed", prepared.elapsed_seconds)

        anneal_span = tracer.start_span(
            "anneal",
            reads=prepared.request.num_reads,
            embedded=prepared.num_embedded,
        )
        anneal_start = time.perf_counter()
        try:
            anneal = self.device.run(prepared.request)
        except QaUnavailable as unavailable:
            # The resilience layer gave up on this call.  Per-call
            # exhaustion maps to the paper's Strategy 3 (no feedback,
            # warm-up continues); a persistent condition (open breaker,
            # spent budget) flips the rest of the run to pure CDCL —
            # the learned clauses stay, only the QA guidance stops.
            anneal_span.end(outcome="unavailable", reason=unavailable.reason)
            self._observe_phase("anneal", time.perf_counter() - anneal_start)
            stats.qa_failures += 1
            stats.qa_unavailable += 1
            if metrics is not None:
                metrics.counter("hyqsat_qa_failures_total").labels(
                    reason=unavailable.reason
                ).inc()
            if unavailable.persistent:
                self._qa_disabled = True
                stats.degraded = True
                stats.degraded_reason = unavailable.reason
                tracer.event("qa.degraded", reason=unavailable.reason)
                if metrics is not None:
                    metrics.gauge("hyqsat_degraded").set(1.0)
            return None
        except DeviceFault as fault:
            # A bare (unwrapped) faulty device: one lost call, treated
            # exactly like Strategy 3 — the QA call contributed
            # nothing and CDCL carries on.
            channel = fault_channel(fault)
            anneal_span.end(outcome="fault", fault=channel)
            self._observe_phase("anneal", time.perf_counter() - anneal_start)
            stats.qa_failures += 1
            stats.qa_fault_counts[channel] = (
                stats.qa_fault_counts.get(channel, 0) + 1
            )
            if metrics is not None:
                metrics.counter("hyqsat_qa_failures_total").labels(
                    reason=channel
                ).inc()
            return None
        anneal_span.end(
            outcome="ok",
            qpu_time_us=anneal.qpu_time_us,
            samples=len(anneal.samples),
            dropped_reads=anneal.dropped_reads,
            energy=anneal.best.energy,
        )
        self._observe_phase("anneal", time.perf_counter() - anneal_start)
        stats.qa_calls += 1
        stats.qa_dropped_reads += anneal.dropped_reads
        stats.qpu_time_us += anneal.qpu_time_us
        stats.embedded_clause_total += prepared.num_embedded
        stats.energies.append(anneal.best.energy)
        if metrics is not None:
            metrics.counter("hyqsat_qa_calls_total").inc()
            metrics.counter("hyqsat_qpu_time_us_total").inc(anneal.qpu_time_us)
            metrics.counter("hyqsat_embedded_clauses_total").inc(
                prepared.num_embedded
            )
            if anneal.dropped_reads:
                metrics.counter("hyqsat_qa_dropped_reads_total").inc(
                    anneal.dropped_reads
                )
            metrics.histogram("hyqsat_qa_energy").observe(anneal.best.energy)
            metrics.histogram("hyqsat_chain_break_fraction").observe(
                anneal.best.chain_break_fraction
            )

        all_embedded = set(prepared.formula_clauses) >= set(unsat)
        with tracer.span("classify") as classify_span:
            decision = self._backend.interpret(
                anneal,
                prepared.embedded_variables,
                self.formula.num_vars,
                all_embedded,
            )
            classify_span.set(
                band=decision.band.value,
                strategy=decision.strategy.name.lower(),
                energy=decision.energy,
            )
        self._observe_phase("classify", decision.elapsed_seconds)
        backend_start = time.perf_counter()
        with tracer.span(
            "feedback", strategy=decision.strategy.name.lower()
        ):
            proposal = self._apply(decision, solver)
        feedback_seconds = time.perf_counter() - backend_start
        self._observe_phase("feedback", feedback_seconds)
        stats.backend_seconds += decision.elapsed_seconds + feedback_seconds
        stats.strategy_counts[decision.strategy] += 1
        if metrics is not None:
            metrics.counter("hyqsat_band_total").labels(
                band=decision.band.value
            ).inc()
            metrics.counter("hyqsat_strategy_total").labels(
                strategy=decision.strategy.name.lower()
            ).inc()
        return proposal

    def _apply(
        self, decision: BackendDecision, solver: CdclSolver
    ) -> Optional[Assignment]:
        """Apply a feedback strategy to the live CDCL solver."""
        if decision.strategy is Strategy.ACCEPT_SOLUTION:
            candidate = solver.current_assignment()
            for var, value in decision.assignment.items():
                if var not in candidate:
                    candidate.assign(var, value)
            return candidate.completed(self.formula.num_vars)

        if decision.strategy is Strategy.KEEP_ASSIGNMENT:
            # "The assignments from QA can be directly used in the next
            # search state" (Figure 9 (a)): queue the QA values as the
            # upcoming decisions so the search jumps to the QA solution
            # of the hard kernel, and save them as phases so restarts
            # and backtracks keep steering towards it.  Wrong values
            # are repaired by ordinary conflict resolution.
            solver.clear_decision_queue()
            for var, value in decision.assignment.items():
                solver.set_phase(var, value)
                if solver.value_of_var(var) is None:
                    solver.enqueue_decision(Lit(var if value else -var))
            self._conflicts_at_enqueue = solver.stats.conflicts
            return None

        if decision.strategy is Strategy.RUSH_CONFLICT:
            solver.clear_decision_queue()
            enqueued = 0
            for var in decision.variables:
                if var > self.formula.num_vars:
                    continue
                solver.bump_variable(var, STRATEGY_4_BUMP)
                if enqueued < STRATEGY_4_DECISIONS:
                    value = decision.assignment.get(var)
                    if solver.value_of_var(var) is None:
                        lit = Lit(var if (value is None or value) else -var)
                        solver.enqueue_decision(lit)
                        enqueued += 1
            return None

        return None  # Strategy 3: no feedback
