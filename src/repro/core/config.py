"""Configuration of the hybrid solver and its resilience policies.

Besides :class:`HyQSatConfig` this module holds the dataclass policies
consumed by :mod:`repro.resilience`: retry/backoff, per-call deadline +
global QA time budget, and the circuit breaker.  All times are
*modelled device microseconds* (the
:class:`~repro.annealer.timing.QpuTimingModel` clock), never wall
clock, so budgeted behaviour is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.cdcl.engine import DEFAULT_ENGINE
from repro.ml.intervals import ConfidenceBands


@dataclass(frozen=True)
class RetryPolicy:
    """Retry + exponential backoff with decorrelated jitter.

    Attempt *k*'s backoff is drawn uniformly from
    ``[base_backoff_us, min(max_backoff_us, 3 * previous_backoff)]``
    (the AWS "decorrelated jitter" scheme), from a seeded RNG so the
    whole retry trace replays deterministically.  Backoff time is
    charged against the QA budget like any other device time.
    """

    max_attempts: int = 4
    base_backoff_us: float = 100.0
    max_backoff_us: float = 10_000.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_backoff_us < 0:
            raise ValueError("base_backoff_us must be non-negative")
        if self.max_backoff_us < self.base_backoff_us:
            raise ValueError("max_backoff_us must be >= base_backoff_us")


@dataclass(frozen=True)
class BreakerPolicy:
    """Circuit breaker: closed → open → half-open → closed.

    ``failure_threshold`` consecutive failed calls open the breaker;
    after ``cooldown_us`` of modelled time it admits
    ``half_open_probes`` probe call(s) — all must succeed to close it,
    any failure reopens it and restarts the cooldown.
    """

    failure_threshold: int = 5
    cooldown_us: float = 50_000.0
    half_open_probes: int = 1

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if self.cooldown_us < 0:
            raise ValueError("cooldown_us must be non-negative")
        if self.half_open_probes < 1:
            raise ValueError("half_open_probes must be >= 1")


@dataclass(frozen=True)
class ResilienceConfig:
    """Everything :class:`~repro.resilience.ResilientDevice` needs.

    ``call_deadline_us`` caps the modelled time of one device call —
    requests that cannot fit are truncated to the reads that do;
    ``qa_budget_us`` is the global modelled-time budget across the
    whole solve (``None`` = unlimited).  ``accept_partial_reads``
    salvages the partial samples a :class:`ReadoutTimeout` carries
    instead of discarding them; ``recalibrate_on_drift`` answers a
    :class:`CalibrationDrift` with a recalibration before retrying.
    """

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    breaker: BreakerPolicy = field(default_factory=BreakerPolicy)
    call_deadline_us: Optional[float] = None
    qa_budget_us: Optional[float] = None
    accept_partial_reads: bool = True
    recalibrate_on_drift: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.call_deadline_us is not None and self.call_deadline_us <= 0:
            raise ValueError("call_deadline_us must be positive when set")
        if self.qa_budget_us is not None and self.qa_budget_us <= 0:
            raise ValueError("qa_budget_us must be positive when set")


@dataclass
class HyQSatConfig:
    """Tunables of :class:`~repro.core.hyqsat.HyQSatSolver`.

    The defaults reproduce the paper's configuration; the ablation
    switches (``use_activity_queue``, ``adjust_coefficients``, the
    per-strategy enables) exist for the Figure 10 / 14 / 15
    experiments.
    """

    #: Clauses drawn with top-k activity form the queue-head pool
    #: (Section IV-A uses 30).
    top_k: int = 30

    #: Hard cap on queue length; None derives it from the hardware
    #: (the paper's 2000Q capacity is ~170 clauses).
    max_queue_clauses: Optional[int] = None

    #: Warm-up length; None uses ceil(sqrt(K_est)) per Section III.
    warmup_iterations: Optional[int] = None

    #: Run QA on every ``qa_period``-th warm-up iteration (1 = every
    #: iteration, as in the paper).
    qa_period: int = 1

    #: Samples per QA call; the paper executes a single sample and lets
    #: CDCL absorb errors.
    num_reads: int = 1

    #: LRU bound (entries) of the frontend compilation cache, which
    #: memoises encode → embed → normalise → compile per
    #: (clause-queue fingerprint, trail restriction).  0 disables it.
    frontend_cache_size: int = 64

    #: While no new conflict has been learned since the last QA call,
    #: re-deploy the *same* clause queue and trail snapshot instead of
    #: drawing a fresh random queue head: the activity scores — and so
    #: the "hardest clauses" — only change at conflicts, the frontend
    #: compilation cache turns the repeat into a free prepare, and the
    #: device still draws fresh samples (its per-call seed advances).
    reuse_queue_between_conflicts: bool = True

    #: Section IV-C coefficient adjustment on/off (Figure 15 ablation).
    adjust_coefficients: bool = True

    #: Section IV-A activity queue vs. random queue (Figure 14 ablation).
    use_activity_queue: bool = True

    #: Energy partition; the default is the paper's 2000Q calibration.
    bands: ConfidenceBands = field(default_factory=ConfidenceBands)

    #: Feedback strategy enables (Figure 10 ablation).  Strategy 3 is
    #: a no-op by definition and has no switch.
    enable_strategy_1: bool = True
    enable_strategy_2: bool = True
    enable_strategy_4: bool = True

    #: VSIDS bump amount applied to embedded variables by strategy 4.
    strategy_4_bump: float = 10.0

    #: How many embedded variables strategy 4 queues as forced
    #: decisions to race to the conflict.
    strategy_4_decisions: int = 8

    #: RNG seed for queue-head selection.
    seed: int = 0

    #: CDCL engine backing the hybrid search: ``"fast"`` (native
    #: kernel, the default) or ``"reference"`` (pure Python).  Both are
    #: bit-identical; ``fast`` degrades to ``reference`` when the
    #: kernel cannot be built.
    engine: str = DEFAULT_ENGINE

    #: Keep one warm CDCL instance across repeated ``solve()`` calls of
    #: the same :class:`~repro.core.hyqsat.HyQSatSolver` (incremental
    #: re-solve with learned-clause retention) instead of cold-starting.
    warm_start: bool = False

    #: Checkpoint the search to ``checkpoint_path`` every this many
    #: conflicts once the √K warm-up has completed (0 disables
    #: checkpointing).  A later ``solve()`` finding a valid checkpoint
    #: for the same formula resumes mid-search, bit-identical to an
    #: uninterrupted run (see :mod:`repro.service.checkpoint`).
    checkpoint_every: int = 0

    #: Checkpoint file location; required when ``checkpoint_every`` > 0.
    checkpoint_path: Optional[str] = None

    def __post_init__(self) -> None:
        if self.engine not in ("reference", "fast"):
            raise ValueError(
                f"unknown CDCL engine {self.engine!r}; "
                "expected 'reference' or 'fast'"
            )
        if self.top_k < 1:
            raise ValueError("top_k must be >= 1")
        if self.qa_period < 1:
            raise ValueError("qa_period must be >= 1")
        if self.num_reads < 1:
            raise ValueError("num_reads must be >= 1")
        if self.max_queue_clauses is not None and self.max_queue_clauses < 1:
            raise ValueError("max_queue_clauses must be >= 1 when set")
        if self.warmup_iterations is not None and self.warmup_iterations < 0:
            raise ValueError("warmup_iterations must be >= 0 when set")
        if self.strategy_4_decisions < 0:
            raise ValueError("strategy_4_decisions must be >= 0")
        if self.frontend_cache_size < 0:
            raise ValueError("frontend_cache_size must be >= 0")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")
        if self.checkpoint_every > 0 and self.checkpoint_path is None:
            raise ValueError(
                "checkpoint_path is required when checkpoint_every > 0"
            )
