"""Configuration of the hybrid solver and its resilience policies.

Besides :class:`HyQSatConfig` this module holds the dataclass policies
consumed by :mod:`repro.resilience`: retries, per-call deadline +
global QA time budget, and the circuit breaker.  All times are
*modelled device microseconds* (the
:class:`~repro.annealer.timing.QpuTimingModel` clock), never wall
clock, so budgeted behaviour is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.cdcl.engine import DEFAULT_ENGINE, check_engine
from repro.ml.intervals import ConfidenceBands


@dataclass(frozen=True)
class BreakerPolicy:
    """Circuit breaker: closed → open → half-open → closed.

    ``failure_threshold`` consecutive failed calls open the breaker;
    after ``cooldown_us`` of modelled time it admits one probe call —
    success closes it, failure reopens it and restarts the cooldown.
    """

    failure_threshold: int = 5
    cooldown_us: float = 50_000.0

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if self.cooldown_us < 0:
            raise ValueError("cooldown_us must be non-negative")


@dataclass(frozen=True)
class ResilienceConfig:
    """Everything :class:`~repro.resilience.ResilientDevice` needs.

    ``max_attempts`` tries per call, with exponential backoff and
    decorrelated jitter between them; ``call_deadline_us`` caps the
    modelled time of one device call — requests that cannot fit are
    truncated to the reads that do; ``qa_budget_us`` is the global
    modelled-time budget across the whole solve (``None`` =
    unlimited).
    """

    max_attempts: int = 4
    breaker: BreakerPolicy = field(default_factory=BreakerPolicy)
    call_deadline_us: Optional[float] = None
    qa_budget_us: Optional[float] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.call_deadline_us is not None and self.call_deadline_us <= 0:
            raise ValueError("call_deadline_us must be positive when set")
        if self.qa_budget_us is not None and self.qa_budget_us <= 0:
            raise ValueError("qa_budget_us must be positive when set")


@dataclass
class HyQSatConfig:
    """Tunables of :class:`~repro.core.hyqsat.HyQSatSolver`.

    The defaults reproduce the paper's configuration; the ablation
    switches (``use_activity_queue``, the per-strategy enables) exist
    for the Figure 10 / 14 experiments.
    """

    #: Warm-up length; None uses ceil(sqrt(K_est)) per Section III.
    warmup_iterations: Optional[int] = None

    #: Samples per QA call; the paper executes a single sample and lets
    #: CDCL absorb errors.
    num_reads: int = 1

    #: LRU bound (entries) of the frontend compilation cache, which
    #: memoises encode → embed → normalise → compile per
    #: (clause-queue fingerprint, trail restriction).  0 disables it.
    frontend_cache_size: int = 64

    #: Section IV-A activity queue vs. random queue (Figure 14 ablation).
    use_activity_queue: bool = True

    #: Energy partition; the default is the paper's 2000Q calibration.
    bands: ConfidenceBands = field(default_factory=ConfidenceBands)

    #: Feedback strategy enables (Figure 10 ablation).  Strategy 3 is
    #: a no-op by definition and has no switch.
    enable_strategy_1: bool = True
    enable_strategy_2: bool = True
    enable_strategy_4: bool = True

    #: RNG seed for queue-head selection.
    seed: int = 0

    #: CDCL engine backing the hybrid search: ``"fast"`` (native
    #: kernel, the default) or ``"reference"`` (pure Python).  Both are
    #: bit-identical; ``fast`` degrades to ``reference`` when the
    #: kernel cannot be built.
    engine: str = DEFAULT_ENGINE

    #: Checkpoint the search to ``checkpoint_path`` every this many
    #: conflicts once the √K warm-up has completed (0 disables
    #: checkpointing).  A later ``solve()`` finding a valid checkpoint
    #: for the same formula resumes mid-search, bit-identical to an
    #: uninterrupted run (see :mod:`repro.service.checkpoint`).
    checkpoint_every: int = 0

    #: Checkpoint file location; required when ``checkpoint_every`` > 0.
    checkpoint_path: Optional[str] = None

    def __post_init__(self) -> None:
        check_engine(self.engine)
        if self.num_reads < 1:
            raise ValueError("num_reads must be >= 1")
        if self.warmup_iterations is not None and self.warmup_iterations < 0:
            raise ValueError("warmup_iterations must be >= 0 when set")
        if self.frontend_cache_size < 0:
            raise ValueError("frontend_cache_size must be >= 0")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")
        if self.checkpoint_every > 0 and self.checkpoint_path is None:
            raise ValueError(
                "checkpoint_path is required when checkpoint_every > 0"
            )
