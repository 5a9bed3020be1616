"""HyQSAT: the hybrid QA + CDCL solver (the paper's contribution).

The pieces map one-to-one onto the paper's architecture (Figure 4):

- :mod:`repro.core.clause_queue` — activity-ordered BFS clause queue
  (Section IV-A).
- :mod:`repro.core.frontend` — queue → Eq. 5 encoding → Section IV-C
  coefficient adjustment → Section IV-B embedding → Eq. 6
  normalisation.
- :mod:`repro.core.backend` — energy → confidence band → feedback
  strategy (Section V).
- :mod:`repro.core.hyqsat` — the cross-iterative hybrid loop with the
  √K warm-up schedule (Section III), driving a
  :class:`~repro.cdcl.solver.CdclSolver` through its iteration hook.
- :mod:`repro.core.timing` — end-to-end time accounting (Figure 11 /
  Table II breakdowns).
"""

from repro.core.backend import Backend, BackendDecision, Strategy
from repro.core.clause_queue import ClauseQueueGenerator
from repro.core.config import BreakerPolicy, HyQSatConfig, ResilienceConfig
from repro.core.frontend import Frontend, FrontendResult
from repro.core.hyqsat import HybridStats, HyQSatResult, HyQSatSolver, estimate_iterations
from repro.core.timing import TimeBreakdown

__all__ = [
    "Backend",
    "BackendDecision",
    "BreakerPolicy",
    "ClauseQueueGenerator",
    "Frontend",
    "FrontendResult",
    "HybridStats",
    "HyQSatConfig",
    "HyQSatResult",
    "HyQSatSolver",
    "ResilienceConfig",
    "Strategy",
    "TimeBreakdown",
    "estimate_iterations",
]
