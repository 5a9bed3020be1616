"""The CDCL engine.

A faithful MiniSAT-style implementation: two-watched-literal unit
propagation, first-UIP clause learning with recursive-light literal
minimisation, phase saving, Luby/geometric restarts, and activity-based
learned-clause database reduction.

Two integration surfaces distinguish this implementation from an
off-the-shelf solver; both exist so the HyQSAT hybrid loop
(:mod:`repro.core`) can steer the search:

- :class:`~repro.cdcl.stats.ClauseCounters` tracks, for every *original*
  clause, how often it is visited in propagation and in conflict
  resolving, plus the Section IV-A activity score (initialised to 1,
  bumped by a constant when the clause participates in a backtrack).
- An :class:`IterationHook` is invoked at the top of every
  decision/propagation/conflict iteration and may inspect the partial
  assignment, re-prioritise variables, force phases or decisions, or
  short-circuit the search with a complete model.

Internally variables are 0-based and a literal is encoded as
``2*var + (0 if positive else 1)`` so negation is ``lit ^ 1``.  All
public APIs use the external DIMACS convention via
:class:`~repro.sat.cnf.Lit`.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from repro.cdcl.heuristics import ChbHeuristic, DecisionHeuristic, VsidsHeuristic
from repro.cdcl.luby import luby
from repro.cdcl.stats import ClauseCounters, SolverStats
from repro.sat.assignment import Assignment
from repro.sat.cnf import CNF, Clause, Lit

_UNASSIGNED = -1


def _enc(lit: Lit) -> int:
    """External literal -> internal encoding."""
    return 2 * (lit.var - 1) + (0 if lit.positive else 1)


def _dec(ilit: int) -> Lit:
    """Internal encoding -> external literal."""
    var = (ilit >> 1) + 1
    return Lit(var if (ilit & 1) == 0 else -var)


class SolverStatus(enum.Enum):
    """Terminal state of a solver run."""

    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class SolverResult:
    """Outcome of :meth:`CdclSolver.solve`.

    ``model`` is a total assignment when ``status`` is SAT, else None.
    """

    status: SolverStatus
    model: Optional[Assignment]
    stats: SolverStats

    @property
    def is_sat(self) -> bool:
        """True when a model was found."""
        return self.status is SolverStatus.SAT

    @property
    def is_unsat(self) -> bool:
        """True when the formula was refuted."""
        return self.status is SolverStatus.UNSAT


class IterationHook(Protocol):
    """Callback driven once per search iteration.

    Return a complete :class:`Assignment` to propose a model; the
    solver verifies it and terminates with SAT if it satisfies the
    formula (HyQSAT feedback strategy 1).  Return None to continue.

    A hook may also carry a ``finished`` attribute.  Once it reads true
    after a call, the hook promises that every later call in this
    ``solve`` would return None and change nothing, so both engines
    stop calling it (and the fast engine's kernel no longer stops at
    the top of each iteration for it).  A hook without the attribute
    is called every iteration.
    """

    def on_iteration(self, solver: "CdclSolver") -> Optional[Assignment]:
        """Inspect/steer ``solver``; optionally propose a full model."""


@dataclass
class SolverConfig:
    """Tunables for :class:`CdclSolver`.

    The defaults mirror MiniSAT 2.2.  ``heuristic_factory`` builds a
    fresh :class:`DecisionHeuristic` per ``solve`` call.
    """

    heuristic_factory: Callable[[], DecisionHeuristic] = VsidsHeuristic
    restart_strategy: str = "luby"  # "luby" | "geometric" | "none"
    luby_base: int = 100
    geometric_first: int = 100
    geometric_factor: float = 1.5
    phase_saving: bool = True
    default_phase: bool = False
    clause_decay: float = 0.999
    activity_bump: float = 1.0  # Section IV-A constant added per backtrack
    learntsize_factor: float = 1.0 / 3.0
    learntsize_inc: float = 1.1
    random_decision_freq: float = 0.0
    seed: int = 0
    max_conflicts: Optional[int] = None
    max_iterations: Optional[int] = None

    def __post_init__(self) -> None:
        if self.restart_strategy not in ("luby", "geometric", "none"):
            raise ValueError(f"unknown restart strategy {self.restart_strategy!r}")
        if not 0.0 <= self.random_decision_freq <= 1.0:
            raise ValueError("random_decision_freq must be in [0, 1]")


class _IntClause:
    """Internal clause: integer literals with watch metadata.

    The first two literals are the watched ones (MiniSAT convention).
    ``orig_index`` is the index into the input formula for original
    clauses and -1 for learned clauses.  ``group`` is the push depth
    the clause was created at (see :meth:`CdclSolver.push`); learned
    clauses are discarded when their group is popped.
    """

    __slots__ = ("lits", "learned", "activity", "orig_index", "group")

    def __init__(self, lits: List[int], learned: bool, orig_index: int):
        self.lits = lits
        self.learned = learned
        self.activity = 0.0
        self.orig_index = orig_index
        self.group = 0

    def __len__(self) -> int:
        return len(self.lits)

    def __repr__(self) -> str:
        kind = "learned" if self.learned else f"orig#{self.orig_index}"
        return f"_IntClause({[str(_dec(l)) for l in self.lits]}, {kind})"


@dataclass(frozen=True)
class _PushMark:
    """Snapshot taken by :meth:`CdclSolver.push`, restored by ``pop``."""

    num_clauses: int
    num_root_units: int
    num_counters: int
    trail_len: int
    trivially_unsat: bool


class CdclSolver:
    """A conflict-driven clause-learning SAT solver.

    ``solve`` may be called repeatedly (the incremental API): learned
    clauses, variable activities, and saved phases are retained across
    calls, and ``solve(assumptions=...)`` answers "is the formula SAT
    under these temporary decisions" without permanently asserting
    them.  :meth:`push` / :meth:`pop` bracket groups of
    :meth:`add_clause` additions so a caller can retract clauses
    (learned clauses derived while a group was active are discarded
    with it).  Budgets (``max_conflicts`` / ``max_iterations``)
    compare against *cumulative* stats across all ``solve`` calls.
    DRAT proofs are only meaningful for a single non-incremental
    refutation; clauses popped from the database are not logged.

    Parameters
    ----------
    formula:
        The CNF to solve.  Tautological clauses are dropped; empty
        clauses make the instance trivially UNSAT.
    config:
        Optional :class:`SolverConfig`.
    """

    def __init__(
        self,
        formula: CNF,
        config: Optional[SolverConfig] = None,
        proof: Optional["DratProof"] = None,
        observability=None,
    ):
        self.formula = formula
        self.config = config or SolverConfig()
        #: When tracing is enabled, every search iteration becomes an
        #: ``iteration`` span carrying ``cdcl.propagate`` /
        #: ``cdcl.conflict`` / ``cdcl.restart`` events (see
        #: docs/TELEMETRY.md).  ``None`` keeps the hot loop free of any
        #: instrumentation call.
        self._tracer = (
            observability.tracer
            if observability is not None and observability.tracer.enabled
            else None
        )
        self.stats = SolverStats()
        self.counters = ClauseCounters.for_clauses(formula.num_clauses)
        #: Optional DRAT log; learned clauses, deletions, and the final
        #: empty clause are recorded so UNSAT answers can be verified
        #: independently (see repro.cdcl.proof).  Proofs emitted under
        #: assumptions are not pure refutations and are not logged.
        self.proof = proof

        self._num_vars = formula.num_vars
        n = self._num_vars
        self._values: List[int] = [_UNASSIGNED] * n
        self._levels: List[int] = [0] * n
        self._reasons: List[Optional[_IntClause]] = [None] * n
        self._saved_phase: List[bool] = [self.config.default_phase] * n
        self._trail: List[int] = []
        self._trail_lim: List[int] = []
        self._propagate_head = 0
        self._watches: List[List[_IntClause]] = [[] for _ in range(2 * n)]
        self._clauses: List[_IntClause] = []
        self._learned: List[_IntClause] = []
        self._clause_bump = 1.0
        self._seen: List[bool] = [False] * n
        self._heuristic: DecisionHeuristic = self.config.heuristic_factory()
        self._heuristic.init(n)
        self._rng = np.random.default_rng(self.config.seed)
        self._forced_decisions: Deque[int] = deque()
        self._trivially_unsat = False
        self._root_units: List[int] = []
        self._push_stack: List[_PushMark] = []
        #: Loop-local restart/reduce counters mirrored for checkpointing
        #: (written just before each hook call) and the resume flag that
        #: makes the next ``solve`` continue instead of restarting.
        self._loop_state: Optional[Tuple] = None
        self._resume_pending = False

        for index, clause in enumerate(formula):
            if clause.is_tautology:
                continue
            ilits = [_enc(lit) for lit in clause.lits]
            if not ilits:
                self._trivially_unsat = True
                continue
            record = _IntClause(ilits, learned=False, orig_index=index)
            if len(ilits) == 1:
                self._root_units.append(ilits[0])
            else:
                self._attach(record)
            self._clauses.append(record)

    # ------------------------------------------------------------------
    # Public inspection / steering API (used by the HyQSAT hybrid loop)
    # ------------------------------------------------------------------

    @property
    def num_vars(self) -> int:
        """Number of variables of the input formula."""
        return self._num_vars

    @property
    def decision_level(self) -> int:
        """Current depth of the decision stack."""
        return len(self._trail_lim)

    def value_of_var(self, var: int) -> Optional[bool]:
        """Current value of external variable ``var`` (None if unassigned)."""
        val = self._values[var - 1]
        return None if val == _UNASSIGNED else bool(val)

    def current_assignment(self) -> Assignment:
        """Snapshot of the current partial assignment (external vars)."""
        out = Assignment()
        for var0, val in enumerate(self._values):
            if val != _UNASSIGNED:
                out.assign(var0 + 1, bool(val))
        return out

    def unsatisfied_original_clauses(self) -> List[int]:
        """Indices of original clauses not yet satisfied by the partial
        assignment (the frontend's candidate pool)."""
        out: List[int] = []
        for record in self._clauses:
            if any(self._lit_value(l) == 1 for l in record.lits):
                continue
            out.append(record.orig_index)
        return out

    def set_phase(self, var: int, value: bool) -> None:
        """Force the saved phase of external variable ``var``
        (HyQSAT feedback strategy 2)."""
        self._saved_phase[var - 1] = bool(value)

    def bump_variable(self, var: int, amount: float = 1.0) -> None:
        """Raise the decision priority of external variable ``var``
        (HyQSAT feedback strategy 4)."""
        self._heuristic.bump(var - 1, amount)

    def enqueue_decision(self, lit: Lit) -> None:
        """Queue ``lit`` to be used as the next decision(s), ahead of the
        heuristic (skipped if its variable is already assigned)."""
        self._forced_decisions.append(_enc(lit))

    def clear_decision_queue(self) -> None:
        """Drop all queued forced decisions (a new QA result supersedes
        the guidance of the previous one)."""
        self._forced_decisions.clear()

    @property
    def has_pending_decisions(self) -> bool:
        """Whether hook-enqueued decisions are still waiting."""
        return bool(self._forced_decisions)

    def clause_activity(self, index: int) -> float:
        """Section IV-A activity score of original clause ``index``."""
        return self.counters.activity[index]

    # ------------------------------------------------------------------
    # Incremental API
    # ------------------------------------------------------------------

    @property
    def push_depth(self) -> int:
        """Number of open clause groups."""
        return len(self._push_stack)

    def add_clause(self, clause) -> None:
        """Add an original clause between ``solve`` calls.

        ``clause`` is a :class:`~repro.sat.cnf.Clause` or an iterable
        of :class:`~repro.sat.cnf.Lit` / DIMACS ints.  The clause
        joins the innermost open group (:meth:`push`) and is retracted
        when that group is popped.  The solver backtracks to the root
        level first; tautologies are dropped, an empty clause makes
        the current group unsatisfiable.  The two watched slots are
        the first two literals not false under the root assignment, so
        clause storage stays deterministic for the engine-identity
        gate.
        """
        if isinstance(clause, Clause):
            ext_lits = list(clause.lits)
        else:
            ext_lits = [
                lit if isinstance(lit, Lit) else Lit(int(lit))
                for lit in clause
            ]
        self._backtrack(0)
        ilits = [_enc(lit) for lit in ext_lits]
        present = set(ilits)
        if any((ilit ^ 1) in present for ilit in ilits):  # tautology
            return
        if not ilits:
            self._trivially_unsat = True
            return
        orig_index = len(self.counters.activity)
        self.counters.propagation_visits.append(0)
        self.counters.conflict_visits.append(0)
        self.counters.activity.append(1.0)
        record = _IntClause(ilits, learned=False, orig_index=orig_index)
        record.group = len(self._push_stack)
        self._clauses.append(record)
        if len(ilits) == 1:
            self._root_units.append(ilits[0])
            return
        free = [i for i, l in enumerate(ilits) if self._lit_value(l) != 0]
        if not free:
            # Conflicts with root-implied assignments: the current
            # group is unsatisfiable (the flag is group-scoped via
            # the push markers).
            self._trivially_unsat = True
            return
        if len(free) == 1:
            # Unit under the root assignment for this clause's whole
            # lifetime (root assignments at or below its group are
            # never undone while it exists).
            self._root_units.append(ilits[free[0]])
            return
        i0, i1 = free[0], free[1]
        record.lits = [ilits[i0], ilits[i1]] + [
            l for j, l in enumerate(ilits) if j != i0 and j != i1
        ]
        self._attach(record)

    def learned_clause_lits(
        self, max_len: int = 8, limit: int = 256
    ) -> List[List[int]]:
        """Short learned clauses as signed DIMACS literal lists.

        Every returned clause is implied by the original formula, so a
        cache layer may replay them into any clause-superset instance
        (``add_clause`` seeding).  Shortest first, at most ``limit``
        clauses of at most ``max_len`` literals.
        """
        short = [
            rec.lits
            for rec in self._learned
            if len(rec.lits) <= max_len
        ]
        short.sort(key=len)
        return [
            [_dec(ilit).value for ilit in lits] for lits in short[:limit]
        ]

    def push(self) -> int:
        """Open a clause group; returns the new depth.

        Clauses added afterwards — and everything learned while the
        group is open — are retracted by the matching :meth:`pop`.
        """
        self._backtrack(0)
        self._push_stack.append(
            _PushMark(
                num_clauses=len(self._clauses),
                num_root_units=len(self._root_units),
                num_counters=len(self.counters.activity),
                trail_len=len(self._trail),
                trivially_unsat=self._trivially_unsat,
            )
        )
        return len(self._push_stack)

    def pop(self) -> None:
        """Retract the innermost clause group.

        Removes the group's original clauses, every learned clause
        derived while it was open, and the root assignments made since
        the matching :meth:`push` (they may depend on the retracted
        clauses; surviving implications are re-derived on the next
        ``solve``).  Variable activities and phases are kept.
        """
        if not self._push_stack:
            raise IndexError("pop() without a matching push()")
        self._backtrack(0)
        mark = self._push_stack.pop()
        depth = len(self._push_stack)
        doomed = {id(rec) for rec in self._clauses[mark.num_clauses:]}
        doomed.update(
            id(rec) for rec in self._learned if rec.group > depth
        )
        if doomed:
            self._learned = [
                rec for rec in self._learned if id(rec) not in doomed
            ]
            for watch_list in self._watches:
                watch_list[:] = [
                    rec for rec in watch_list if id(rec) not in doomed
                ]
        del self._clauses[mark.num_clauses:]
        del self._root_units[mark.num_root_units:]
        del self.counters.propagation_visits[mark.num_counters:]
        del self.counters.conflict_visits[mark.num_counters:]
        del self.counters.activity[mark.num_counters:]
        for ilit in reversed(self._trail[mark.trail_len:]):
            var = ilit >> 1
            self._values[var] = _UNASSIGNED
            self._reasons[var] = None
            self._heuristic.on_unassign(var)
        del self._trail[mark.trail_len:]
        self._propagate_head = min(self._propagate_head, len(self._trail))
        self._trivially_unsat = mark.trivially_unsat

    # ------------------------------------------------------------------
    # Checkpoint / resume (repro.service.checkpoint)
    # ------------------------------------------------------------------

    def capture_search_state(self) -> dict:
        """Snapshot the complete search state as a JSON-able dict.

        Must be called from inside an :class:`IterationHook` (the only
        point where the solve loop's restart/reduce counters are
        mirrored); the snapshot is taken *as of the top of the current
        iteration*, so a solver restored from it re-executes that
        iteration and continues bit-identically to an uninterrupted
        run.  Open :meth:`push` groups cannot be checkpointed.
        """
        if self._loop_state is None:
            raise RuntimeError(
                "capture_search_state must be called from an iteration hook"
            )
        if self._push_stack:
            raise RuntimeError("cannot checkpoint with open clause groups")
        clause_ref: Dict[int, List] = {
            id(rec): ["o", i] for i, rec in enumerate(self._clauses)
        }
        clause_ref.update(
            {id(rec): ["l", i] for i, rec in enumerate(self._learned)}
        )

        def ref(rec: Optional[_IntClause]):
            return None if rec is None else clause_ref[id(rec)]

        stats = self.stats.as_dict()
        # Stored as iterations-1: the resumed loop re-increments and
        # re-enters the hook for the iteration being captured.
        stats["iterations"] -= 1
        loop = self._loop_state
        return {
            "engine": "reference",
            "num_vars": self._num_vars,
            "values": list(self._values),
            "levels": list(self._levels),
            "reasons": [ref(rec) for rec in self._reasons],
            "saved_phase": [bool(p) for p in self._saved_phase],
            "trail": list(self._trail),
            "trail_lim": list(self._trail_lim),
            "propagate_head": self._propagate_head,
            "clauses": [
                {"lits": list(rec.lits), "orig_index": rec.orig_index}
                for rec in self._clauses
            ],
            "learned": [
                {"lits": list(rec.lits), "activity": rec.activity}
                for rec in self._learned
            ],
            "watches": [
                [clause_ref[id(rec)] for rec in watch_list]
                for watch_list in self._watches
            ],
            "clause_bump": self._clause_bump,
            "heuristic": self._capture_heuristic(),
            "rng": self._rng.bit_generator.state,
            "forced_decisions": list(self._forced_decisions),
            "counters": {
                "propagation_visits": list(self.counters.propagation_visits),
                "conflict_visits": list(self.counters.conflict_visits),
                "activity": list(self.counters.activity),
            },
            "root_units": list(self._root_units),
            "stats": stats,
            "loop": [loop[0], loop[1], loop[2], loop[3]],
        }

    def restore_search_state(self, state: dict) -> None:
        """Rebuild the search state captured by
        :meth:`capture_search_state`; the next :meth:`solve` call (no
        assumptions) resumes mid-search instead of restarting."""
        if state.get("engine") != "reference":
            raise ValueError(
                f"checkpoint engine {state.get('engine')!r} is not 'reference'"
            )
        if state.get("num_vars") != self._num_vars:
            raise ValueError("checkpoint does not match this formula")
        if self._push_stack:
            raise RuntimeError("cannot restore over open clause groups")
        self._clauses = [
            _IntClause(
                list(entry["lits"]), learned=False,
                orig_index=entry["orig_index"],
            )
            for entry in state["clauses"]
        ]
        self._learned = []
        for entry in state["learned"]:
            record = _IntClause(list(entry["lits"]), learned=True, orig_index=-1)
            record.activity = entry["activity"]
            self._learned.append(record)

        def deref(ref) -> Optional[_IntClause]:
            if ref is None:
                return None
            kind, index = ref
            return self._clauses[index] if kind == "o" else self._learned[index]

        self._watches = [
            [deref(ref) for ref in watch_list]
            for watch_list in state["watches"]
        ]
        self._values = list(state["values"])
        self._levels = list(state["levels"])
        self._reasons = [deref(ref) for ref in state["reasons"]]
        self._saved_phase = [bool(p) for p in state["saved_phase"]]
        self._trail = list(state["trail"])
        self._trail_lim = list(state["trail_lim"])
        self._propagate_head = state["propagate_head"]
        self._clause_bump = state["clause_bump"]
        self._seen = [False] * self._num_vars
        self._restore_heuristic(state["heuristic"])
        self._rng = np.random.default_rng()
        self._rng.bit_generator.state = state["rng"]
        self._forced_decisions = deque(state["forced_decisions"])
        counters = state["counters"]
        self.counters = ClauseCounters(
            propagation_visits=list(counters["propagation_visits"]),
            conflict_visits=list(counters["conflict_visits"]),
            activity=list(counters["activity"]),
        )
        self._root_units = list(state["root_units"])
        for name, value in state["stats"].items():
            setattr(self.stats, name, value)
        loop = state["loop"]
        self._loop_state = (loop[0], loop[1], loop[2], loop[3])
        self._resume_pending = True

    def _capture_heuristic(self) -> dict:
        heuristic = self._heuristic
        if isinstance(heuristic, VsidsHeuristic):
            return {
                "kind": "vsids",
                "scores": list(heuristic._scores),
                "bump": heuristic._bump,
                "heap": list(heuristic._heap._heap),
                "pos": list(heuristic._heap._pos),
            }
        if isinstance(heuristic, ChbHeuristic):
            return {
                "kind": "chb",
                "scores": list(heuristic._scores),
                "last_conflict": list(heuristic._last_conflict),
                "step": heuristic._step,
                "conflicts": heuristic._conflicts,
                "heap": list(heuristic._heap._heap),
                "pos": list(heuristic._heap._pos),
            }
        raise RuntimeError(
            "checkpointing supports the built-in VSIDS/CHB heuristics only"
        )

    def _restore_heuristic(self, data: dict) -> None:
        heuristic = self._heuristic
        kind = data.get("kind")
        if kind == "vsids":
            if not isinstance(heuristic, VsidsHeuristic):
                raise ValueError("checkpoint heuristic mismatch (vsids)")
            # In-place updates keep the score list shared with the heap.
            heuristic._scores[:] = data["scores"]
            heuristic._bump = data["bump"]
            heuristic._heap._heap[:] = data["heap"]
            heuristic._heap._pos[:] = data["pos"]
        elif kind == "chb":
            if not isinstance(heuristic, ChbHeuristic):
                raise ValueError("checkpoint heuristic mismatch (chb)")
            heuristic._scores[:] = data["scores"]
            heuristic._last_conflict[:] = data["last_conflict"]
            heuristic._step = data["step"]
            heuristic._conflicts = data["conflicts"]
            heuristic._heap._heap[:] = data["heap"]
            heuristic._heap._pos[:] = data["pos"]
        else:
            raise ValueError(f"unknown checkpoint heuristic {kind!r}")

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------

    def solve(
        self,
        assumptions: Sequence[Lit] = (),
        hook: Optional[IterationHook] = None,
    ) -> SolverResult:
        """Run the CDCL search.

        Parameters
        ----------
        assumptions:
            Literals decided (in order) before any heuristic decision.
            If refuted, the result is UNSAT *under assumptions*.
        hook:
            Optional :class:`IterationHook` consulted every iteration.
        """
        if self._trivially_unsat:
            self._record_refutation(assumptions)
            return SolverResult(SolverStatus.UNSAT, None, self.stats)

        resuming = self._resume_pending
        self._resume_pending = False
        if resuming:
            if assumptions:
                raise ValueError(
                    "cannot resume a checkpointed solve with assumptions"
                )
            # The restored snapshot is an exact mid-search state: skip
            # the re-entry reset and pick the restart/reduce window up
            # where the checkpoint left it.
            assumption_lits: List[int] = []
            (
                max_learned,
                restart_num,
                conflicts_until_restart,
                conflicts_in_window,
            ) = self._loop_state
        else:
            self._backtrack(0)  # re-entry: drop any previous call's search
            # Re-scan root watch lists: a prior call may have stopped with a
            # root-falsified clause behind the propagation head (e.g. after
            # an UNSAT result), which would otherwise stay invisible.
            self._propagate_head = 0
            for unit in self._root_units:
                value = self._lit_value(unit)
                if value == 0:
                    self._record_refutation(assumptions)
                    return SolverResult(SolverStatus.UNSAT, None, self.stats)
                if value == _UNASSIGNED:
                    self._assign(unit, reason=None)

            assumption_lits = [_enc(a) for a in assumptions]
            max_learned = max(
                100.0, self.config.learntsize_factor * max(1, len(self._clauses))
            )
            restart_num = 0
            conflicts_until_restart = self._next_restart_interval(restart_num)
            conflicts_in_window = 0

        tracer = self._tracer
        while True:
            if (
                self.config.max_conflicts is not None
                and self.stats.conflicts >= self.config.max_conflicts
            ) or (
                self.config.max_iterations is not None
                and self.stats.iterations >= self.config.max_iterations
            ):
                return SolverResult(SolverStatus.UNKNOWN, None, self.stats)

            self.stats.iterations += 1
            span = (
                tracer.start_span("iteration", index=self.stats.iterations)
                if tracer is not None
                else None
            )
            try:
                if hook is not None:
                    # Mirror the loop-locals so a hook can checkpoint
                    # this exact iteration (capture_search_state).
                    self._loop_state = (
                        max_learned,
                        restart_num,
                        conflicts_until_restart,
                        conflicts_in_window,
                    )
                    proposed = hook.on_iteration(self)
                    if proposed is not None and proposed.satisfies(self.formula):
                        return SolverResult(SolverStatus.SAT, proposed, self.stats)
                    if getattr(hook, "finished", False):
                        hook = None

                conflict = self._propagate()
                if tracer is not None:
                    tracer.event(
                        "cdcl.propagate",
                        trail=len(self._trail),
                        level=self.decision_level,
                    )
                if conflict is not None:
                    self.stats.conflicts += 1
                    conflicts_in_window += 1
                    if self.decision_level == 0:
                        self._record_refutation(assumptions)
                        return SolverResult(SolverStatus.UNSAT, None, self.stats)
                    conflict_level = self.decision_level
                    learned_lits, backjump = self._analyze(conflict)
                    self._backtrack(backjump)
                    self._learn(learned_lits)
                    self._decay_clause_activity()
                    self._heuristic.after_conflict()
                    if tracer is not None:
                        tracer.event(
                            "cdcl.conflict",
                            level=conflict_level,
                            backjump=backjump,
                            learned_size=len(learned_lits),
                        )
                    continue

                if (
                    conflicts_until_restart is not None
                    and conflicts_in_window >= conflicts_until_restart
                ):
                    restart_num += 1
                    conflicts_in_window = 0
                    conflicts_until_restart = self._next_restart_interval(restart_num)
                    self.stats.restarts += 1
                    self._backtrack(0)
                    if tracer is not None:
                        tracer.event("cdcl.restart", number=restart_num)
                    continue

                if len(self._learned) >= max_learned + len(self._trail):
                    self._reduce_learned_db()
                    max_learned *= self.config.learntsize_inc

                next_lit = self._pick_branch(assumption_lits)
                if next_lit is None:
                    return SolverResult(
                        SolverStatus.SAT, self._model(), self.stats
                    )
                if next_lit == -1:  # assumption conflict
                    return SolverResult(SolverStatus.UNSAT, None, self.stats)
                self.stats.decisions += 1
                self._trail_lim.append(len(self._trail))
                self.stats.max_decision_level = max(
                    self.stats.max_decision_level, self.decision_level
                )
                self._assign(next_lit, reason=None)
            finally:
                if span is not None:
                    span.end()

    # ------------------------------------------------------------------
    # Core machinery
    # ------------------------------------------------------------------

    def _lit_value(self, ilit: int) -> int:
        """1 (true), 0 (false), or _UNASSIGNED for an internal literal."""
        val = self._values[ilit >> 1]
        if val == _UNASSIGNED:
            return _UNASSIGNED
        return val ^ (ilit & 1)

    def _assign(self, ilit: int, reason: Optional[_IntClause]) -> None:
        var = ilit >> 1
        self._values[var] = 1 - (ilit & 1)
        self._levels[var] = self.decision_level
        self._reasons[var] = reason
        self._trail.append(ilit)
        if self.config.phase_saving:
            self._saved_phase[var] = bool(1 - (ilit & 1))
        self._heuristic.on_assign(var)

    def _attach(self, record: _IntClause) -> None:
        self._watches[record.lits[0] ^ 1].append(record)
        self._watches[record.lits[1] ^ 1].append(record)

    def _propagate(self) -> Optional[_IntClause]:
        """Two-watched-literal propagation; returns a conflicting clause
        or None when a fixpoint is reached."""
        counters = self.counters.propagation_visits
        while self._propagate_head < len(self._trail):
            ilit = self._trail[self._propagate_head]
            self._propagate_head += 1
            false_lit = ilit ^ 1
            watch_list = self._watches[ilit]
            kept: List[_IntClause] = []
            i = 0
            num = len(watch_list)
            while i < num:
                record = watch_list[i]
                i += 1
                lits = record.lits
                if record.orig_index >= 0:
                    counters[record.orig_index] += 1
                # Ensure the false literal is in slot 1.
                if lits[0] == false_lit:
                    lits[0], lits[1] = lits[1], lits[0]
                first = lits[0]
                if self._lit_value(first) == 1:
                    kept.append(record)
                    continue
                # Look for a new literal to watch.
                moved = False
                for k in range(2, len(lits)):
                    if self._lit_value(lits[k]) != 0:
                        lits[1], lits[k] = lits[k], lits[1]
                        self._watches[lits[1] ^ 1].append(record)
                        moved = True
                        break
                if moved:
                    continue
                kept.append(record)
                if self._lit_value(first) == 0:
                    # Conflict: keep remaining watchers, restore list.
                    kept.extend(watch_list[i:])
                    watch_list[:] = kept
                    self._propagate_head = len(self._trail)
                    return record
                # Unit: propagate first.
                self.stats.propagations += 1
                self._assign(first, reason=record)
            watch_list[:] = kept
        return None

    def _analyze(self, conflict: _IntClause) -> Tuple[List[int], int]:
        """First-UIP conflict analysis.

        Returns the learned clause (asserting literal first) and the
        backjump level.  Bumps variable activities, clause activities,
        and — for original clauses — the Section IV-A activity score
        and conflict visit counter.
        """
        learned: List[int] = [0]  # placeholder for the asserting literal
        seen = self._seen
        counter = 0
        ilit = -1
        index = len(self._trail) - 1
        record: Optional[_IntClause] = conflict
        path_seen: List[int] = []

        while True:
            if record is not None:
                self._bump_clause(record)
                for lit_k in record.lits:
                    if ilit >= 0 and lit_k == ilit:
                        continue
                    var_k = lit_k >> 1
                    if seen[var_k] or self._levels[var_k] == 0:
                        continue
                    seen[var_k] = True
                    path_seen.append(var_k)
                    self._heuristic.on_conflict_var(var_k)
                    if self._levels[var_k] >= self.decision_level:
                        counter += 1
                    else:
                        learned.append(lit_k)
            # Walk the trail back to the next marked literal.
            while not seen[self._trail[index] >> 1]:
                index -= 1
            ilit = self._trail[index]
            var = ilit >> 1
            seen[var] = False
            counter -= 1
            index -= 1
            if counter <= 0:
                break
            record = self._reasons[var]

        learned[0] = ilit ^ 1
        # Cheap literal minimisation: drop literals whose reason's other
        # literals are all already present or at level 0.
        marked = {l >> 1 for l in learned[1:]}
        minimized = [learned[0]]
        for lit_k in learned[1:]:
            reason = self._reasons[lit_k >> 1]
            if reason is None:
                minimized.append(lit_k)
                continue
            redundant = all(
                (other >> 1) in marked
                or self._levels[other >> 1] == 0
                or (other >> 1) == (lit_k >> 1)
                for other in reason.lits
            )
            if not redundant:
                minimized.append(lit_k)
        learned = minimized

        for var in path_seen:
            seen[var] = False

        if len(learned) == 1:
            backjump = 0
        else:
            # Second-highest level among learned literals.
            max_i = 1
            for k in range(2, len(learned)):
                if self._levels[learned[k] >> 1] > self._levels[learned[max_i] >> 1]:
                    max_i = k
            learned[1], learned[max_i] = learned[max_i], learned[1]
            backjump = self._levels[learned[1] >> 1]
        return learned, backjump

    def _bump_clause(self, record: _IntClause) -> None:
        if record.learned:
            record.activity += self._clause_bump
            if record.activity > 1e20:
                for learned in self._learned:
                    learned.activity *= 1e-20
                self._clause_bump *= 1e-20
        elif record.orig_index >= 0:
            self.counters.conflict_visits[record.orig_index] += 1
            self.counters.activity[record.orig_index] += self.config.activity_bump

    def _decay_clause_activity(self) -> None:
        self._clause_bump /= self.config.clause_decay

    def _backtrack(self, level: int) -> None:
        if self.decision_level <= level:
            return
        boundary = self._trail_lim[level]
        for ilit in reversed(self._trail[boundary:]):
            var = ilit >> 1
            self._values[var] = _UNASSIGNED
            self._reasons[var] = None
            self._heuristic.on_unassign(var)
        del self._trail[boundary:]
        del self._trail_lim[level:]
        self._propagate_head = min(self._propagate_head, len(self._trail))

    def _learn(self, learned_lits: List[int]) -> None:
        self.stats.learned_clauses += 1
        if self.proof is not None:
            self.proof.add_clause(_dec(l).value for l in learned_lits)
        if len(learned_lits) == 1:
            self._assign(learned_lits[0], reason=None)
            return
        record = _IntClause(list(learned_lits), learned=True, orig_index=-1)
        record.group = len(self._push_stack)
        record.activity = self._clause_bump
        self._attach(record)
        self._learned.append(record)
        self._assign(learned_lits[0], reason=record)

    def _reduce_learned_db(self) -> None:
        """Drop the lower-activity half of removable learned clauses."""
        locked = {
            id(self._reasons[ilit >> 1])
            for ilit in self._trail
            if self._reasons[ilit >> 1] is not None
        }
        removable = [
            rec for rec in self._learned if len(rec.lits) > 2 and id(rec) not in locked
        ]
        removable.sort(key=lambda rec: rec.activity)
        to_remove = set(id(rec) for rec in removable[: len(removable) // 2])
        if not to_remove:
            return
        self.stats.deleted_clauses += len(to_remove)
        if self.proof is not None:
            for rec in removable:
                if id(rec) in to_remove:
                    self.proof.delete_clause(_dec(l).value for l in rec.lits)
        self._learned = [rec for rec in self._learned if id(rec) not in to_remove]
        for watch_list in self._watches:
            watch_list[:] = [rec for rec in watch_list if id(rec) not in to_remove]

    def _pick_branch(self, assumptions: List[int]) -> Optional[int]:
        """Next decision literal.

        Returns None when all variables are assigned (model found), -1
        on an assumption refuted by the current assignment, otherwise
        an internal literal.  Forced (hook-enqueued) decisions take
        precedence, then assumptions, then the heuristic.
        """
        while self._forced_decisions:
            ilit = self._forced_decisions.popleft()
            if self._lit_value(ilit) == _UNASSIGNED:
                return ilit
        while self.decision_level < len(assumptions):
            ilit = assumptions[self.decision_level]
            value = self._lit_value(ilit)
            if value == 0:
                return -1
            if value == _UNASSIGNED:
                return ilit
            self._trail_lim.append(len(self._trail))  # silently satisfied level
        assigned = [v != _UNASSIGNED for v in self._values]
        if (
            self.config.random_decision_freq > 0.0
            and self._rng.random() < self.config.random_decision_freq
        ):
            free = [v for v in range(self._num_vars) if not assigned[v]]
            if free:
                var = int(self._rng.choice(free))
                return 2 * var + (0 if self._saved_phase[var] else 1)
        var = self._heuristic.pick(assigned)
        if var is None:
            return None
        return 2 * var + (0 if self._saved_phase[var] else 1)

    def _record_refutation(self, assumptions: Sequence[Lit]) -> None:
        """Close the DRAT log with the empty clause (refutations under
        assumptions are conditional and deliberately not logged)."""
        if self.proof is not None and not assumptions:
            self.proof.add_empty_clause()

    def _next_restart_interval(self, restart_num: int) -> Optional[int]:
        """Conflict budget of the next restart window (None = no restarts)."""
        strategy = self.config.restart_strategy
        if strategy == "none":
            return None
        if strategy == "luby":
            return self.config.luby_base * luby(restart_num + 1)
        return int(
            self.config.geometric_first * self.config.geometric_factor ** restart_num
        )

    def _model(self) -> Assignment:
        out = Assignment()
        for var0, val in enumerate(self._values):
            out.assign(var0 + 1, bool(val) if val != _UNASSIGNED else False)
        return out


def solve(formula: CNF, config: Optional[SolverConfig] = None) -> SolverResult:
    """One-shot convenience wrapper around :class:`CdclSolver`."""
    return CdclSolver(formula, config=config).solve()
