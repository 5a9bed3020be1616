"""FastCdclSolver: the native-kernel CDCL engine.

A drop-in replacement for :class:`~repro.cdcl.solver.CdclSolver` that
keeps all solver state in flat NumPy buffers (literal pool + clause
offset arrays, linked-list watch lists, typed trail/assignment arrays)
and executes the hot loops — propagation, conflict analysis, the
decision heap, and the VSIDS/CHB heuristics — in the C kernel bound by
:mod:`repro.cdcl.native`.

One search loop: ``kernel_run`` runs every solve from its first
iteration to its end.  Python services the events the kernel cannot
decide alone (restart scheduling, learned-DB reduction, buffer growth,
and every decision that is not the heuristic's: assumptions, forced
and random ones) and serves the observers.  Before each call it asks
the kernel to stop only where an attached observer needs Python: at
the top of each iteration for an
:class:`~repro.cdcl.solver.IterationHook` (until it reports
``finished``) or a tracer, after propagation for a tracer, and after
conflict analysis for a tracer or a DRAT proof.  The steering surface,
tracing events and DRAT logging therefore behave exactly like the
reference engine's, and a plain solve, or a hybrid solve after its
warm-up, never leaves the kernel except for those cold events.

The engine is gated **bit-identical** to the reference engine — same
model, same conflict/iteration counts, same learned clauses, same
per-clause counters, DRAT steps and trace records for any (formula,
config, seed); see ``tests/cdcl/test_fast_identity.py``.

The incremental API (:meth:`FastCdclSolver.add_clause` /
:meth:`~FastCdclSolver.push` / :meth:`~FastCdclSolver.pop`, repeated
``solve`` calls with learned-clause retention) mirrors the reference
semantics documented on :class:`~repro.cdcl.solver.CdclSolver`.
"""

from __future__ import annotations

import ctypes
from collections import deque
from typing import Deque, List, Optional, Sequence, Tuple

import numpy as np

from repro.cdcl import native
from repro.cdcl.heuristics import ChbHeuristic, VsidsHeuristic
from repro.cdcl.luby import luby
from repro.cdcl.solver import (
    _UNASSIGNED,
    SolverConfig,
    SolverResult,
    SolverStatus,
    _dec,
    _enc,
)
from repro.cdcl.stats import ClauseCounters, SolverStats
from repro.sat.assignment import Assignment
from repro.sat.cnf import CNF, Clause, Lit

__all__ = ["FastCdclSolver", "FastEngineError", "fast_engine_supports"]

_U8P = ctypes.POINTER(ctypes.c_uint8)

#: numpy dtype per struct pointer field (growth + binding table).
_ARRAY_DTYPES = {
    "values": np.int8,
    "levels": np.int32,
    "reasons": np.int32,
    "phases": np.uint8,
    "trail": np.int32,
    "trail_lim": np.int32,
    "seen": np.uint8,
    "mark": np.uint8,
    "path": np.int32,
    "pool": np.int32,
    "c_start": np.int32,
    "c_size": np.int32,
    "c_orig": np.int32,
    "c_learned": np.uint8,
    "c_dead": np.uint8,
    "c_act": np.float64,
    "learned_list": np.int32,
    "w_head": np.int32,
    "w_tail": np.int32,
    "node_next": np.int32,
    "node_clause": np.int32,
    "prop_visits": np.int64,
    "conf_visits": np.int64,
    "orig_act": np.float64,
    "scores": np.float64,
    "heap": np.int32,
    "heap_pos": np.int32,
    "chb_last": np.int64,
    "out_learned": np.int32,
}

_FIELD_TYPES = dict(native.CSolverStruct._fields_)

#: ``exits`` bits: the stops ``kernel_run`` makes only when asked.
_STOP_ITERATION = 1 << native.EV_ITERATION
_STOP_PROPAGATED = 1 << native.EV_PROPAGATED
_STOP_ANALYZED = 1 << native.EV_ANALYZED
_STOP_DECISION = 1 << native.EV_NEED_DECISION


class FastEngineError(RuntimeError):
    """The fast engine cannot be used (no kernel, or unsupported config)."""


def fast_engine_supports(config: Optional[SolverConfig]) -> Tuple[bool, str]:
    """Whether the fast engine can run this config bit-identically.

    Returns ``(ok, reason)``; ``reason`` explains a ``False``.  Custom
    heuristic factories are the one unsupported feature — the kernel
    implements exactly VSIDS and CHB.
    """
    heuristic = (config or SolverConfig()).heuristic_factory()
    if type(heuristic) not in (VsidsHeuristic, ChbHeuristic):
        return (
            False,
            f"custom heuristic {type(heuristic).__name__} is not "
            "implemented by the native kernel",
        )
    if not native.native_available():
        return (
            False,
            "native kernel unavailable (no C compiler, or an unusable "
            "kernel cache)",
        )
    return (True, "")


class _FastPushMark:
    """Snapshot taken by push(), restored by pop()."""

    __slots__ = (
        "n_clauses",
        "pool_len",
        "n_orig",
        "n_root_units",
        "n_counters",
        "trail_len",
        "trivially_unsat",
    )

    def __init__(self, **kw):
        for name in self.__slots__:
            setattr(self, name, kw[name])


class FastCdclSolver:
    """Native-kernel CDCL solver, API-compatible with ``CdclSolver``.

    Raises :class:`FastEngineError` when the kernel cannot be built or
    the config needs a heuristic the kernel does not implement; use
    :func:`repro.cdcl.engine.create_solver` to fall back gracefully.
    """

    def __init__(
        self,
        formula: CNF,
        config: Optional[SolverConfig] = None,
        proof=None,
        observability=None,
    ):
        lib = native.load_kernel()
        if lib is None:
            raise FastEngineError("native kernel unavailable")
        self._lib = lib
        self.formula = formula
        self.config = config or SolverConfig()
        self._tracer = (
            observability.tracer
            if observability is not None and observability.tracer.enabled
            else None
        )
        self.stats = SolverStats()
        self.proof = proof

        heuristic = self.config.heuristic_factory()
        if type(heuristic) is VsidsHeuristic:
            heur_kind = native.HEUR_VSIDS
        elif type(heuristic) is ChbHeuristic:
            heur_kind = native.HEUR_CHB
        else:
            raise FastEngineError(
                f"heuristic {type(heuristic).__name__} is not implemented "
                "by the native kernel; use the reference engine"
            )

        n = formula.num_vars
        self._num_vars = n
        self._rng = np.random.default_rng(self.config.seed)
        self._forced_decisions: Deque[int] = deque()
        self._push_stack: List[_FastPushMark] = []
        #: Run-loop locals mirrored for checkpointing (written just
        #: before each hook call) and the resume flag that makes the
        #: next ``solve`` continue instead of restarting.
        self._loop_state: Optional[Tuple] = None
        self._resume_pending = False

        # Read the clause table exactly as the reference constructor
        # reads Clause objects: input order, tautologies skipped, an
        # empty clause making the formula trivially UNSAT, units kept
        # as root assignments.
        table = formula.table
        sizes = np.count_nonzero(table.lits, axis=1)
        self._trivially_unsat = bool((sizes == 0).any())
        kept = ~table.tautological() & (sizes > 0)
        rows = table.lits[kept]
        lits = rows[rows != 0]  # row by row, in Clause order
        flat = (2 * (np.abs(lits) - 1) + (lits < 0)).astype(np.int32)
        sizes = sizes[kept].astype(np.int32)
        starts = np.zeros(len(sizes), np.int32)
        np.cumsum(sizes[:-1], out=starts[1:])
        self._root_units: List[int] = flat[starts[sizes == 1]].tolist()

        n_orig = len(sizes)
        orig_pool = len(flat)
        pool_cap = orig_pool + max(1024, 8 * (n + 1))
        clause_cap = n_orig + max(256, n)
        node_cap = 2 * clause_cap
        n_counters = formula.num_clauses

        self._arr: dict = {}
        self._s = native.CSolverStruct()
        self._sp = ctypes.byref(self._s)
        s = self._s

        s.n_vars = n
        self._new_array("values", n, fill=_UNASSIGNED)
        self._new_array("levels", n)
        self._new_array("reasons", n, fill=-1)
        self._new_array("phases", n, fill=int(self.config.default_phase))
        self._new_array("trail", n)
        self._new_array("trail_lim", n + 4)
        self._new_array("seen", n)
        self._new_array("mark", n)
        self._new_array("path", n)
        self._new_array("out_learned", n + 1)

        self._new_array("pool", pool_cap)
        self._new_array("c_start", clause_cap)
        self._new_array("c_size", clause_cap)
        self._new_array("c_orig", clause_cap)
        self._new_array("c_learned", clause_cap)
        self._new_array("c_dead", clause_cap)
        self._new_array("c_act", clause_cap)
        self._new_array("learned_list", clause_cap)
        self._new_array("w_head", 2 * n, fill=-1)
        self._new_array("w_tail", 2 * n, fill=-1)
        self._new_array("node_next", node_cap)
        self._new_array("node_clause", node_cap)

        self._new_array("prop_visits", n_counters)
        self._new_array("conf_visits", n_counters)
        self._new_array("orig_act", n_counters, fill=1.0)
        self._counters_len = n_counters
        self.counters = ClauseCounters(
            propagation_visits=self._arr["prop_visits"][:n_counters],
            conflict_visits=self._arr["conf_visits"][:n_counters],
            activity=self._arr["orig_act"][:n_counters],
        )

        self._new_array("scores", n)
        heap = np.arange(n, dtype=np.int32)
        self._bind("heap", heap)
        self._bind("heap_pos", heap.copy())
        s.heap_len = n
        self._new_array("chb_last", n)

        s.pool_cap = pool_cap
        s.clause_cap = clause_cap
        s.node_cap = node_cap
        s.free_head = -1
        s.pending_conflict = -1
        s.clause_bump = 1.0
        s.clause_decay = self.config.clause_decay
        s.orig_bump = self.config.activity_bump
        s.phase_saving = int(self.config.phase_saving)
        s.heur_kind = heur_kind
        if heur_kind == native.HEUR_VSIDS:
            s.vs_bump = heuristic._initial_bump
            s.vs_decay = heuristic._decay
        else:
            s.chb_step = heuristic._step0
            s.chb_step_min = heuristic._step_min
            s.chb_step_decay = heuristic._step_decay

        # Install the original clauses (watch attachment order matches
        # the reference constructor: input order, units unattached).
        if n_orig:
            self._arr["pool"][:orig_pool] = flat
            self._arr["c_start"][:n_orig] = starts
            self._arr["c_size"][:n_orig] = sizes
            self._arr["c_orig"][:n_orig] = np.flatnonzero(kept)
            s.pool_len = orig_pool
            s.n_clauses = n_orig
            attach = lib.kernel_attach_clause
            for ci in range(n_orig):
                if sizes[ci] >= 2:
                    attach(self._sp, ci)
        #: Flat clause indices of the original clauses, in input order
        #: (the reference engine's ``_clauses`` list).
        self._orig_cis: List[int] = list(range(n_orig))

    # ------------------------------------------------------------------
    # Buffer management
    # ------------------------------------------------------------------

    def _bind(self, field: str, arr: np.ndarray) -> None:
        """Register ``arr`` as the live buffer behind struct ``field``."""
        self._arr[field] = arr
        setattr(self._s, field, arr.ctypes.data_as(_FIELD_TYPES[field]))

    def _new_array(self, field: str, size: int, fill=0) -> np.ndarray:
        dtype = _ARRAY_DTYPES[field]
        arr = (
            np.zeros(size, dtype)
            if fill == 0
            else np.full(size, fill, dtype)
        )
        self._bind(field, arr)
        return arr

    def _grow_array(self, field: str, new_cap: int) -> np.ndarray:
        old = self._arr[field]
        grown = np.zeros(new_cap, old.dtype)
        grown[: len(old)] = old
        self._bind(field, grown)
        return grown

    def _grow(self) -> None:
        """Grow whichever buffer the next conflict could overflow."""
        s = self._s
        if s.pool_len + self._num_vars + 1 > s.pool_cap:
            new_cap = max(2 * s.pool_cap, s.pool_len + self._num_vars + 1)
            self._grow_array("pool", new_cap)
            s.pool_cap = new_cap
        if s.n_clauses + 1 > s.clause_cap:
            new_cap = 2 * s.clause_cap
            for field in (
                "c_start",
                "c_size",
                "c_orig",
                "c_learned",
                "c_dead",
                "c_act",
                "learned_list",
            ):
                self._grow_array(field, new_cap)
            s.clause_cap = new_cap
        if s.node_len + 2 > s.node_cap:
            new_cap = 2 * s.node_cap
            self._grow_array("node_next", new_cap)
            self._grow_array("node_clause", new_cap)
            s.node_cap = new_cap

    def _grow_counters(self, need: int) -> None:
        if need <= len(self._arr["prop_visits"]):
            return
        new_cap = max(2 * len(self._arr["prop_visits"]), need, 16)
        self._grow_array("prop_visits", new_cap)
        self._grow_array("conf_visits", new_cap)
        old_act = self._arr["orig_act"]
        grown = np.ones(new_cap, np.float64)
        grown[: len(old_act)] = old_act
        self._bind("orig_act", grown)

    def _refresh_counter_views(self) -> None:
        k = self._counters_len
        self.counters.propagation_visits = self._arr["prop_visits"][:k]
        self.counters.conflict_visits = self._arr["conf_visits"][:k]
        self.counters.activity = self._arr["orig_act"][:k]

    # ------------------------------------------------------------------
    # Public inspection / steering API (CdclSolver-compatible)
    # ------------------------------------------------------------------

    @property
    def num_vars(self) -> int:
        """Number of variables of the input formula."""
        return self._num_vars

    @property
    def decision_level(self) -> int:
        """Current depth of the decision stack."""
        return int(self._s.n_levels)

    def value_of_var(self, var: int) -> Optional[bool]:
        """Current value of external variable ``var`` (None if unassigned)."""
        val = int(self._arr["values"][var - 1])
        return None if val == _UNASSIGNED else bool(val)

    def current_assignment(self) -> Assignment:
        """Snapshot of the current partial assignment (external vars)."""
        out = Assignment()
        values = self._arr["values"]
        for var0 in np.flatnonzero(values != _UNASSIGNED):
            out.assign(int(var0) + 1, bool(values[var0]))
        return out

    def unsatisfied_original_clauses(self) -> List[int]:
        """Indices of original clauses not yet satisfied by the partial
        assignment (the frontend's candidate pool)."""
        cis = np.array(self._orig_cis, dtype=np.intp)
        if not len(cis):
            return []
        # Original clauses are never empty: each is one reduceat segment.
        sizes = self._arr["c_size"][cis]
        heads = np.zeros(len(cis), np.intp)
        np.cumsum(sizes[:-1], out=heads[1:])
        slots = np.arange(heads[-1] + sizes[-1]) + np.repeat(
            self._arr["c_start"][cis] - heads, sizes
        )
        lits = self._arr["pool"][slots]
        # A literal is true when its variable's value (0/1; -1 when
        # unassigned) differs from its sign bit in exactly bit 0.
        true = (self._arr["values"][lits >> 1] ^ (lits & 1)) == 1
        satisfied = np.logical_or.reduceat(true, heads)
        return self._arr["c_orig"][cis[~satisfied]].tolist()

    def set_phase(self, var: int, value: bool) -> None:
        """Force the saved phase of external variable ``var``
        (HyQSAT feedback strategy 2)."""
        self._arr["phases"][var - 1] = int(bool(value))

    def bump_variable(self, var: int, amount: float = 1.0) -> None:
        """Raise the decision priority of external variable ``var``
        (HyQSAT feedback strategy 4)."""
        self._lib.kernel_bump_variable(self._sp, var - 1, float(amount))

    def enqueue_decision(self, lit: Lit) -> None:
        """Queue ``lit`` to be used as the next decision(s), ahead of the
        heuristic (skipped if its variable is already assigned)."""
        self._forced_decisions.append(_enc(lit))

    def clear_decision_queue(self) -> None:
        """Drop all queued forced decisions."""
        self._forced_decisions.clear()

    @property
    def has_pending_decisions(self) -> bool:
        """Whether hook-enqueued decisions are still waiting."""
        return bool(self._forced_decisions)

    def clause_activity(self, index: int) -> float:
        """Section IV-A activity score of original clause ``index``."""
        return float(self.counters.activity[index])

    # ------------------------------------------------------------------
    # Incremental API (mirror of CdclSolver)
    # ------------------------------------------------------------------

    @property
    def push_depth(self) -> int:
        """Number of open clause groups."""
        return len(self._push_stack)

    def add_clause(self, clause) -> None:
        """Add an original clause between ``solve`` calls.

        Same semantics as :meth:`CdclSolver.add_clause`: root-level
        addition into the innermost group, tautologies dropped, the
        first two non-false literals become the watched slots.
        """
        if isinstance(clause, Clause):
            ext_lits = list(clause.lits)
        else:
            ext_lits = [
                lit if isinstance(lit, Lit) else Lit(int(lit))
                for lit in clause
            ]
        self._lib.kernel_backtrack(self._sp, 0)
        ilits = [_enc(lit) for lit in ext_lits]
        present = set(ilits)
        if any((ilit ^ 1) in present for ilit in ilits):  # tautology
            return
        if not ilits:
            self._trivially_unsat = True
            return
        orig_index = self._counters_len
        self._grow_counters(orig_index + 1)
        self._arr["prop_visits"][orig_index] = 0
        self._arr["conf_visits"][orig_index] = 0
        self._arr["orig_act"][orig_index] = 1.0
        self._counters_len = orig_index + 1
        self._refresh_counter_views()

        free = [i for i, l in enumerate(ilits) if self._lit_value(l) != 0]
        if len(free) >= 2:
            i0, i1 = free[0], free[1]
            ordered = [ilits[i0], ilits[i1]] + [
                l for j, l in enumerate(ilits) if j != i0 and j != i1
            ]
        else:
            ordered = ilits

        s = self._s
        size = len(ordered)
        while (
            s.pool_len + size > s.pool_cap
            or s.n_clauses + 1 > s.clause_cap
            or s.node_len + 2 > s.node_cap
        ):
            self._grow()
        ci = int(s.n_clauses)
        start = int(s.pool_len)
        self._arr["pool"][start : start + size] = ordered
        self._arr["c_start"][ci] = start
        self._arr["c_size"][ci] = size
        self._arr["c_orig"][ci] = orig_index
        self._arr["c_learned"][ci] = 0
        self._arr["c_dead"][ci] = 0
        self._arr["c_act"][ci] = 0.0
        s.pool_len = start + size
        s.n_clauses = ci + 1
        self._orig_cis.append(ci)

        if size == 1:
            self._root_units.append(ordered[0])
        elif not free:
            # Conflicts with root-implied assignments: this group is
            # unsatisfiable while active.
            self._trivially_unsat = True
        elif len(free) == 1:
            self._root_units.append(ilits[free[0]])
        else:
            self._lib.kernel_attach_clause(self._sp, ci)

    def learned_clause_lits(
        self, max_len: int = 8, limit: int = 256
    ) -> List[List[int]]:
        """Short learned clauses as signed DIMACS literal lists (same
        contract as :meth:`CdclSolver.learned_clause_lits`)."""
        s = self._s
        pool = self._arr["pool"]
        c_start = self._arr["c_start"]
        c_size = self._arr["c_size"]
        c_dead = self._arr["c_dead"]
        short: List[List[int]] = []
        for ci in self._arr["learned_list"][: s.n_learned]:
            ci = int(ci)
            size = int(c_size[ci])
            if c_dead[ci] or size > max_len:
                continue
            start = int(c_start[ci])
            short.append(
                [int(ilit) for ilit in pool[start : start + size]]
            )
        short.sort(key=len)
        return [
            [_dec(ilit).value for ilit in lits] for lits in short[:limit]
        ]

    def push(self) -> int:
        """Open a clause group; returns the new depth."""
        self._lib.kernel_backtrack(self._sp, 0)
        s = self._s
        self._push_stack.append(
            _FastPushMark(
                n_clauses=int(s.n_clauses),
                pool_len=int(s.pool_len),
                n_orig=len(self._orig_cis),
                n_root_units=len(self._root_units),
                n_counters=self._counters_len,
                trail_len=int(s.trail_len),
                trivially_unsat=self._trivially_unsat,
            )
        )
        return len(self._push_stack)

    def pop(self) -> None:
        """Retract the innermost clause group (see
        :meth:`CdclSolver.pop` for the exact semantics)."""
        if not self._push_stack:
            raise IndexError("pop() without a matching push()")
        lib = self._lib
        lib.kernel_backtrack(self._sp, 0)
        s = self._s
        mark = self._push_stack.pop()
        # Every clause created after the push — added originals and
        # clauses learned while the group was open — is retracted.
        # (Clause indices are monotone in creation order, so the
        # threshold captures exactly the group's clauses.)
        if s.n_clauses > mark.n_clauses:
            flags = np.zeros(int(s.n_clauses), np.uint8)
            flags[mark.n_clauses :] = 1
            lib.kernel_detach_clauses(self._sp, flags.ctypes.data_as(_U8P))
            s.n_clauses = mark.n_clauses
            s.pool_len = mark.pool_len
        del self._orig_cis[mark.n_orig :]
        del self._root_units[mark.n_root_units :]
        self._counters_len = mark.n_counters
        self._refresh_counter_views()
        lib.kernel_truncate_root(self._sp, mark.trail_len)
        self._trivially_unsat = mark.trivially_unsat

    # ------------------------------------------------------------------
    # Checkpoint / resume (repro.service.checkpoint)
    # ------------------------------------------------------------------

    def capture_search_state(self) -> dict:
        """Snapshot the complete search state as a JSON-able dict.

        Must be called from inside an :class:`IterationHook` (the only
        point where the run loop's restart counters are mirrored).  The
        snapshot covers every kernel buffer and struct scalar plus the
        Python-side state, taken *as of the top of the current
        iteration* — a solver restored from it re-executes that
        iteration and continues bit-identically.  Open :meth:`push`
        groups cannot be checkpointed.
        """
        if self._loop_state is None:
            raise RuntimeError(
                "capture_search_state must be called from an iteration hook"
            )
        if self._push_stack:
            raise RuntimeError("cannot checkpoint with open clause groups")
        scalars = {
            name: getattr(self._s, name)
            for name, _ctype in native.CSolverStruct._fields_
            if name not in _ARRAY_DTYPES
        }
        # Stored as iterations-1: the resumed loop re-increments and
        # re-enters the hook for the iteration being captured.
        scalars["iterations"] -= 1
        restart_num, interval = self._loop_state
        return {
            "engine": "fast",
            "num_vars": self._num_vars,
            "arrays": {
                field: self._arr[field].tolist() for field in _ARRAY_DTYPES
            },
            "scalars": scalars,
            "rng": self._rng.bit_generator.state,
            "forced_decisions": list(self._forced_decisions),
            "root_units": list(self._root_units),
            "orig_cis": list(self._orig_cis),
            "counters_len": self._counters_len,
            "loop": [restart_num, interval],
        }

    def restore_search_state(self, state: dict) -> None:
        """Rebuild the search state captured by
        :meth:`capture_search_state`; the next :meth:`solve` call (no
        assumptions) resumes mid-search instead of restarting."""
        if state.get("engine") != "fast":
            raise ValueError(
                f"checkpoint engine {state.get('engine')!r} is not 'fast'"
            )
        if state.get("num_vars") != self._num_vars:
            raise ValueError("checkpoint does not match this formula")
        if self._push_stack:
            raise RuntimeError("cannot restore over open clause groups")
        scalars = state["scalars"]
        if scalars["heur_kind"] != int(self._s.heur_kind):
            raise ValueError("checkpoint heuristic mismatch")
        for field in _ARRAY_DTYPES:
            arr = np.array(state["arrays"][field], dtype=_ARRAY_DTYPES[field])
            self._bind(field, arr)
        for name, value in scalars.items():
            if name in _FIELD_TYPES:  # older states hold resume_at_pick (0)
                setattr(self._s, name, value)
        self._s.resume_at = 0  # every snapshot is at an iteration's top
        self._counters_len = state["counters_len"]
        self._refresh_counter_views()
        self._rng = np.random.default_rng()
        self._rng.bit_generator.state = state["rng"]
        self._forced_decisions = deque(state["forced_decisions"])
        self._root_units = list(state["root_units"])
        self._orig_cis = list(state["orig_cis"])
        loop = state["loop"]
        self._loop_state = (loop[0], loop[1])
        self._resume_pending = True
        self._sync_stats()

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------

    def solve(
        self,
        assumptions: Sequence[Lit] = (),
        hook=None,
    ) -> SolverResult:
        """Run the CDCL search (same contract as the reference)."""
        s = self._s
        lib = self._lib
        resuming = self._resume_pending
        self._resume_pending = False
        if resuming and assumptions:
            raise ValueError(
                "cannot resume a checkpointed solve with assumptions"
            )
        if self._trivially_unsat:
            self._record_refutation(assumptions)
            self._sync_stats()
            return SolverResult(SolverStatus.UNSAT, None, self.stats)

        if not resuming:
            lib.kernel_backtrack(self._sp, 0)  # re-entry
            s.prop_head = 0  # re-scan root watches (mirror of the reference)
            for unit in self._root_units:
                value = self._lit_value(unit)
                if value == 0:
                    self._record_refutation(assumptions)
                    self._sync_stats()
                    return SolverResult(SolverStatus.UNSAT, None, self.stats)
                if value == _UNASSIGNED:
                    lib.kernel_assign_root(self._sp, unit)

        assumption_lits = [_enc(a) for a in assumptions]
        need_lim = self._num_vars + len(assumption_lits) + 4
        if len(self._arr["trail_lim"]) < need_lim:
            self._grow_array("trail_lim", need_lim)

        if not resuming:
            s.max_learned = max(
                100.0,
                self.config.learntsize_factor * max(1, len(self._orig_cis)),
            )
        s.max_conflicts = (
            -1 if self.config.max_conflicts is None
            else self.config.max_conflicts
        )
        s.max_iterations = (
            -1 if self.config.max_iterations is None
            else self.config.max_iterations
        )
        s.n_assumptions = len(assumption_lits)
        if not resuming:
            s.conflicts_in_window = 0
            s.resume_at = 0
            s.pending_conflict = -1

        return self._solve_run(assumption_lits, assumptions, hook, resuming)

    def _solve_run(
        self, assumption_lits, assumptions, hook, resuming
    ) -> SolverResult:
        """Drive ``kernel_run`` to the end of the search, servicing its
        events and stopping it only where an observer needs Python; the
        events arrive in the reference loop's pass order."""
        s = self._s
        lib = self._lib
        run = lib.kernel_run
        config = self.config
        tracer = self._tracer
        proof = self.proof
        if resuming:
            restart_num, interval = self._loop_state
        else:
            restart_num = 0
            interval = self._next_restart_interval(0)
        s.restart_limit = -1 if interval is None else interval
        # Stops for the whole search; the hook's and the forced
        # decisions' are added per call while they are needed.
        stops = 0
        if tracer is not None:
            stops |= _STOP_ITERATION | _STOP_PROPAGATED | _STOP_ANALYZED
        if proof is not None:
            stops |= _STOP_ANALYZED
        if config.random_decision_freq > 0.0:
            stops |= _STOP_DECISION
        span = None
        try:
            while True:
                s.exits = (
                    stops
                    | (_STOP_ITERATION if hook is not None else 0)
                    | (_STOP_DECISION if self._forced_decisions else 0)
                )
                event = run(self._sp)
                if event == native.EV_ITERATION:
                    if tracer is not None:
                        if span is not None:
                            span.end()
                        span = tracer.start_span(
                            "iteration", index=int(s.iterations)
                        )
                    if hook is not None:
                        self._sync_stats()
                        # Mirror the loop-locals so a hook can checkpoint
                        # this exact iteration (capture_search_state).
                        self._loop_state = (restart_num, interval)
                        proposed = hook.on_iteration(self)
                        if proposed is not None and proposed.satisfies(
                            self.formula
                        ):
                            return SolverResult(
                                SolverStatus.SAT, proposed, self.stats
                            )
                        if getattr(hook, "finished", False):
                            hook = None
                    continue
                if event == native.EV_PROPAGATED:
                    tracer.event(
                        "cdcl.propagate",
                        trail=int(s.trail_len),
                        level=int(s.n_levels),
                    )
                    continue
                if event == native.EV_ANALYZED:
                    if proof is not None:
                        out = self._arr["out_learned"][: s.out_learned_len]
                        proof.add_clause(_dec(int(l)).value for l in out)
                    if tracer is not None:
                        tracer.event(
                            "cdcl.conflict",
                            level=int(s.n_levels),
                            backjump=int(s.out_backjump),
                            learned_size=int(s.out_learned_len),
                        )
                    continue
                if event == native.EV_GROW:
                    self._grow()
                    continue
                if event == native.EV_RESTART_DUE:
                    restart_num += 1
                    s.conflicts_in_window = 0
                    interval = self._next_restart_interval(restart_num)
                    s.restart_limit = -1 if interval is None else interval
                    s.restarts += 1
                    lib.kernel_backtrack(self._sp, 0)
                    if tracer is not None:
                        tracer.event("cdcl.restart", number=restart_num)
                    continue
                if event == native.EV_REDUCE_DUE:
                    self._reduce_learned_db()
                    s.max_learned = s.max_learned * config.learntsize_inc
                    continue
                if event == native.EV_NEED_DECISION:
                    next_lit = self._pick_branch(assumption_lits)
                    if next_lit is None:
                        event = native.EV_SAT
                    elif next_lit == -1:  # assumption conflict
                        self._sync_stats()
                        return SolverResult(
                            SolverStatus.UNSAT, None, self.stats
                        )
                    else:
                        lib.kernel_decide(self._sp, next_lit)
                        continue
                self._sync_stats()
                if event == native.EV_SAT:
                    return SolverResult(
                        SolverStatus.SAT, self._model(), self.stats
                    )
                if event == native.EV_ROOT_CONFLICT:
                    self._record_refutation(assumptions)
                    return SolverResult(SolverStatus.UNSAT, None, self.stats)
                return SolverResult(SolverStatus.UNKNOWN, None, self.stats)
        finally:
            if span is not None:
                span.end()

    # ------------------------------------------------------------------
    # Cold-path helpers
    # ------------------------------------------------------------------

    def _lit_value(self, ilit: int) -> int:
        val = int(self._arr["values"][ilit >> 1])
        if val == _UNASSIGNED:
            return _UNASSIGNED
        return val ^ (ilit & 1)

    def _pick_branch(self, assumption_lits: List[int]) -> Optional[int]:
        """The next decision at an ``EV_NEED_DECISION`` stop (mirror of
        the reference): a forced decision, then an assumption, then a
        random or the heuristic's pick.  None means every variable is
        assigned, -1 a refuted assumption."""
        s = self._s
        while self._forced_decisions:
            ilit = self._forced_decisions.popleft()
            if self._lit_value(ilit) == _UNASSIGNED:
                return ilit
        while s.n_levels < len(assumption_lits):
            ilit = assumption_lits[int(s.n_levels)]
            value = self._lit_value(ilit)
            if value == 0:
                return -1
            if value == _UNASSIGNED:
                return ilit
            self._lib.kernel_new_level(self._sp)  # silently satisfied
        config = self.config
        if (
            config.random_decision_freq > 0.0
            and self._rng.random() < config.random_decision_freq
        ):
            values = self._arr["values"]
            free = [
                v for v in range(self._num_vars)
                if values[v] == _UNASSIGNED
            ]
            if free:
                var = int(self._rng.choice(free))
                phase = int(self._arr["phases"][var])
                return 2 * var + (0 if phase else 1)
        lit = self._lib.kernel_pick(self._sp)
        if lit == -2:
            return None
        return int(lit)

    def _reduce_learned_db(self) -> None:
        """Drop the lower-activity half of removable learned clauses
        (mirror of the reference, including tie order)."""
        s = self._s
        trail = self._arr["trail"][: s.trail_len]
        reasons = self._arr["reasons"]
        locked = set()
        for ilit in trail:
            reason = int(reasons[int(ilit) >> 1])
            if reason >= 0:
                locked.add(reason)
        c_size = self._arr["c_size"]
        c_act = self._arr["c_act"]
        learned = [int(ci) for ci in self._arr["learned_list"][: s.n_learned]]
        removable = [
            ci for ci in learned if int(c_size[ci]) > 2 and ci not in locked
        ]
        removable.sort(key=lambda ci: c_act[ci])  # stable: ties keep learn order
        to_remove = removable[: len(removable) // 2]
        if not to_remove:
            return
        s.deleted_total += len(to_remove)
        if self.proof is not None:
            doomed = set(to_remove)
            pool = self._arr["pool"]
            c_start = self._arr["c_start"]
            for ci in removable:
                if ci in doomed:
                    start = int(c_start[ci])
                    lits = pool[start : start + int(c_size[ci])]
                    self.proof.delete_clause(_dec(int(l)).value for l in lits)
        flags = np.zeros(int(s.n_clauses), np.uint8)
        flags[to_remove] = 1
        self._lib.kernel_detach_clauses(self._sp, flags.ctypes.data_as(_U8P))

    def _next_restart_interval(self, restart_num: int) -> Optional[int]:
        strategy = self.config.restart_strategy
        if strategy == "none":
            return None
        if strategy == "luby":
            return self.config.luby_base * luby(restart_num + 1)
        return int(
            self.config.geometric_first
            * self.config.geometric_factor ** restart_num
        )

    def _record_refutation(self, assumptions: Sequence[Lit]) -> None:
        if self.proof is not None and not assumptions:
            self.proof.add_empty_clause()

    def _sync_stats(self) -> None:
        s = self._s
        stats = self.stats
        stats.iterations = int(s.iterations)
        stats.decisions = int(s.decisions)
        stats.propagations = int(s.propagations)
        stats.conflicts = int(s.conflicts)
        stats.restarts = int(s.restarts)
        stats.learned_clauses = int(s.learned_total)
        stats.deleted_clauses = int(s.deleted_total)
        stats.max_decision_level = int(s.max_level)

    def _model(self) -> Assignment:
        out = Assignment()
        values = self._arr["values"]
        for var0 in range(self._num_vars):
            out.assign(var0 + 1, bool(values[var0] == 1))
        return out
