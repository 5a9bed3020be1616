"""The HyQSAT frontend: from CDCL to QA (Section IV).

The frontend works on the formula's own :attr:`~repro.sat.cnf.CNF.table`
(its clauses as rows of signed literals, the form the parser builds).
Pipeline per QA call, on index arrays rather than per-clause objects:

1. take the clause queue (row indices into that table) and condition
   it on the trail: a mask drops the literals of assigned variables,
2. encode the residual clauses into the Eq. 5 objective, a gather from
   the per-shape Eq. 4 terms (:mod:`repro.qubo.encoding`),
3. apply the Section IV-C coefficient adjustment, which changes only
   the α array,
4. embed with the linear-time Section IV-B scheme,
5. sum the weighted terms of the *embedded* clauses only, straight into
   :class:`~repro.qubo.ising.LogicalArrays`, and normalise those terms
   into hardware range (Eq. 6),
6. optionally precompile the physical :class:`EmbeddedProblem` for the
   device (when the device's chain strength is known), from the terms
   and the embedder's chain and coupler arrays.

Each step is one call into the frontend library (``core/frontend.c``)
when it builds, so a miss makes a fixed handful of NumPy calls whatever
its term count; the NumPy and Python paths stay as the no-compiler
path, with identical results.  The result carries everything the
device needs (an
:class:`~repro.annealer.device.AnnealRequest` of arrays, whose dict
objective, :class:`~repro.embedding.base.Embedding` and coupler map are
built only when read) plus the bookkeeping the backend needs (which
formula clauses actually went to hardware).

**Compilation cache.**  Inside one hybrid solve the activity queue
stabilises after a few conflicts, so the frontend sees the same clause
queue — restricted by the same trail snapshot — over and over.  Each
prepared call is therefore memoised in a bounded LRU keyed on
``(clause-queue fingerprint, partial-assignment restriction)``:

- the *fingerprint* is the sorted tuple of queued formula clause
  indices (order-insensitive — the prepared request only depends on
  the clause *set*, so a re-ordered BFS of the same set hits);
- the *restriction* is the ``(var, value)`` snapshot of the trail over
  exactly the variables occurring in the queued clauses — the only
  part of the trail that affects clause conditioning — so unrelated
  trail growth does not spuriously invalidate entries, while any
  change to a relevant variable does.

Both are the bytes of their arrays (the trail is one int8 per
variable), so the key is built and hashed without a Python loop.

A hit skips encode, coefficient adjustment, embed, normalise, *and*
(via the ``compiled`` payload on the request) the device-side chain
compile.  Hit/miss counters are exposed for
:class:`~repro.core.hyqsat.HybridStats`.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.annealer.device import AnnealRequest
from repro.annealer.embedded import build_embedded_problem
from repro.cdcl import native
from repro.embedding.hyqsat_embed import HyQSatEmbedder, HyQSatEmbeddingResult
from repro.qubo.coefficients import adjust_coefficients
from repro.qubo.encoding import FormulaEncoding, encode_formula
from repro.qubo.normalization import normalize
from repro.sat.assignment import Assignment
from repro.sat.cnf import CNF, ClauseTable
from repro.topology.chimera import ChimeraGraph

#: The request object a prepared (and possibly cached) frontend call
#: hands to the device.  Alias kept so cache-level APIs/tests can talk
#: about "prepared requests" without importing the annealer layer.
PreparedRequest = AnnealRequest

#: Cache key: the sorted queue clause indices, and the trail
#: restriction over the queue's variables (those variables, ascending,
#: then their values), each as the bytes of its array.
CacheKey = Tuple[bytes, bytes]

#: Sentinel distinguishing "not cached" from a cached ``None`` result.
_MISSING = object()


@dataclass(frozen=True)
class FrontendResult:
    """One prepared QA call.

    ``formula_clauses`` are indices into the *original formula* of the
    clauses that were embedded; ``request`` is ready for
    :meth:`~repro.annealer.device.AnnealerDevice.run`.  ``elapsed_seconds``
    is the frontend CPU time (Figure 11's frontend share); for a cache
    hit it is the (tiny) lookup time, not the original compile time.
    """

    request: AnnealRequest
    formula_clauses: Tuple[int, ...]
    embedding_result: HyQSatEmbeddingResult
    encoding: FormulaEncoding
    elapsed_seconds: float
    #: Formula variables involved in the embedded clauses, ascending.
    embedded_variables: Tuple[int, ...]

    @property
    def num_embedded(self) -> int:
        """Count of formula clauses embedded for this call."""
        return len(self.formula_clauses)


class Frontend:
    """Builds QA requests from clause queues.

    Parameters
    ----------
    cache_size:
        LRU bound of the compilation cache (entries); ``0`` disables
        caching entirely.
    chain_strength:
        When set (the hybrid solver passes its device's value), each
        prepared request also carries the precompiled
        :class:`~repro.annealer.embedded.EmbeddedProblem` so the device
        skips its own compile.
    """

    def __init__(
        self,
        formula: CNF,
        hardware: ChimeraGraph,
        num_reads: int = 1,
        cache_size: int = 64,
        chain_strength: Optional[float] = None,
        observability=None,
    ):
        if cache_size < 0:
            raise ValueError("cache_size must be non-negative")
        from repro.observability import DISABLED, declare_solver_metrics

        self.formula = formula
        self.hardware = hardware
        self.num_reads = num_reads
        self.cache_size = cache_size
        self.chain_strength = chain_strength
        self.cache_hits = 0
        self.cache_misses = 0
        #: Tracing/metrics bundle: each prepare becomes an ``embed``
        #: span (with a ``compile`` child on a chain-compiling miss)
        #: and the cache counters mirror into the metrics registry.
        self.observability = observability or DISABLED
        if self.observability.metrics is not None:
            declare_solver_metrics(self.observability.metrics)
        self._cache: "OrderedDict[CacheKey, Optional[FrontendResult]]" = OrderedDict()
        self._embedder = HyQSatEmbedder(hardware)
        self._table = formula.table
        self._lits = np.ascontiguousarray(self._table.lits, np.int64)

    def reset_cache(self) -> None:
        """Drop all cached entries and zero the hit/miss counters."""
        self._cache.clear()
        self.cache_hits = 0
        self.cache_misses = 0

    def prepare(
        self,
        queue: Sequence[int],
        assignment: Optional["Assignment"] = None,
    ) -> Optional[FrontendResult]:
        """Encode + embed + normalise the clause queue.

        When ``assignment`` (the CDCL trail snapshot) is given, each
        clause is *conditioned* on it first: literals falsified by the
        trail are dropped, so the device solves the residual problem
        that is consistent with the current search state and its
        answers extend — rather than contradict — the trail.

        Returns None when nothing could be embedded (e.g. an empty
        queue or a first clause that exceeds hardware capacity).
        Results (including the None outcome) are memoised in the
        compilation cache; a hit returns the cached result with only
        ``elapsed_seconds`` refreshed to the lookup cost.
        """
        start = time.perf_counter()
        if not queue:
            return None
        obs = self.observability
        metrics = obs.metrics
        with obs.tracer.span("embed", queue_clauses=len(queue)) as span:
            state = None if assignment is None else self._trail(assignment)
            key: Optional[CacheKey] = None
            if self.cache_size > 0:
                key = self._cache_key(queue, state)
                cached = self._cache.get(key, _MISSING)
                if cached is not _MISSING:
                    self._cache.move_to_end(key)
                    self.cache_hits += 1
                    if metrics is not None:
                        metrics.counter(
                            "hyqsat_frontend_cache_hits_total"
                        ).inc()
                    span.set(
                        cache_hit=True,
                        embedded=0 if cached is None else cached.num_embedded,
                    )
                    if cached is None:
                        return None
                    return replace(
                        cached, elapsed_seconds=time.perf_counter() - start
                    )
                self.cache_misses += 1
                if metrics is not None:
                    metrics.counter("hyqsat_frontend_cache_misses_total").inc()
            result = self._prepare_uncached(queue, assignment, start, state)
            span.set(
                cache_hit=False,
                embedded=0 if result is None else result.num_embedded,
            )
            if key is not None:
                self._cache[key] = result
                if len(self._cache) > self.cache_size:
                    self._cache.popitem(last=False)
            return result

    def _trail(self, assignment: "Assignment") -> np.ndarray:
        """The trail snapshot as one int8 per variable: -1 when
        unassigned, else its value."""
        size = len(assignment)
        variables = np.fromiter(assignment.keys(), np.int64, size)
        state = np.full(
            max(self.formula.num_vars, variables.max(initial=0)) + 1, -1, np.int8
        )
        state[variables] = np.fromiter(assignment.values(), np.int8, size)
        return state

    def _cache_key(
        self, queue: Sequence[int], state: Optional[np.ndarray]
    ) -> CacheKey:
        """(queue fingerprint, trail restriction) — see module docs."""
        rows = np.sort(np.asarray(queue, np.int64))
        if state is None:
            return rows.tobytes(), b""
        present = np.zeros(len(state), bool)
        present[np.abs(self._table.lits[rows])] = True
        present[0] = False
        variables = np.flatnonzero(present & (state >= 0))
        return rows.tobytes(), variables.tobytes() + state[variables].tobytes()

    def _condition(self, queue: Sequence[int], assigned: np.ndarray):
        """:meth:`ClauseTable.conditioned` of the queue, in the frontend
        library's ``condition_run`` when it loads."""
        kernel = native.load_frontend_kernel()
        if kernel is not None:
            table = self._lits
            rows = np.asarray(queue, np.int64)
            m, width = table.shape
            lits = np.empty((len(rows), width), np.int64)
            kept = np.empty(len(rows), np.int64)
            count = kernel.condition_run(
                len(rows), m, width, native.address(table), native.address(rows),
                len(assigned), native.address(assigned), native.address(lits),
                native.address(kept),
            )
            if count >= 0:
                return ClauseTable(lits[:count]), kept[:count]
        return self._table.conditioned(queue, assigned)

    def _prepare_uncached(
        self,
        queue: Sequence[int],
        assignment: Optional["Assignment"],
        start: float,
        state: Optional[np.ndarray],
    ) -> Optional[FrontendResult]:
        """A miss: ``state`` is :meth:`_trail` of ``assignment`` (None
        without one)."""
        if state is None:
            assigned = np.zeros(self.formula.num_vars + 1, bool)
        else:
            assigned = state >= 0
        # A clause the trail falsified leaves no row: propagation
        # handles it.
        clauses, kept = self._condition(queue, assigned)
        if not len(clauses):
            return None
        encoding = adjust_coefficients(
            encode_formula(clauses, self.formula.num_vars)
        ).encoding

        embed_result = self._embedder.embed(encoding)
        if not embed_result.embedded_clauses:
            return None

        # The dropped clauses stay on the CDCL side.
        terms, d_star = normalize(encoding.terms_over(embed_result.embedded_clauses))
        if not terms.variables.size:
            # The queue's sub-objectives summed to a constant (every
            # assignment violates the same number of queued clauses —
            # e.g. a complete UNSAT core): the device has nothing to
            # decide, so skip the call and let CDCL refute it.
            return None

        compiled = None
        if self.chain_strength is not None:
            with self.observability.tracer.span("compile", where="frontend"):
                compiled = build_embedded_problem(
                    terms,
                    embed_result.arrays,
                    self.hardware,
                    chain_strength=self.chain_strength,
                )
        request = AnnealRequest(
            terms=terms,
            placement=embed_result.arrays,
            energy_scale=d_star,
            num_reads=self.num_reads,
            compiled=compiled,
        )
        embedded = list(embed_result.embedded_clauses)
        present = np.zeros(len(assigned), bool)
        present[np.abs(encoding.clauses.lits[embedded])] = True
        present[0] = False
        return FrontendResult(
            request=request,
            formula_clauses=tuple(kept[embedded].tolist()),
            embedding_result=embed_result,
            encoding=encoding,
            elapsed_seconds=time.perf_counter() - start,
            embedded_variables=tuple(np.flatnonzero(present).tolist()),
        )
