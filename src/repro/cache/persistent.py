"""The disk-backed result store: SQLite, WAL mode, restart-surviving.

:class:`PersistentResultStore` holds every finished result the service
and the gateway keep (the service's run loop only tracks in-flight
claims and same-session duplicates).  Both solve through
:meth:`~PersistentResultStore.before_solve` and
:meth:`~PersistentResultStore.after_solve`.  Three tables:

``results``
    One row per *solve key* (fingerprint + option hash): the full
    :class:`~repro.service.jobs.JobOutcome` JSON of a fresh solve.
    Exact hits replay this bit-identically — model, counters, seed —
    which is why warm-started solves are **never** written here (their
    counters differ from a cold solve's; they feed ``instances`` and
    ``clause_bank`` instead).

``instances``
    One row per formula fingerprint: the best known *option-free*
    facts — SAT with a model, or UNSAT — plus the clause-signature
    index (16-byte per-clause hashes and a 64-bit Bloom mask).  This
    is the subsumption layer: a model is a certificate valid under
    any solve options, and UNSAT of a clause-subset dooms every
    superset.

``clause_bank``
    One row per fingerprint: short learned clauses of the solve plus
    its conflict count.  A new instance whose clause set is a strict
    superset of a banked donor's is seeded with the donor's clauses
    through the incremental API (sound: everything derivable from a
    subset is derivable from the superset).

Durability/concurrency: WAL journal mode with ``synchronous=NORMAL``
(writes survive a ``kill -9``; readers never block the writer), a
``busy_timeout`` for cross-process ``hyqsat serve`` fleets sharing
one file, and an internal lock so one store instance is safe from the
gateway's executor threads.  The service's process *worker* pool never
touches the DB — all cache traffic happens on the coordinator.

Eviction is LRU (least-recently-hit) over ``results`` under
``max_entries``, plus TTL expiry under ``ttl_s``; evicting a result
row drops orphaned instance/bank rows on :meth:`gc`.
"""

from __future__ import annotations

import functools
import json
import sqlite3
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.cache.signature import (
    clause_signatures,
    model_completed,
    model_satisfies,
    pack_signatures,
    signature_mask,
    sigs_subset,
    unpack_signatures,
)
from repro.sat.cnf import CNF
from repro.service.jobs import JobOutcome, JobSpec

#: Clause-bank caps: only short clauses generalise across near-miss
#: instances, and seeding thousands would swamp the solve they help.
CLAUSE_BANK_MAX_LEN = 8
CLAUSE_BANK_MAX_CLAUSES = 256

#: Subsumption candidate scan cap per lookup (most recent first).
_SCAN_LIMIT = 512

_SCHEMA = """
CREATE TABLE IF NOT EXISTS results (
    solve_key   TEXT PRIMARY KEY,
    fingerprint TEXT NOT NULL,
    outcome     TEXT NOT NULL,
    created_s   REAL NOT NULL,
    last_hit_s  REAL NOT NULL,
    hits        INTEGER NOT NULL DEFAULT 0
);
CREATE INDEX IF NOT EXISTS idx_results_lru ON results(last_hit_s);
CREATE INDEX IF NOT EXISTS idx_results_fp ON results(fingerprint);
CREATE TABLE IF NOT EXISTS instances (
    fingerprint TEXT PRIMARY KEY,
    num_vars    INTEGER NOT NULL,
    num_clauses INTEGER NOT NULL,
    mask        INTEGER NOT NULL,
    sigs        BLOB NOT NULL,
    status      TEXT NOT NULL,
    model       TEXT,
    created_s   REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS clause_bank (
    fingerprint TEXT PRIMARY KEY,
    clauses     TEXT NOT NULL,
    conflicts   INTEGER NOT NULL,
    created_s   REAL NOT NULL
);
"""


#: A formula's clause signatures, computed on the first call.
Signatures = Callable[[], List[bytes]]


def _signatures_of(formula: CNF) -> Signatures:
    return functools.cache(functools.partial(clause_signatures, formula))


@dataclass
class WarmStart:
    """What a miss's :meth:`~PersistentResultStore.before_solve` hands
    its ``after_solve``: clause-bank donor material when a strict-subset
    donor qualifies (``clauses`` is None otherwise), and the formula's
    clause signatures, so the record step does not hash them again."""

    clauses: Optional[List[List[int]]] = None
    donor_conflicts: int = 0
    donor_fingerprint: Optional[str] = None
    signatures: Optional[Signatures] = None


@dataclass
class CacheStats:
    """Per-store-instance counters (flushed into ``hyqsat_cache_*``)."""

    hits: int = 0
    misses: int = 0
    subsumption_hits: Dict[str, int] = field(default_factory=dict)
    warm_starts: int = 0
    warm_start_conflicts_saved: int = 0
    evictions: int = 0
    #: Exceptions the advisory solve path swallowed (each read as a
    #: miss or a skipped record).
    errors: int = 0

    def count_subsumption(self, kind: str) -> None:
        self.subsumption_hits[kind] = self.subsumption_hits.get(kind, 0) + 1


class PersistentResultStore:
    """Disk-backed solve-key -> outcome map with subsumption lookups.

    All methods are thread-safe; SQLite WAL mode makes the file safe
    to share across processes.
    """

    def __init__(
        self,
        path: str,
        max_entries: Optional[int] = None,
        ttl_s: Optional[float] = None,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be >= 1 when set")
        if ttl_s is not None and ttl_s <= 0:
            raise ValueError("ttl_s must be positive when set")
        self.path = path
        self.max_entries = max_entries
        self.ttl_s = ttl_s
        self.stats = CacheStats()
        self._lock = threading.RLock()
        self._db = sqlite3.connect(path, check_same_thread=False)
        self._db.execute("PRAGMA journal_mode=WAL")
        self._db.execute("PRAGMA synchronous=NORMAL")
        self._db.execute("PRAGMA busy_timeout=5000")
        with self._db:
            self._db.executescript(_SCHEMA)

    # -- lookups --------------------------------------------------------

    def lookup(
        self,
        key: str,
        spec: JobSpec,
        formula: CNF,
        *,
        signatures: Optional[Signatures] = None,
    ) -> Optional[JobOutcome]:
        """The cached answer for ``spec``, or None (a miss).

        Exact solve-key hits replay the stored outcome bit-identically
        (``cache_kind="exact"``); subsumption hits return a freshly
        validated certificate with zeroed search counters
        (``cache_kind="model"`` or ``"unsat"``).  Never raises on a
        healthy database; the caller treats any exception as a miss.
        Only the subsumption step reads ``signatures``.
        """
        now = time.time()
        with self._lock:
            self._expire_locked(now)
            row = self._db.execute(
                "SELECT outcome FROM results WHERE solve_key = ?", (key,)
            ).fetchone()
            if row is not None:
                with self._db:
                    self._db.execute(
                        "UPDATE results SET last_hit_s = ?, hits = hits + 1 "
                        "WHERE solve_key = ?",
                        (now, key),
                    )
                self.stats.hits += 1
                return self._exact_outcome(json.loads(row[0]), spec)
            hit = self._subsumption_lookup_locked(
                key, spec, formula, signatures or _signatures_of(formula)
            )
            if hit is not None:
                return hit
            self.stats.misses += 1
            return None

    def _exact_outcome(
        self, payload: Dict[str, Any], spec: JobSpec
    ) -> JobOutcome:
        outcome = JobOutcome.from_dict(payload)
        outcome.job_id = spec.job_id
        outcome.dedup_of = None
        outcome.wait_seconds = 0.0
        outcome.run_seconds = 0.0
        outcome.cached = True
        outcome.cache_kind = "exact"
        return outcome

    def _certificate_outcome(
        self, spec: JobSpec, status: str, model: Optional[List[int]], kind: str
    ) -> JobOutcome:
        self.stats.count_subsumption(kind)
        return JobOutcome(
            job_id=spec.job_id,
            state="done",
            status=status,
            model=model,
            iterations=0,
            conflicts=0,
            seed=spec.seed,
            cached=True,
            cache_kind=kind,
        )

    def _subsumption_lookup_locked(
        self, key: str, spec: JobSpec, formula: CNF, signatures: Signatures
    ) -> Optional[JobOutcome]:
        fp = JobSpec.fingerprint_of(key)
        sigs = signatures()
        mask = signature_mask(sigs)
        # Same formula under different solve options: any cached
        # certificate transfers directly.
        row = self._db.execute(
            "SELECT status, model FROM instances WHERE fingerprint = ?",
            (fp,),
        ).fetchone()
        if row is not None:
            status, model_json = row
            if status == "unsat":
                return self._certificate_outcome(spec, "unsat", None, "unsat")
            if status == "sat" and model_json:
                model = model_completed(
                    json.loads(model_json), formula.num_vars
                )
                if model_satisfies(formula, model):
                    return self._certificate_outcome(
                        spec, "sat", model, "model"
                    )
        for cand in self._db.execute(
            "SELECT fingerprint, num_vars, mask, sigs, status, model "
            "FROM instances WHERE fingerprint != ? "
            "ORDER BY created_s DESC LIMIT ?",
            (fp, _SCAN_LIMIT),
        ):
            cand_fp, cand_vars, cand_mask, cand_blob, status, model_json = cand
            cand_mask = int(cand_mask)
            new_is_subset = (cand_mask & mask) == mask
            new_is_superset = (cand_mask & mask) == cand_mask
            if not (new_is_subset or new_is_superset):
                continue
            cand_sigs = unpack_signatures(cand_blob)
            if (
                status == "sat"
                and model_json
                and new_is_subset
                and sigs_subset(sigs, cand_sigs)
            ):
                # Our clauses are a subset of a satisfied instance:
                # its model satisfies us by construction — validate
                # anyway (hash defence) before serving it.
                model = model_completed(
                    json.loads(model_json), formula.num_vars
                )
                if model_satisfies(formula, model):
                    return self._certificate_outcome(
                        spec, "sat", model, "model"
                    )
            if new_is_superset and sigs_subset(cand_sigs, sigs):
                if status == "unsat":
                    # Every clause of an UNSAT instance is among ours:
                    # we are UNSAT too.
                    return self._certificate_outcome(
                        spec, "unsat", None, "unsat"
                    )
                if status == "sat" and model_json:
                    # Superset of a SAT instance: re-validate its model
                    # against our extra clauses instead of re-solving.
                    model = model_completed(
                        json.loads(model_json), formula.num_vars
                    )
                    if model_satisfies(formula, model):
                        return self._certificate_outcome(
                            spec, "sat", model, "model"
                        )
        return None

    def warm_clauses(
        self,
        formula: CNF,
        key: str,
        *,
        signatures: Optional[Signatures] = None,
    ) -> Optional[WarmStart]:
        """Banked learned clauses of the largest strict-subset donor.

        Sound because a clause derivable from a subset of our clauses
        is derivable from our clauses; literals beyond our variable
        range (possible when the donor declared more variables) are
        filtered defensively.
        """
        signatures = signatures or _signatures_of(formula)
        sigs = signatures()
        mask = signature_mask(sigs)
        fp = JobSpec.fingerprint_of(key)
        with self._lock:
            best: Optional[Tuple[int, str, str, int]] = None
            for cand in self._db.execute(
                "SELECT i.fingerprint, i.num_clauses, i.mask, i.sigs, "
                "b.clauses, b.conflicts FROM instances i "
                "JOIN clause_bank b ON b.fingerprint = i.fingerprint "
                "WHERE i.fingerprint != ? ORDER BY i.created_s DESC LIMIT ?",
                (fp, _SCAN_LIMIT),
            ):
                cand_fp, cand_clauses, cand_mask, cand_blob, bank, confl = cand
                if (int(cand_mask) & mask) != int(cand_mask):
                    continue
                if not sigs_subset(unpack_signatures(cand_blob), sigs):
                    continue
                if best is None or cand_clauses > best[0]:
                    best = (cand_clauses, cand_fp, bank, int(confl))
            if best is None:
                return None
            _, donor_fp, bank_json, conflicts = best
            clauses = [
                lits
                for lits in json.loads(bank_json)
                if all(abs(value) <= formula.num_vars for value in lits)
            ]
            if not clauses:
                return None
            return WarmStart(
                clauses=clauses,
                donor_conflicts=conflicts,
                donor_fingerprint=donor_fp,
                signatures=signatures,
            )

    # -- writes ---------------------------------------------------------

    def record(
        self,
        key: str,
        formula: CNF,
        outcome: JobOutcome,
        *,
        signatures: Optional[Signatures] = None,
    ) -> None:
        """Persist a finished solve.

        Fresh (non-warm-started) ``done`` outcomes land in ``results``
        for bit-identical replay.  Any definitive sat/unsat answer —
        warm-started or not — updates the instance index and, when the
        outcome carries learned clauses, the clause bank.  Cached
        outcomes are never re-recorded.
        """
        if outcome.state != "done" or outcome.cached:
            return
        now = time.time()
        payload = outcome.as_dict()
        payload["learned"] = None
        fp = JobSpec.fingerprint_of(key)
        with self._lock, self._db:
            if not outcome.warm_clauses:
                self._db.execute(
                    "INSERT OR REPLACE INTO results "
                    "(solve_key, fingerprint, outcome, created_s, "
                    " last_hit_s, hits) VALUES (?, ?, ?, ?, ?, 0)",
                    (key, fp, json.dumps(payload), now, now),
                )
            if outcome.status in ("sat", "unsat"):
                sigs = (signatures or _signatures_of(formula))()
                self._db.execute(
                    "INSERT OR REPLACE INTO instances "
                    "(fingerprint, num_vars, num_clauses, mask, sigs, "
                    " status, model, created_s) "
                    "VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                    (
                        fp,
                        formula.num_vars,
                        formula.num_clauses,
                        signature_mask(sigs),
                        pack_signatures(sigs),
                        outcome.status,
                        json.dumps(outcome.model)
                        if outcome.model is not None
                        else None,
                        now,
                    ),
                )
            if outcome.learned:
                self._db.execute(
                    "INSERT OR REPLACE INTO clause_bank "
                    "(fingerprint, clauses, conflicts, created_s) "
                    "VALUES (?, ?, ?, ?)",
                    (
                        fp,
                        json.dumps(outcome.learned),
                        int(outcome.conflicts or 0),
                        now,
                    ),
                )
            self._evict_locked(now)

    def note_warm_start(self, donor_conflicts: int, conflicts: int) -> int:
        """Count one warm-started solve and its conflict savings
        (thread-safe; callers report after the solve finishes).
        Returns the conflicts saved."""
        saved = max(0, donor_conflicts - conflicts)
        with self._lock:
            self.stats.warm_starts += 1
            self.stats.warm_start_conflicts_saved += saved
        return saved

    # -- the cache-backed solve path ------------------------------------

    def before_solve(
        self, key: str, spec: JobSpec, formula: CNF
    ) -> Tuple[Optional[JobOutcome], Optional[WarmStart]]:
        """Pre-solve step: ``(hit, None)`` when the cache answers,
        else ``(None, warm start)`` for the caller to hand to
        :meth:`after_solve`.

        The formula's clause signatures are computed at most once per
        miss, shared by the lookup, the donor search and the record.
        The cache is advisory: an error in either lookup counts in
        :attr:`CacheStats.errors` and reads as a miss, and the caller
        solves and calls :meth:`after_solve` as for any miss.  A hit
        never reaches a QPU scheduler, so its modelled time is never
        billed twice.
        """
        signatures = _signatures_of(formula)
        try:
            hit = self.lookup(key, spec, formula, signatures=signatures)
        except Exception:  # noqa: BLE001 — advisory, never fatal
            self._count_error()
            hit = None
        if hit is not None:
            return hit, None
        try:
            warm = self.warm_clauses(formula, key, signatures=signatures)
        except Exception:  # noqa: BLE001
            self._count_error()
            warm = None
        return None, warm or WarmStart(signatures=signatures)

    def after_solve(
        self,
        key: str,
        formula: CNF,
        outcome: JobOutcome,
        warm: Optional[WarmStart],
    ) -> Optional[int]:
        """Post-solve step: count a warm start, record ``outcome``, then
        strip its cache-internal ``learned`` payload so it never reaches
        a journal, result line or wire.  Returns the conflicts the warm
        start saved (None when the solve was not warm-started)."""
        saved = None
        if warm is not None and outcome.warm_clauses:
            saved = self.note_warm_start(
                warm.donor_conflicts, outcome.conflicts or 0
            )
        try:
            self.record(
                key,
                formula,
                outcome,
                signatures=warm.signatures if warm is not None else None,
            )
        except Exception:  # noqa: BLE001 — advisory
            self._count_error()
        outcome.learned = None
        return saved

    def _count_error(self) -> None:
        with self._lock:
            self.stats.errors += 1

    def flush_metrics(self, metrics) -> None:
        """Fold :attr:`stats` into the ``hyqsat_cache_*`` metrics of
        ``metrics`` (once, when the owning session ends)."""
        stats = self.stats
        for name, value in (
            ("hyqsat_cache_hits_total", stats.hits),
            ("hyqsat_cache_misses_total", stats.misses),
            ("hyqsat_cache_warm_starts_total", stats.warm_starts),
            (
                "hyqsat_cache_warm_start_conflicts_saved_total",
                stats.warm_start_conflicts_saved,
            ),
            ("hyqsat_cache_evictions_total", stats.evictions),
            ("hyqsat_cache_errors_total", stats.errors),
        ):
            if value:
                metrics.counter(name).inc(value)
        for kind, count in sorted(stats.subsumption_hits.items()):
            metrics.counter("hyqsat_cache_subsumption_hits_total").labels(
                kind=kind
            ).inc(count)
        try:
            metrics.gauge("hyqsat_cache_entries").set(self.entry_count())
        except Exception:  # noqa: BLE001 — DB already closed
            pass

    # -- maintenance ----------------------------------------------------

    def _expire_locked(self, now: float) -> None:
        if self.ttl_s is None:
            return
        with self._db:
            cursor = self._db.execute(
                "DELETE FROM results WHERE last_hit_s < ?",
                (now - self.ttl_s,),
            )
        self.stats.evictions += cursor.rowcount

    def _evict_locked(self, now: float) -> None:
        self._expire_locked(now)
        if self.max_entries is None:
            return
        (count,) = self._db.execute(
            "SELECT COUNT(*) FROM results"
        ).fetchone()
        overflow = count - self.max_entries
        if overflow > 0:
            self._db.execute(
                "DELETE FROM results WHERE solve_key IN ("
                "SELECT solve_key FROM results "
                "ORDER BY last_hit_s ASC LIMIT ?)",
                (overflow,),
            )
            self.stats.evictions += overflow

    def gc(
        self,
        max_entries: Optional[int] = None,
        ttl_s: Optional[float] = None,
    ) -> int:
        """Apply eviction policy now; returns rows dropped.

        Overrides (when given) replace the constructor's cap/TTL for
        this pass.  Also drops instance/clause-bank rows no results
        row references, then VACUUMs.
        """
        before = self.stats.evictions
        with self._lock:
            if max_entries is not None:
                self.max_entries = max_entries
            if ttl_s is not None:
                self.ttl_s = ttl_s
            with self._db:
                self._evict_locked(time.time())
                orphans = self._db.execute(
                    "DELETE FROM instances WHERE fingerprint NOT IN "
                    "(SELECT fingerprint FROM results)"
                ).rowcount
                self._db.execute(
                    "DELETE FROM clause_bank WHERE fingerprint NOT IN "
                    "(SELECT fingerprint FROM instances)"
                )
            self._db.execute("VACUUM")
            self.stats.evictions += max(0, orphans)
        return self.stats.evictions - before

    def entry_count(self) -> int:
        with self._lock:
            (count,) = self._db.execute(
                "SELECT COUNT(*) FROM results"
            ).fetchone()
            return count

    def describe(self) -> Dict[str, Any]:
        """Stats snapshot for ``hyqsat cache stats``."""
        with self._lock:
            (results,) = self._db.execute(
                "SELECT COUNT(*) FROM results"
            ).fetchone()
            (instances,) = self._db.execute(
                "SELECT COUNT(*) FROM instances"
            ).fetchone()
            (banked,) = self._db.execute(
                "SELECT COUNT(*) FROM clause_bank"
            ).fetchone()
            (total_hits,) = self._db.execute(
                "SELECT COALESCE(SUM(hits), 0) FROM results"
            ).fetchone()
            (page_count,) = self._db.execute(
                "PRAGMA page_count"
            ).fetchone()
            (page_size,) = self._db.execute("PRAGMA page_size").fetchone()
            return {
                "path": self.path,
                "results": results,
                "instances": instances,
                "clause_banks": banked,
                "lifetime_hits": total_hits,
                "db_bytes": page_count * page_size,
                "max_entries": self.max_entries,
                "ttl_s": self.ttl_s,
            }

    def export_rows(self) -> Iterator[Dict[str, Any]]:
        """Every results row as a JSON-able dict (``cache export``)."""
        with self._lock:
            rows = self._db.execute(
                "SELECT solve_key, fingerprint, outcome, created_s, "
                "last_hit_s, hits FROM results ORDER BY created_s"
            ).fetchall()
        for key, fp, outcome, created, last_hit, hits in rows:
            yield {
                "solve_key": key,
                "fingerprint": fp,
                "outcome": json.loads(outcome),
                "created_s": created,
                "last_hit_s": last_hit,
                "hits": hits,
            }

    def close(self) -> None:
        with self._lock:
            self._db.close()

    def __enter__(self) -> "PersistentResultStore":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
