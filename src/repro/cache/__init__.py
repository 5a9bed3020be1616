"""Persistent, subsumption-aware result cache: the one store of
finished results behind the service and the gateway.

The service/gateway layers answer three progressively cheaper
questions before paying for a solve:

1. **Exact hit** — has this *solve key* (canonical CNF fingerprint +
   every outcome-relevant option) been solved before, in any process
   lifetime?  Replay the stored outcome bit-identically.
2. **Subsumption hit** — is this instance a clause-subset or
   clause-superset of a solved instance?  A subset of a SAT instance
   inherits its model; a superset of an UNSAT instance inherits
   UNSAT; a superset of a SAT instance has the cached model
   *re-validated* (not re-solved) against the extra clauses.
3. **Warm start** — failing both, do we hold banked learned clauses
   of a clause-subset donor?  Every clause learned from a subset
   formula is implied by the superset, so the solve is seeded through
   the incremental API (``add_clause``) to skip re-deriving them.

Everything is stdlib SQLite (WAL mode) so the cache survives
restarts and concurrent ``hyqsat serve`` processes; see
docs/SERVICE.md ("Result cache").
"""

from repro.cache.persistent import (
    CLAUSE_BANK_MAX_CLAUSES,
    CLAUSE_BANK_MAX_LEN,
    CacheStats,
    PersistentResultStore,
    WarmStart,
)
from repro.cache.signature import (
    clause_signatures,
    model_completed,
    model_satisfies,
    signature_mask,
    sigs_subset,
)

__all__ = [
    "CLAUSE_BANK_MAX_CLAUSES",
    "CLAUSE_BANK_MAX_LEN",
    "CacheStats",
    "PersistentResultStore",
    "WarmStart",
    "clause_signatures",
    "model_completed",
    "model_satisfies",
    "signature_mask",
    "sigs_subset",
]
