"""Clause-signature primitives of the subsumption index.

A formula's *clause signature set* is one 16-byte hash per canonical
clause row (the same sorted-literal rows :func:`repro.sat.cnf.
fingerprint` hashes).  Set inclusion over signature sets decides the
subset/superset relation between instances without storing (or
re-parsing) either formula — 128-bit hashes make a false inclusion
astronomically unlikely, and every SAT answer derived from one is
re-validated against the *actual* new formula anyway, so only the
UNSAT-propagation and clause-bank paths rely on the hash width.

A 63-bit Bloom-style ``mask`` (one bit per clause hash) rides along
as an SQL-side prefilter: ``A ⊆ B`` requires
``mask(A) & mask(B) == mask(A)``, so candidate scans reject most
non-inclusions without unpacking signature blobs.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List, Sequence

from repro.sat.cnf import CNF

#: Bytes kept per clause hash (128 bits: inclusion false-positives are
#: negligible even across millions of cached clauses).
CLAUSE_SIG_BYTES = 16


def clause_signatures(formula: CNF) -> List[bytes]:
    """Sorted 16-byte content hashes, one per canonical clause row."""
    sigs = []
    for clause in formula.clauses:
        row = " ".join(
            str(value) for value in sorted(lit.value for lit in clause)
        )
        sigs.append(
            hashlib.blake2b(
                row.encode(), digest_size=CLAUSE_SIG_BYTES
            ).digest()
        )
    sigs.sort()
    return sigs


def pack_signatures(sigs: Sequence[bytes]) -> bytes:
    """Signature list -> one BLOB column value."""
    return b"".join(sigs)


def unpack_signatures(blob: bytes) -> List[bytes]:
    """BLOB column value -> signature list."""
    return [
        blob[offset : offset + CLAUSE_SIG_BYTES]
        for offset in range(0, len(blob), CLAUSE_SIG_BYTES)
    ]


def signature_mask(sigs: Iterable[bytes]) -> int:
    """63-bit Bloom mask of a signature set (SQL-side prefilter).

    63 bits, not 64, so the mask always fits SQLite's signed INTEGER
    column without sign games.
    """
    mask = 0
    for sig in sigs:
        mask |= 1 << (sig[0] % 63)
    return mask


def sigs_subset(smaller: Sequence[bytes], larger: Sequence[bytes]) -> bool:
    """True when every signature in ``smaller`` appears in ``larger``."""
    return set(smaller) <= set(larger)


def model_completed(
    model: Sequence[int], num_vars: int
) -> List[int]:
    """Re-shape a cached model onto ``num_vars`` variables.

    Returns one signed literal per variable 1..``num_vars`` (the
    :class:`~repro.service.jobs.JobOutcome` model convention).
    Variables the cached model does not cover default to False — the
    validation step decides whether the completed model actually
    satisfies the new instance.
    """
    signs: Dict[int, bool] = {}
    for value in model:
        signs[abs(value)] = value > 0
    return [
        var if signs.get(var, False) else -var
        for var in range(1, num_vars + 1)
    ]


def model_satisfies(formula: CNF, model: Sequence[int]) -> bool:
    """Whether a signed-literal model satisfies every clause.

    This is the *re-validation* step of a subsumption hit: O(total
    literals), no search — cheap enough to run on every candidate.
    """
    signs = {abs(value): value > 0 for value in model}
    for clause in formula.clauses:
        for lit in clause:
            assigned = signs.get(lit.var)
            if assigned is not None and assigned == lit.positive:
                break
        else:
            return False
    return True
