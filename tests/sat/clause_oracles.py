"""Per-``Clause`` reference implementations of the table-based code.

Before formulas held a :class:`~repro.sat.cnf.ClauseTable`, the parser
built one :class:`Clause` per clause and every key and count below
looped over those objects.  The loops are kept here, unchanged, as the
oracles the table code must match bit for bit: fingerprints and clause
signatures are persisted keys (the cache DB, the dedup key), and the
parser's errors are user-facing messages.
"""

from __future__ import annotations

import hashlib
from typing import List, Sequence

from repro.sat.cnf import CNF, Clause
from repro.sat.dimacs import DimacsError


def parse_dimacs(text: str, strict: bool = True) -> CNF:
    num_vars: int = -1
    num_clauses: int = -1
    clauses: List[Clause] = []
    current: List[int] = []
    saw_header = False

    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("%"):
            break  # SATLIB end-of-formula marker
        if line.startswith("p"):
            if saw_header:
                raise DimacsError(f"line {line_no}: duplicate problem line")
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise DimacsError(f"line {line_no}: malformed problem line {line!r}")
            try:
                num_vars, num_clauses = int(parts[2]), int(parts[3])
            except ValueError as exc:
                raise DimacsError(f"line {line_no}: non-integer header counts") from exc
            if num_vars < 0 or num_clauses < 0:
                raise DimacsError(f"line {line_no}: negative header counts")
            saw_header = True
            continue
        if not saw_header:
            raise DimacsError(f"line {line_no}: clause data before problem line")
        for token in line.split():
            try:
                lit = int(token)
            except ValueError as exc:
                raise DimacsError(f"line {line_no}: bad literal {token!r}") from exc
            if lit == 0:
                clauses.append(Clause(current))
                current = []
            else:
                if abs(lit) > num_vars:
                    if strict:
                        raise DimacsError(
                            f"line {line_no}: literal {lit} exceeds declared "
                            f"num_vars={num_vars}"
                        )
                    num_vars = abs(lit)
                current.append(lit)

    if not saw_header:
        raise DimacsError("missing problem line ('p cnf <vars> <clauses>')")
    if current:
        if strict:
            raise DimacsError("unterminated final clause (missing trailing 0)")
        clauses.append(Clause(current))
    if strict and len(clauses) != num_clauses:
        raise DimacsError(
            f"header declares {num_clauses} clauses but body has {len(clauses)}"
        )
    return CNF(clauses, num_vars=num_vars)


def fingerprint(formula: CNF) -> str:
    digest = hashlib.sha256()
    digest.update(f"p cnf {formula.num_vars} {len(formula.clauses)}\n".encode())
    rows = sorted(tuple(lit.value for lit in c) for c in formula.clauses)
    for row in rows:
        digest.update(" ".join(str(v) for v in row).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def clause_signatures(formula: CNF) -> List[bytes]:
    sigs = []
    for clause in formula.clauses:
        row = " ".join(
            str(value) for value in sorted(lit.value for lit in clause)
        )
        sigs.append(hashlib.blake2b(row.encode(), digest_size=16).digest())
    sigs.sort()
    return sigs


def signature_mask(sigs: Sequence[bytes]) -> int:
    """The cache's persisted Bloom mask, one bit per signature list
    entry (before the mask was read from the packed blob)."""
    mask = 0
    for sig in sigs:
        mask |= 1 << (sig[0] % 63)
    return mask


def model_satisfies(formula: CNF, model: Sequence[int]) -> bool:
    signs = {abs(value): value > 0 for value in model}
    for clause in formula.clauses:
        for lit in clause:
            assigned = signs.get(lit.var)
            if assigned is not None and assigned == lit.positive:
                break
        else:
            return False
    return True


def counts(formula: CNF):
    """``(num_clauses, max_clause_size, is_3sat)`` over the clauses."""
    widest = max((len(c) for c in formula.clauses), default=0)
    return len(formula.clauses), widest, widest <= 3


def satisfied_by(formula: CNF, assignment) -> bool:
    """``CNF.satisfied_by`` and ``Assignment.satisfies`` as they were."""
    return all(c.satisfied_by(assignment) for c in formula.clauses)


def clause_index(formula: CNF):
    """``CNF.clause_index`` as it was (its key order is not kept)."""
    index = {}
    for i, clause in enumerate(formula.clauses):
        for var in clause.variables:
            index.setdefault(var, []).append(i)
    return index


def clause_variables(formula: CNF):
    """Each clause's variables in literal order (what the clause queue
    walks)."""
    return [[lit.var for lit in clause.lits] for clause in formula.clauses]
