"""DIMACS CNF parsing and serialisation.

Supports the standard format used by SATLIB / SAT-competition files::

    c a comment
    p cnf <num_vars> <num_clauses>
    1 -2 3 0
    ...

Parsing is forgiving in the ways real SATLIB files require: clauses may
span lines, ``%``-terminated files (SATLIB uniform random instances) are
accepted, and the header clause count is checked but may be overridden
with ``strict=False``.
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import Iterable, List, Optional, Tuple, Union

import numpy as np

from repro.cdcl import native
from repro.sat.cnf import CNF, MAX_VAR, ClauseTable

#: ``dimacs_read`` statuses (keep in sync with table.c).
_READ_OK = 0
_READ_GROW = 1


class DimacsError(ValueError):
    """Raised for malformed DIMACS input."""


def parse_dimacs(text: str, strict: bool = True) -> CNF:
    """Parse DIMACS CNF ``text`` into a :class:`CNF`.

    Parameters
    ----------
    text:
        Full DIMACS document.
    strict:
        When true, the header's variable and clause counts must match
        the body (the SATLIB convention of trailing ``%`` and ``0``
        lines is still accepted).

    The body is read in one pass over arrays: its tokens become one
    integer array, cut at the ``0`` terminators into the formula's
    :class:`~repro.sat.cnf.ClauseTable`; no :class:`~repro.sat.cnf.Clause`
    is built until the formula's clauses are read.  A malformed body
    reports its first fault in document order, with its line number.

    A document in the plain form (``repro/sat/table.c`` lists it) that
    this function accepts is read by the formula-read library's
    ``dimacs_read`` when it loads; every other document, and every
    fault, goes through the NumPy path below.
    """
    if text.isascii():
        kernel = native.load_table_kernel()
        if kernel is not None:
            formula = _read_native(kernel, text.encode(), strict)
            if formula is not None:
                return formula
    lines = text.splitlines()
    num_vars, num_clauses, start = _problem_line(lines)
    tokens, duplicate = _body_tokens(lines, start)
    values, bad = _integers(tokens)

    # Report the fault a line-by-line reader would meet first: the
    # values stop before the first token that is no integer, so an
    # out-of-range literal among them (strict mode) precedes it, and a
    # second problem line ends the body, so it comes last.
    size = np.abs(values)
    if strict and (size > num_vars).any():
        index = int(np.argmax(size > num_vars))
        raise _fault(
            lines, start, index,
            f"literal {int(tokens[index])} exceeds declared num_vars={num_vars}",
        )
    if bad is not None:
        raise _fault(lines, start, bad, f"bad literal {tokens[bad]!r}")
    if duplicate is not None:
        raise DimacsError(f"line {duplicate}: duplicate problem line")
    if (size > MAX_VAR).any():
        index = int(np.argmax(size > MAX_VAR))
        raise _fault(
            lines, start, index, f"literal {int(tokens[index])} exceeds {MAX_VAR}"
        )
    if not strict:
        num_vars = max(num_vars, int(size.max(initial=0)))

    ends = np.flatnonzero(values == 0)
    if len(values) and values[-1] != 0:
        # A trailing clause without its 0 terminator: SATLIB files always
        # terminate clauses, so treat this as an error in strict mode.
        if strict:
            raise DimacsError("unterminated final clause (missing trailing 0)")
        values = np.append(values, 0)
        ends = np.append(ends, len(values) - 1)
    if strict and len(ends) != num_clauses:
        raise DimacsError(
            f"header declares {num_clauses} clauses but body has {len(ends)}"
        )
    lengths = np.diff(ends, prepend=-1) - 1
    lits = np.zeros((len(ends), lengths.max(initial=0)), np.int64)
    lits[np.arange(lits.shape[1]) < lengths[:, None]] = values[values != 0]
    return CNF.from_table(ClauseTable.canonical(lits), num_vars=num_vars)


def _read_native(kernel, data: bytes, strict: bool) -> Optional[CNF]:
    """The formula ``dimacs_read`` reads from ``data``; None when the
    document is not in the plain form or the NumPy path would reject
    it."""
    counts = np.empty(3, np.int64)
    lits = np.empty(len(data) // 2 + 1, np.int64)
    for _ in range(2):
        status = kernel.dimacs_read(
            data, len(data), strict, len(lits), native.address(lits),
            native.address(counts),
        )
        if status != _READ_GROW:
            break
        lits = np.empty(counts[1] * counts[2], np.int64)
    if status != _READ_OK:
        return None
    num_vars, rows, width = counts.tolist()
    table = ClauseTable(lits[: rows * width].reshape(rows, width))
    return CNF.from_table(table, num_vars=num_vars)


def _problem_line(lines: List[str]) -> Tuple[int, int, int]:
    """``(num_vars, num_clauses, index of the first body line)`` from
    the comment lines and ``p cnf`` header that open a document."""
    for line_no, raw_line in enumerate(lines, start=1):
        line = raw_line.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("%"):
            break  # SATLIB end-of-formula marker
        if not line.startswith("p"):
            raise DimacsError(f"line {line_no}: clause data before problem line")
        parts = line.split()
        if len(parts) != 4 or parts[1] != "cnf":
            raise DimacsError(f"line {line_no}: malformed problem line {line!r}")
        try:
            num_vars, num_clauses = int(parts[2]), int(parts[3])
        except ValueError as exc:
            raise DimacsError(f"line {line_no}: non-integer header counts") from exc
        if num_vars < 0 or num_clauses < 0:
            raise DimacsError(f"line {line_no}: negative header counts")
        return num_vars, num_clauses, line_no
    raise DimacsError("missing problem line ('p cnf <vars> <clauses>')")


def _body_tokens(lines: List[str], start: int) -> Tuple[List[str], Optional[int]]:
    """The tokens of the body lines from index ``start`` up to the
    ``%`` end marker or a second problem line, comment lines skipped,
    and the line number of that second problem line (None if none)."""
    kinds = [line.lstrip()[:1] for line in lines[start:]]
    end = kinds.index("%") if "%" in kinds else len(kinds)
    duplicate = kinds.index("p", 0, end) if "p" in kinds[:end] else None
    if duplicate is not None:
        end = duplicate
    body = lines[start : start + end]
    if "c" in kinds[:end]:
        body = [line for line, kind in zip(body, kinds) if kind != "c"]
    return " ".join(body).split(), (
        None if duplicate is None else start + duplicate + 1
    )


def _integers(tokens: List[str]) -> Tuple[np.ndarray, Optional[int]]:
    """The tokens as integers, as Python's ``int`` reads them, up to the
    first that is none: ``(values, index of that token or None)``.
    Magnitudes beyond int64 are clipped to its range (they exceed every
    variable count, which the caller reports from the token)."""
    limit = np.iinfo(np.int64).max
    try:
        return np.maximum(np.array(tokens, dtype=np.int64), -limit), None
    except (ValueError, OverflowError):
        pass
    values: List[int] = []
    for token in tokens:
        try:
            values.append(max(-limit, min(int(token), limit)))
        except ValueError:
            return np.array(values, dtype=np.int64), len(values)
    return np.array(values, dtype=np.int64), None


def _fault(lines: List[str], start: int, index: int, message: str) -> DimacsError:
    """``message`` about body token ``index``, with that token's line."""
    for line_no in range(start + 1, len(lines) + 1):
        line = lines[line_no - 1]
        if line.lstrip().startswith("c"):
            continue
        index -= len(line.split())
        if index < 0:
            return DimacsError(f"line {line_no}: {message}")
    raise IndexError("token index beyond the body")


def to_dimacs(formula: CNF, comments: Iterable[str] = ()) -> str:
    """Serialise ``formula`` to a DIMACS CNF document."""
    out = io.StringIO()
    for comment in comments:
        for line in str(comment).splitlines() or [""]:
            out.write(f"c {line}\n")
    out.write(f"p cnf {formula.num_vars} {formula.num_clauses}\n")
    for clause in formula:
        out.write(" ".join(str(lit.value) for lit in clause))
        out.write(" 0\n")
    return out.getvalue()


def read_dimacs(path: Union[str, Path], strict: bool = True) -> CNF:
    """Read and parse a DIMACS file from ``path``."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_dimacs(handle.read(), strict=strict)


def write_dimacs(
    formula: CNF, path: Union[str, Path], comments: Iterable[str] = ()
) -> None:
    """Serialise ``formula`` and write it to ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(to_dimacs(formula, comments=comments))


# Aliases matching common naming in other SAT toolkits.
from_dimacs = parse_dimacs
