"""The array parser against the line-by-line parser it replaced.

A seeded sweep of well-formed and malformed DIMACS documents goes
through :func:`repro.sat.dimacs.parse_dimacs` and the old parser
(kept in ``tests/sat/clause_oracles.py``), in strict and lenient mode,
with the formula-read library (``repro/sat/table.c``) loaded and
blocked.  Each document must give either equal formulas (``clauses``
and ``num_vars``) or a :class:`DimacsError` with the same message.
Named documents pin which input classes the library reads itself and
which it hands back to the NumPy path.
"""

from __future__ import annotations

import collections
import re

import numpy as np
import pytest

from repro.cdcl import native
from repro.sat import dimacs
from repro.sat.cnf import MAX_VAR
from repro.sat.dimacs import DimacsError, parse_dimacs

from tests.sat import clause_oracles as oracle

SWEEP = 3000

#: Tokens ``int`` rejects, and some it accepts in unusual spellings.
ODD_TOKENS = (
    "x", "1-2", "--3", "-", "3.0", "0x1", "1e3", "+4", "1_0", "٣", "-0",
    "007", "99999999999999999999", "-9223372036854775808",
)

#: Separators that ``str.splitlines`` or ``str.split`` treat specially.
SEPARATORS = ("\n", "\n", "\n", "\r\n", "\r", "\x0b", "\x1c", " ")
SPACES = (" ", " ", " ", "  ", "\t", "\x1f", "\xa0")


def outcome(parse, text: str, strict: bool):
    try:
        formula = parse(text, strict=strict)
    except DimacsError as exc:
        return ("error", str(exc))
    return ("cnf", formula.clauses, formula.num_vars)


def assert_same(text: str, strict: bool):
    """The two parsers agree on ``text``; returns the old outcome.

    One difference is by design: the old parser took any literal in
    lenient mode, while a table row holds int64, so a variable beyond
    ``MAX_VAR`` is now an error naming that bound."""
    expected = outcome(oracle.parse_dimacs, text, strict)
    got = outcome(parse_dimacs, text, strict)
    if expected[0] == "cnf" and expected[2] > MAX_VAR:
        assert got[0] == "error" and got[1].endswith(f"exceeds {MAX_VAR}")
    else:
        assert got == expected, repr(text)
    return expected


def random_document(rng: np.random.Generator) -> str:
    """A DIMACS document with faults drawn at random: comments
    anywhere, clauses split across lines, ``%`` terminators, odd
    tokens and separators, out-of-range literals, a missing final
    ``0``, duplicate or malformed headers and wrong clause counts."""
    chance = lambda p: rng.random() < p  # noqa: E731
    num_vars = int(rng.integers(0, 9))
    clauses = []
    for _ in range(int(rng.integers(0, 9))):
        width = int(rng.integers(0, 5))
        top = num_vars + (2 if chance(0.1) else 0)
        row = [
            int(rng.integers(1, top + 1)) * int(rng.choice((-1, 1)))
            for _ in range(width if top else 0)
        ]
        clauses.append(row)
    tokens = []
    for row in clauses:
        tokens += [str(lit) for lit in row] + ["0"]
    if chance(0.1) and tokens:
        tokens.insert(int(rng.integers(0, len(tokens))), str(rng.choice(ODD_TOKENS)))
    if chance(0.1) and tokens:
        tokens.pop()  # the final clause loses its 0
    lines = []
    while tokens:
        take = int(rng.integers(1, 6))
        space = str(rng.choice(SPACES))
        lead = space if chance(0.1) else ""
        lines.append(lead + space.join(tokens[:take]))
        tokens = tokens[take:]
        if chance(0.1):
            lines.append("")
        if chance(0.08):
            lines.append(str(rng.choice(["c note", "  c indented", "c"])))
    declared = len(clauses) + (int(rng.integers(-1, 2)) if chance(0.15) else 0)
    header = f"p cnf {num_vars} {declared}"
    if chance(0.05):
        header = str(rng.choice([
            "p cnf 3", "p sat 3 1", "p cnf x 1", f"p cnf -1 {declared}",
            "pcnf 1 1", " p  cnf  2  1 ",
        ]))
    preamble = ["c generated"] if chance(0.5) else []
    if chance(0.05):
        preamble.append("1 0")  # data before the header
    body_at = int(rng.integers(0, len(lines) + 1))
    if chance(0.05):
        lines.insert(body_at, header)  # a second header
    if chance(0.15):
        lines.insert(body_at, "%")
        if chance(0.5):
            lines.append("0")
    if chance(0.03):
        preamble.insert(0, "%")  # the end marker before any header
    document = preamble + ([] if chance(0.02) else [header]) + lines
    separator = str(rng.choice(SEPARATORS))
    return separator.join(document) + (separator if chance(0.8) else "")


@pytest.mark.parametrize("strict", [True, False], ids=["strict", "lenient"])
def test_parser_matches_the_line_parser(strict, read_paths, monkeypatch):
    native_reads = collections.Counter()
    read_native = dimacs._read_native

    def counted(kernel, data, strict):
        formula = read_native(kernel, data, strict)
        native_reads[formula is not None] += 1
        return formula

    monkeypatch.setattr(dimacs, "_read_native", counted)
    for path in read_paths():
        native_reads.clear()
        rng = np.random.default_rng(17 if strict else 18)
        kinds = collections.Counter()
        for _ in range(SWEEP):
            kind, *rest = assert_same(random_document(rng), strict)
            # Errors by message, less line numbers, counts and tokens.
            kinds[kind if kind == "cnf" else re.sub(r"-?\d+|'.*'", "#", rest[0])] += 1
        # The sweep reaches both outcomes and every kind of fault.
        assert kinds["cnf"] > SWEEP // 3 and len(kinds) == (11 if strict else 8), kinds
        if path == "loaded":
            # The library read a share of the documents itself (the
            # sweep's odd separators and spaces send most elsewhere).
            assert native_reads[True] > SWEEP // 10, native_reads
        else:
            assert not native_reads, native_reads


@pytest.mark.parametrize(
    "text",
    [
        "p cnf 3 2\n1 -2\n3 0 -1\n2 0\n",
        "c a\np cnf 2 1\nc b\n 1 2 0\n%\n0\n",
        "p cnf 2 1\r\n1 2 0\r\n",
        "p cnf 2 2\n1 0\nx 0\n",
        "p cnf 2 2\n3 0\nx 0\n",
        "p cnf 2 2\nx 0\n3 0\n",
        "p cnf 2 1\n1 0\np cnf 2 1\n",
        "p cnf 2 1\n1 5 0\np cnf 2 1\n",
        "p cnf 2 1\n1 2\n",
        "p cnf 2 2\n1 2 0\n",
        "p cnf 1 1\n1 99999999999999999999 0\n",
        "p cnf 1 1\n-9223372036854775808 0\n",
        "p cnf 2 1\n1 1 -1 2 0\n",
        "p cnf 2 1\n\n\n1 2 0 \n%\nx\n",
    ],
)
@pytest.mark.parametrize("strict", [True, False], ids=["strict", "lenient"])
def test_named_documents(text, strict, read_paths):
    for _ in read_paths():
        assert_same(text, strict)


def _boundary_documents():
    """Name -> (document, whether the library reads it when the NumPy
    path accepts it): every odd token, separator and space above, and
    the other input classes at the edge of the plain form."""
    documents = {}
    for token in dict.fromkeys(ODD_TOKENS):
        documents[f"token {token!r}"] = (
            f"p cnf 9 2\n1 {token} 0\n2 0\n", token in ("-0", "007")
        )
    for separator in dict.fromkeys(SEPARATORS):
        lines = ["c x", "p cnf 3 2", "1 -2 0", "3 0"]
        documents[f"separator {separator!r}"] = (
            separator.join(lines) + separator, separator in ("\n", "\r\n", "\r")
        )
    for space in dict.fromkeys(SPACES):
        documents[f"space {space!r}"] = (
            f"p cnf 3 2\n1{space}-2{space}0\n{space}3 0\n",
            space in (" ", "  ", "\t"),
        )
    documents.update({
        "crlf": ("c x\r\np cnf 3 2\r\n1 -2 0\r\n3 0\r\n", True),
        "comment in body": ("p cnf 3 2\n1 -2 0\n  c between\n3 0\n", True),
        "comment byte": ("c \x01\np cnf 3 1\n1 0\n", False),
        "percent end": ("p cnf 3 2\n1 -2\n0 3 0\n%\n0\nx é\n", True),
        "second p line": ("p cnf 3 2\n1 -2 0\np cnf 3 2\n3 0\n", False),
        "unterminated": ("p cnf 3 2\n1 -2 0\n3\n", False),
        "repeats": ("p cnf 3 1\n3 -1 3 1 -1 0\n", True),
        "wide row": ("p cnf 40 2\n" + " ".join(map(str, range(40, 0, -1))) + " 0 1 0\n", True),
        "no clauses": ("p cnf 0 0\n", True),
        "max var - 1": (f"p cnf {MAX_VAR} 1\n{MAX_VAR - 1} 0\n", True),
        "max var": (f"p cnf {MAX_VAR} 1\n-{MAX_VAR} 1 0\n", True),
        "max var + 1": (f"p cnf {MAX_VAR} 1\n{MAX_VAR + 1} 0\n", False),
    })
    return documents


BOUNDARY = _boundary_documents()


@pytest.mark.parametrize("name", sorted(BOUNDARY))
@pytest.mark.parametrize("strict", [True, False], ids=["strict", "lenient"])
def test_plain_form_boundary(name, strict, read_paths):
    """Both paths agree with the line parser, and the library reads a
    document itself exactly when it is plain and accepted."""
    text, plain = BOUNDARY[name]
    for path in read_paths():
        assert_same(text, strict)
        if path == "loaded":
            accepted = outcome(parse_dimacs, text, strict)
            read = dimacs._read_native(
                native.load_table_kernel(), text.encode(), strict
            )
            if plain and accepted[0] == "cnf":
                assert read is not None
                assert ("cnf", read.clauses, read.num_vars) == accepted
            else:
                assert read is None
