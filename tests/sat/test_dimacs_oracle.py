"""The array parser against the line-by-line parser it replaced.

A seeded sweep of well-formed and malformed DIMACS documents goes
through :func:`repro.sat.dimacs.parse_dimacs` and the old parser
(kept in ``tests/sat/clause_oracles.py``), in strict and lenient mode.
Each document must give either equal formulas (``clauses`` and
``num_vars``) or a :class:`DimacsError` with the same message.
"""

from __future__ import annotations

import collections
import re

import numpy as np
import pytest

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
def test_parser_matches_the_line_parser(strict):
    rng = np.random.default_rng(17 if strict else 18)
    kinds = collections.Counter()
    for _ in range(SWEEP):
        kind, *rest = assert_same(random_document(rng), strict)
        # Errors by message, less line numbers, counts and tokens.
        kinds[kind if kind == "cnf" else re.sub(r"-?\d+|'.*'", "#", rest[0])] += 1
    # The sweep reaches both outcomes and every kind of fault.
    assert kinds["cnf"] > SWEEP // 3 and len(kinds) == (11 if strict else 8), kinds


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
def test_named_documents(text, strict):
    assert_same(text, strict)
