"""Docs lint: broken links, phantom flags, undocumented solve flags.

Five checks over the repo's markdown set (README.md, DESIGN.md,
EXPERIMENTS.md, CONTRIBUTING.md, ROADMAP.md, docs/*.md):

1. **Relative links** — every ``[text](path)`` pointing inside the
   repo must resolve to an existing file (anchors and external URLs
   are skipped).
2. **Flag references** — every ``--flag`` token mentioned in the docs
   must be a flag some ``hyqsat`` subcommand actually defines (so docs
   cannot keep advertising a renamed or removed option).
3. **Solve-flag coverage** — every optional flag of ``hyqsat solve``
   must appear in README.md's flag table (the other direction of the
   same drift).
4. **Stale bytecode** — no package directory under ``src/`` may hold
   only ``__pycache__`` bytecode with no ``.py`` sources (a leftover
   from a deleted module that keeps importing locally).
5. **Metric-group coverage** — every metric *group* (name prefix such
   as ``hyqsat_cache_*``) declared in ``observability.schema`` must
   have at least one member documented in docs/TELEMETRY.md.  The
   per-metric exactness check lives in
   ``tests/observability/test_contract.py``; this catches a whole new
   group landing in the schema with no documentation section at all.

Run with ``make docs-check`` or::

    PYTHONPATH=src python tools/docs_lint.py

Exits non-zero with one line per problem.  Zero third-party
dependencies; flag extraction introspects the real argparse parser so
the lint can never disagree with ``--help``.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path
from typing import Dict, List, Set

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Markdown files covered by the lint (ISSUE.md is per-PR scratch;
#: PAPER(S)/SNIPPETS are generated references with external links).
DOC_FILES = (
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "CONTRIBUTING.md",
    "ROADMAP.md",
    "CHANGES.md",
    "docs/TELEMETRY.md",
    "docs/SERVICE.md",
    "docs/GATEWAY.md",
)

_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_FLAG_RE = re.compile(r"(?<![-\w])(--[a-z][a-z0-9-]+)\b")

#: Doc-mentioned flags that are not hyqsat CLI flags (pytest/pip/git
#: options quoted in command examples, etc.).
FLAG_ALLOWLIST: Set[str] = {
    "--benchmark-only",  # pytest-benchmark, quoted in Makefile docs
    "--quick",           # benchmarks.bench_hotpath / bench_observability
    "--output",          # benchmark scripts
    "--baseline",        # benchmarks.bench_observability
    "--help",
    "--dispatch",        # planned flag (ROADMAP open item 6), not shipped yet
    "--job",             # planned trace-report flag (ROADMAP open item 1)
    "--layers",          # planned trace-report flag (ROADMAP open item 1)
    "--verify",          # planned connect/batch flag (ROADMAP open item 4)
    "--seconds",         # perfbench/run.py
    "--workload",        # perfbench/run.py
}

#: Flags allowed in one doc only: removed CLI flags that the change
#: history still names, so any other doc mentioning them still fails.
FILE_FLAG_ALLOWLIST: Dict[str, Set[str]] = {
    "CHANGES.md": {"--store-cap"},  # serve/batch flag, removed
}


def _doc_paths() -> List[Path]:
    return [REPO_ROOT / name for name in DOC_FILES if (REPO_ROOT / name).exists()]


def check_links(problems: List[str]) -> None:
    for path in _doc_paths():
        text = path.read_text(encoding="utf-8")
        for match in _LINK_RE.finditer(text):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            target = target.split("#", 1)[0]
            if not target:
                continue
            resolved = (path.parent / target).resolve()
            if not resolved.exists():
                rel = path.relative_to(REPO_ROOT)
                problems.append(f"{rel}: broken link -> {match.group(1)}")


def _cli_flags() -> Set[str]:
    """Every optional flag any hyqsat subcommand defines."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.cli import build_parser

    flags: Set[str] = set()
    parsers = [build_parser()]
    while parsers:
        parser = parsers.pop()
        for action in parser._actions:
            flags.update(s for s in action.option_strings if s.startswith("--"))
            choices = getattr(action, "choices", None)
            if isinstance(choices, dict) and all(
                hasattr(sub, "_actions") for sub in choices.values()
            ):
                parsers.extend(choices.values())
    return flags


def _solve_flags() -> Set[str]:
    from repro.cli import build_parser

    parser = build_parser()
    for action in parser._actions:
        choices = getattr(action, "choices", None)
        if choices and "solve" in choices:
            return {
                s
                for sub_action in choices["solve"]._actions
                for s in sub_action.option_strings
                if s.startswith("--") and s != "--help"
            }
    raise RuntimeError("no 'solve' subcommand found")


def check_flag_references(problems: List[str]) -> None:
    known = _cli_flags() | FLAG_ALLOWLIST
    for path in _doc_paths():
        rel = path.relative_to(REPO_ROOT)
        allowed = known | FILE_FLAG_ALLOWLIST.get(rel.as_posix(), set())
        text = path.read_text(encoding="utf-8")
        for flag in sorted(set(_FLAG_RE.findall(text))):
            if flag not in allowed:
                problems.append(f"{rel}: references unknown flag {flag}")


def check_solve_flag_coverage(problems: List[str]) -> None:
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    for flag in sorted(_solve_flags()):
        if flag not in readme:
            problems.append(f"README.md: solve flag {flag} missing from flag table")


def check_stale_bytecode(problems: List[str]) -> None:
    """Flag source dirs under src/ holding only bytecode.

    A package directory whose sole contents are ``__pycache__`` /
    ``.pyc`` files is a leftover from a deleted or renamed module —
    imports appear to work locally while the source is gone (the
    original ``repro/gateway`` stub shipped exactly this way).
    """
    src = REPO_ROOT / "src"
    for directory in sorted(p for p in src.rglob("*") if p.is_dir()):
        if directory.name == "__pycache__":
            continue
        entries = list(directory.iterdir())
        if not entries:
            continue
        has_source = any(
            p.suffix == ".py" or (p.is_dir() and p.name != "__pycache__")
            for p in entries
        )
        if not has_source:
            rel = directory.relative_to(REPO_ROOT)
            problems.append(f"{rel}: only bytecode, no .py sources (stale package?)")


def _metric_groups() -> Set[str]:
    """Metric-name prefixes declared in the schema (first two
    underscore-separated components, e.g. ``hyqsat_cache``)."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.observability.schema import METRIC_NAMES

    return {"_".join(name.split("_", 2)[:2]) for name in METRIC_NAMES}


def check_metric_group_coverage(problems: List[str]) -> None:
    doc = REPO_ROOT / "docs" / "TELEMETRY.md"
    if not doc.exists():
        problems.append("docs/TELEMETRY.md: missing")
        return
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.observability.schema import metric_names_in_doc

    documented = metric_names_in_doc(doc.read_text(encoding="utf-8"))
    documented_groups = {
        "_".join(name.split("_", 2)[:2]) for name in documented
    }
    for group in sorted(_metric_groups() - documented_groups):
        problems.append(
            f"docs/TELEMETRY.md: metric group {group}_* from "
            "observability.schema has no documented members"
        )


def main() -> int:
    problems: List[str] = []
    check_links(problems)
    check_flag_references(problems)
    check_solve_flag_coverage(problems)
    check_stale_bytecode(problems)
    check_metric_group_coverage(problems)
    for problem in problems:
        print(problem)
    if problems:
        print(f"docs lint: {len(problems)} problem(s)")
        return 1
    print(f"docs lint: {len(_doc_paths())} files OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
