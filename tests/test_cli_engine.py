"""CLI --engine flag and the CDCL-rate summary line."""

import pytest

from repro.cdcl import native
from repro.cdcl.engine import DEFAULT_ENGINE
from repro.cdcl.native import native_available
from repro.cli import build_parser, main

needs_native = pytest.mark.skipif(
    not native_available(), reason="no C compiler for the native kernel"
)


@pytest.fixture
def cnf_file(tmp_path):
    path = tmp_path / "f.cnf"
    path.write_text("p cnf 3 3\n1 2 3 0\n-1 2 0\n-2 3 0\n")
    return str(path)


def test_engine_flag_parses():
    args = build_parser().parse_args(["solve", "x.cnf", "--engine", "fast"])
    assert args.engine == "fast"


def test_engine_default():
    for command in ("solve", "submit", "batch"):
        args = build_parser().parse_args([command, "target"])
        assert args.engine == DEFAULT_ENGINE == "fast"


@pytest.mark.parametrize("command", ["solve", "submit", "batch"])
def test_engine_flag_on_every_job_command(command):
    args = build_parser().parse_args([command, "target", "--engine", "fast"])
    assert args.engine == "fast"


def test_engine_rejects_unknown():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["solve", "x.cnf", "--engine", "turbo"])


def test_solve_summary_has_rates(cnf_file, capsys):
    assert main(["solve", cnf_file]) == 0
    out = capsys.readouterr().out
    assert "c cdcl_propagations_per_s=" in out
    assert "cdcl_conflicts_per_s=" in out
    ran = DEFAULT_ENGINE if native_available() else "reference"
    assert f"engine={ran}" in out


def test_summary_names_the_engine_that_ran(cnf_file, capsys, tmp_path, monkeypatch):
    """With no usable kernel the default engine falls back, and the
    summary says so rather than echoing the requested engine."""
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    monkeypatch.setenv("HYQSAT_KERNEL_CACHE", str(blocker / "cache"))
    monkeypatch.setattr(native, "_lib", None)
    monkeypatch.setattr(native, "_load_attempted", False)
    with pytest.warns(RuntimeWarning, match="falling back to the reference"):
        assert main(["solve", cnf_file]) == 0
    out = capsys.readouterr().out
    assert out.startswith("s SAT")
    assert "engine=reference" in out


@needs_native
def test_solve_fast_engine(cnf_file, capsys):
    assert main(["solve", cnf_file, "--engine", "fast"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("s SAT")
    assert "engine=fast" in out


@needs_native
def test_classic_fast_engine(cnf_file, capsys):
    assert main(["solve", cnf_file, "--classic", "--engine", "fast"]) == 0
    assert capsys.readouterr().out.startswith("s SAT")
