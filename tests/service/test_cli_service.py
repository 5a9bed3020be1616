"""CLI surface of the service: submit/serve/batch, the batch↔solve
bit-identity acceptance check, suite --jobs, and Ctrl-C handling."""

from __future__ import annotations

import json
import re

import pytest

from repro.cli import main
from repro.observability import read_trace
from repro.service import JobOutcome


def read_results(path) -> dict:
    outcomes = [
        JobOutcome.from_json(line)
        for line in path.read_text().splitlines()
        if line.strip()
    ]
    return {o.job_id: o for o in outcomes}


def parse_solve_output(out: str) -> dict:
    """The solver fields a solo ``hyqsat solve`` prints."""
    fields = {"status": re.search(r"^s (\S+)", out, re.M).group(1).lower()}
    model = re.search(r"^v (.+) 0$", out, re.M)
    fields["model"] = (
        [int(v) for v in model.group(1).split()] if model else None
    )
    for name in ("iterations", "conflicts", "qa_calls"):
        fields[name] = int(re.search(rf"{name}=(\d+)", out).group(1))
    fields["qpu_time_us"] = float(
        re.search(r"qpu_time_us=([\d.]+)", out).group(1)
    )
    return fields


class TestBatchBitIdentity:
    """Acceptance: ``hyqsat batch --jobs 4`` over ≥ 8 mixed SAT/UNSAT
    instances is bit-identical, per fixed job seed, to serial
    ``hyqsat solve`` runs."""

    def test_batch_matches_serial_solve(self, cnf_dir, tmp_path, capsys):
        results_path = tmp_path / "results.jsonl"
        assert (
            main(
                [
                    "batch",
                    str(cnf_dir),
                    "--jobs",
                    "4",
                    "-o",
                    str(results_path),
                ]
            )
            == 0
        )
        capsys.readouterr()
        results = read_results(results_path)
        assert len(results) == 8
        assert {o.status for o in results.values()} == {"sat", "unsat"}

        paths = sorted(cnf_dir.glob("*.cnf"))
        for index, path in enumerate(paths):
            assert main(["solve", str(path), "--seed", str(index)]) in (0, 1)
            solo = parse_solve_output(capsys.readouterr().out)
            got = results[path.stem]
            assert got.state == "done"
            assert got.seed == index
            for name, want in solo.items():
                assert getattr(got, name) == want, (path.stem, name)


class TestSubmitServe:
    def test_submit_then_serve_with_dedup(self, cnf_dir, tmp_path, capsys):
        jobs_path = tmp_path / "jobs.jsonl"
        inst = str(cnf_dir / "inst0.cnf")
        assert main(["submit", inst, "--queue", str(jobs_path), "--seed", "7"]) == 0
        assert (
            main(
                [
                    "submit",
                    inst,
                    "--id",
                    "twin",
                    "--queue",
                    str(jobs_path),
                    "--seed",
                    "7",
                    "--priority",
                    "background",
                ]
            )
            == 0
        )
        capsys.readouterr()

        results_path = tmp_path / "results.jsonl"
        assert (
            main(
                [
                    "serve",
                    str(jobs_path),
                    "--jobs",
                    "2",
                    "-o",
                    str(results_path),
                ]
            )
            == 0
        )
        err = capsys.readouterr().err
        assert "dedup_hits=1" in err
        results = read_results(results_path)
        assert results["inst0-s7"].state == "done"
        assert results["twin"].state == "deduped"
        assert results["twin"].dedup_of == "inst0-s7"
        assert results["twin"].model == results["inst0-s7"].model

    def test_submit_writes_relative_paths_resolved_by_serve(
        self, cnf_dir, capsys
    ):
        # job file next to the instances, instance referenced by name
        jobs_path = cnf_dir / "jobs.jsonl"
        jobs_path.write_text('{"id": "rel", "path": "inst0.cnf"}\n')
        assert main(["serve", str(jobs_path)]) == 0
        captured = capsys.readouterr()
        line = json.loads(captured.out.splitlines()[0])
        assert line["state"] == "done"
        jobs_path.unlink()

    def test_serve_rejects_malformed_job_line(self, tmp_path, capsys):
        jobs_path = tmp_path / "jobs.jsonl"
        jobs_path.write_text('{"id": "a", "path": "x", "bogus": 1}\n')
        with pytest.raises(SystemExit, match="bogus"):
            main(["serve", str(jobs_path)])

    def test_serve_empty_source(self, tmp_path, capsys):
        jobs_path = tmp_path / "jobs.jsonl"
        jobs_path.write_text("# comment only\n")
        assert main(["serve", str(jobs_path)]) == 0
        assert "no jobs" in capsys.readouterr().err

    def test_batch_trace_has_service_spans(self, cnf_dir, tmp_path, capsys):
        trace_path = tmp_path / "trace.jsonl"
        results_path = tmp_path / "results.jsonl"
        assert (
            main(
                [
                    "batch",
                    str(cnf_dir),
                    "--jobs",
                    "2",
                    "-o",
                    str(results_path),
                    "--trace",
                    str(trace_path),
                ]
            )
            == 0
        )
        capsys.readouterr()
        names = {
            r["name"]
            for r in read_trace(str(trace_path))
            if r.get("type") == "span"
        }
        assert names == {"service.batch", "service.job"}

    def test_batch_no_cnfs_exits(self, tmp_path):
        with pytest.raises(SystemExit, match="no \\*.cnf"):
            main(["batch", str(tmp_path)])

    @pytest.mark.parametrize("flags,reason", [
        (["--qpu-budget-us", "0"], "positive"),
        (["--pool", "process", "--qpu-budget-us", "1"], "thread or inline"),
    ], ids=["zero", "process-pool"])
    def test_an_unusable_qpu_budget_is_a_one_line_error(
        self, cnf_dir, tmp_path, flags, reason
    ):
        results_path = tmp_path / "results.jsonl"
        with pytest.raises(SystemExit, match=reason):
            main(["batch", str(cnf_dir), "-o", str(results_path), *flags])
        assert not results_path.exists()  # refused before any job ran


class TestSuiteJobs:
    """``hyqsat suite --jobs N`` must print the identical table."""

    def test_parallel_suite_equals_serial(self, capsys):
        argv = ["suite", "--benchmarks", "GC1", "--problems", "2"]
        assert main(argv) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert parallel == serial
        assert "Iteration reduction" in serial


class TestKeyboardInterrupt:
    """Ctrl-C prints partial stats and flushes telemetry, no traceback."""

    def test_solve_interrupt_flushes_trace(
        self, cnf_dir, tmp_path, capsys, monkeypatch
    ):
        from repro.core.hyqsat import HyQSatSolver

        def explode(self):
            raise KeyboardInterrupt

        monkeypatch.setattr(HyQSatSolver, "solve", explode)
        trace_path = tmp_path / "trace.jsonl"
        rc = main(
            ["solve", str(cnf_dir / "inst0.cnf"), "--trace", str(trace_path)]
        )
        assert rc == 130
        out = capsys.readouterr().out
        assert "c interrupted" in out
        assert "c partial qa_calls=" in out
        assert f"c trace={trace_path}" in out
        # the flushed trace is a valid (if empty) trace file
        read_trace(str(trace_path))

    def test_solve_interrupt_flushes_metrics(
        self, cnf_dir, tmp_path, capsys, monkeypatch
    ):
        from repro.core.hyqsat import HyQSatSolver

        monkeypatch.setattr(
            HyQSatSolver,
            "solve",
            lambda self: (_ for _ in ()).throw(KeyboardInterrupt()),
        )
        metrics_path = tmp_path / "out.prom"
        rc = main(
            [
                "solve",
                str(cnf_dir / "inst0.cnf"),
                "--metrics",
                str(metrics_path),
            ]
        )
        assert rc == 130
        assert metrics_path.exists()
        assert "hyqsat_qa_calls_total" in metrics_path.read_text()

    def test_suite_interrupt_prints_partial_table(self, capsys, monkeypatch):
        import repro.cli as cli

        real_cell = cli._suite_cell
        calls = []

        def flaky_cell(benchmark, index, seed):
            if len(calls) >= 1:
                raise KeyboardInterrupt
            calls.append((benchmark, index))
            return real_cell(benchmark, index, seed)

        monkeypatch.setattr(cli, "_suite_cell", flaky_cell)
        rc = main(["suite", "--benchmarks", "GC1", "--problems", "2"])
        assert rc == 130
        out = capsys.readouterr().out
        assert "c interrupted after 1/2 problems" in out
        assert "Iteration reduction" in out  # the partial table
