"""CLI surface of the persistent cache: --cache-db on batch, the
--no-cache opt-out, and the ``hyqsat cache`` maintenance
subcommands."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.benchgen.random_ksat import random_3sat
from repro.cli import main
from repro.sat import to_dimacs
from repro.service import JobOutcome

#: Outcome fields that must replay bit-identically from the cache.
SOLVER_FIELDS = (
    "status", "model", "iterations", "conflicts",
    "qa_calls", "qpu_time_us", "seed",
)


@pytest.fixture
def cnf_dir(tmp_path):
    root = tmp_path / "instances"
    root.mkdir()
    for i in range(3):
        text = to_dimacs(random_3sat(20, 91, np.random.default_rng(100 + i)))
        (root / f"inst{i}.cnf").write_text(text)
    return root


def run_batch_cli(cnf_dir, tmp_path, capsys, name, *extra):
    out_path = tmp_path / f"{name}.jsonl"
    assert main(["batch", str(cnf_dir), "-o", str(out_path), *extra]) == 0
    console = capsys.readouterr()
    outcomes = [
        JobOutcome.from_json(line)
        for line in out_path.read_text().splitlines()
        if line.strip()
    ]
    return {o.job_id: o for o in outcomes}, console.out + console.err


class TestBatchFlags:
    def test_cache_round_trip_is_bit_identical(
        self, cnf_dir, tmp_path, capsys
    ):
        db = str(tmp_path / "cache.sqlite")
        fresh, out1 = run_batch_cli(
            cnf_dir, tmp_path, capsys, "fresh", "--cache-db", db
        )
        cached, out2 = run_batch_cli(
            cnf_dir, tmp_path, capsys, "cached", "--cache-db", db
        )
        assert "cache_misses=3" in out1 and "cache_hits=0" in out1
        assert "cache_hits=3" in out2 and "cache_misses=0" in out2
        for job_id, outcome in fresh.items():
            replay = cached[job_id]
            assert replay.cached is True
            for name in SOLVER_FIELDS:
                assert getattr(replay, name) == getattr(outcome, name)

    def test_no_cache_ignores_cache_db(self, cnf_dir, tmp_path, capsys):
        db = str(tmp_path / "cache.sqlite")
        _, out = run_batch_cli(
            cnf_dir, tmp_path, capsys, "off",
            "--cache-db", db, "--no-cache",
        )
        assert "cache_hits=" not in out

    def test_no_cache_summary_absent_without_cache_db(
        self, cnf_dir, tmp_path, capsys
    ):
        _, out = run_batch_cli(cnf_dir, tmp_path, capsys, "plain")
        assert "cache_hits=" not in out


class TestCacheSubcommands:
    @pytest.fixture
    def populated_db(self, cnf_dir, tmp_path, capsys):
        db = str(tmp_path / "cache.sqlite")
        run_batch_cli(cnf_dir, tmp_path, capsys, "seed", "--cache-db", db)
        return db

    def test_stats(self, populated_db, capsys):
        assert main(["cache", "stats", populated_db]) == 0
        out = capsys.readouterr().out
        assert "c results=3" in out
        assert "c instances=3" in out

    def test_stats_json(self, populated_db, capsys):
        assert main(["cache", "stats", populated_db, "--json"]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["results"] == 3
        assert info["path"] == populated_db

    def test_gc_applies_cap(self, populated_db, capsys):
        assert main(["cache", "gc", populated_db, "--cap", "1"]) == 0
        out = capsys.readouterr().out
        assert "c evicted=" in out and "remaining=1" in out

    def test_export_jsonl(self, populated_db, tmp_path, capsys):
        out_path = tmp_path / "dump.jsonl"
        assert (
            main(["cache", "export", populated_db, "-o", str(out_path)])
            == 0
        )
        rows = [
            json.loads(line)
            for line in out_path.read_text().splitlines()
            if line.strip()
        ]
        assert len(rows) == 3
        assert all("solve_key" in row and "outcome" in row for row in rows)

    def test_missing_db_is_a_clean_error(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["cache", "stats", str(tmp_path / "absent.sqlite")])
