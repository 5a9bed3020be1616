"""Checkpoint/resume bit-identity on both CDCL engines.

A solve interrupted mid-search (via ``max_conflicts``) leaves a
checkpoint behind; resuming from it must reach the *same* answer with
the *same* cumulative statistics — including the resilience-layer
counters (retries, budget spend, breaker state) that accumulate
before the interruption — as an uninterrupted solve.
"""

from __future__ import annotations

import os
import shutil

import numpy as np
import pytest

from repro.benchgen.random_ksat import random_3sat
from repro.core.config import HyQSatConfig
from repro.core.hyqsat import HyQSatSolver, SolverConfig
from repro.sat import to_dimacs
from repro.service import JobSpec
from repro.service.jobs import build_device

#: Cumulative hybrid counters that must survive a resume exactly.
HYBRID_STATS = (
    "qa_calls",
    "qpu_time_us",
    "qa_retries",
    "qa_failures",
    "qa_budget_spent_us",
    "breaker_state",
    "frontend_cache_hits",
    "frontend_cache_misses",
)

SEED = 0


@pytest.fixture(scope="module")
def formula():
    return random_3sat(90, 387, np.random.default_rng(1))


def _solve(formula, engine, checkpoint_path, max_conflicts=None):
    """One solve on the device stack ``hyqsat solve`` would build,
    with injected faults so the resilience counters are non-trivial."""
    spec = JobSpec(
        job_id="ckpt",
        dimacs=to_dimacs(formula),
        seed=SEED,
        qa_faults="dropout=0.3",
        fault_seed=7,
    )
    solver = HyQSatSolver(
        formula,
        device=build_device(spec),
        config=HyQSatConfig(
            seed=SEED,
            engine=engine,
            checkpoint_every=20,
            checkpoint_path=checkpoint_path,
        ),
        solver_config=(
            SolverConfig(seed=SEED)
            if max_conflicts is None
            else SolverConfig(seed=SEED, max_conflicts=max_conflicts)
        ),
    )
    return solver, solver.solve()


@pytest.mark.parametrize("engine", ["reference", "fast"])
def test_resume_is_bit_identical(formula, engine, tmp_path):
    _, reference = _solve(formula, engine, str(tmp_path / "ref.ckpt"))
    # An uninterrupted terminal solve discards its checkpoint.
    assert not os.path.exists(str(tmp_path / "ref.ckpt"))

    # Interrupt mid-search: cut well below the reference conflict
    # count so the run ends UNKNOWN with a live checkpoint on disk.
    path = str(tmp_path / "cut.ckpt")
    cut = max(40, reference.stats.conflicts // 2)
    _, partial = _solve(formula, engine, path, max_conflicts=cut)
    assert partial.status.value == "unknown"
    assert os.path.exists(path)

    resumed_solver, resumed = _solve(formula, engine, path)
    assert resumed_solver._resumed_from_checkpoint
    assert resumed.status == reference.status
    assert resumed.stats.conflicts == reference.stats.conflicts
    assert resumed.stats.iterations == reference.stats.iterations
    for name in HYBRID_STATS:
        assert getattr(resumed.hybrid, name) == getattr(
            reference.hybrid, name
        ), f"{name} diverged across resume"
    # A completed resume cleans up after itself.
    assert not os.path.exists(path)


def test_resumes_a_checkpoint_from_the_two_mode_fast_engine(formula, tmp_path):
    """``data/uf90_fast_cut60.ckpt`` was written by the fast engine
    whose kernel still drove hybrid solves one primitive at a time (its
    state holds ``resume_at_pick``, not ``resume_at``): this module's
    fast solve cut at 60 conflicts.  It resumes to the uninterrupted
    solve's answer and counters."""
    _, reference = _solve(formula, "fast", str(tmp_path / "ref.ckpt"))
    path = str(tmp_path / "old.ckpt")
    data = os.path.join(os.path.dirname(__file__), "data")
    shutil.copy(os.path.join(data, "uf90_fast_cut60.ckpt"), path)
    resumed_solver, resumed = _solve(formula, "fast", path)
    assert resumed_solver._resumed_from_checkpoint
    assert resumed.status == reference.status
    assert resumed.stats.as_dict() == reference.stats.as_dict()
    assert (resumed.stats.conflicts, resumed.stats.iterations) == (102, 271)
    for name in HYBRID_STATS:
        assert getattr(resumed.hybrid, name) == getattr(
            reference.hybrid, name
        ), f"{name} diverged across resume"
    assert resumed.hybrid.qa_calls == 29


def test_corrupt_checkpoint_falls_back_to_fresh_solve(formula, tmp_path):
    _, reference = _solve(formula, "reference", str(tmp_path / "ref.ckpt"))

    path = str(tmp_path / "bad.ckpt")
    cut = max(40, reference.stats.conflicts // 2)
    _solve(formula, "reference", path, max_conflicts=cut)
    with open(path, "r+b") as handle:
        handle.seek(10)
        handle.write(b"\xff\xff\xff")

    solver, result = _solve(formula, "reference", path)
    # Corruption is never fatal: the solve starts from scratch and
    # still reaches the reference answer.
    assert not solver._resumed_from_checkpoint
    assert result.status == reference.status
    assert result.stats.conflicts == reference.stats.conflicts


def test_one_fingerprint_per_checkpointed_solve(tmp_path, read_counts, monkeypatch):
    """The resume check and every save share one formula fingerprint."""
    from repro.service import checkpoint

    saved = []
    save = checkpoint.save_checkpoint

    def counted(path, state):
        saved.append(state["fingerprint"])
        save(path, state)

    monkeypatch.setattr(checkpoint, "save_checkpoint", counted)
    formula = random_3sat(60, 256, np.random.default_rng(3))
    HyQSatSolver(
        formula,
        config=HyQSatConfig(
            seed=SEED, checkpoint_every=5, checkpoint_path=str(tmp_path / "uf60.ckpt")
        ),
        solver_config=SolverConfig(seed=SEED),
    ).solve()
    assert len(saved) >= 3 and len(set(saved)) == 1
    assert read_counts["fingerprint"] == 1
