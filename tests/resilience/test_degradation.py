"""End-to-end robustness: the hybrid solver under injected faults.

The acceptance bar of the resilience layer: with every fault channel
firing, ``HyQSatSolver.solve`` never raises, always returns the same
SAT/UNSAT verdict as classic CDCL, and with the breaker forced open it
is *bit-identical* to classic CDCL.
"""

import dataclasses

import numpy as np
import pytest

from repro.annealer.device import AnnealerDevice
from repro.annealer.faults import FaultModel
from repro.benchgen.random_ksat import random_3sat
from repro.cdcl.solver import CdclSolver, SolverConfig
from repro.core.config import BreakerPolicy, HyQSatConfig, ResilienceConfig
from repro.core.hyqsat import HyQSatSolver
from repro.resilience import ResilientDevice
from repro.topology.chimera import ChimeraGraph

HARDWARE = ChimeraGraph(8, 8, 4)

CHANNELS = {
    "programming": FaultModel(programming_fail_prob=0.2),
    "timeout": FaultModel(readout_timeout_prob=0.2),
    "dropout": FaultModel(read_dropout_prob=0.2),
    "drift": FaultModel(drift_onset_prob=0.2),
    "combined": FaultModel.uniform(0.1),
}


def _formula(seed):
    return random_3sat(20, 85, np.random.default_rng(seed))


def _hybrid(formula, model, fault_seed=0, config=None, resilience=None):
    device = ResilientDevice(
        AnnealerDevice(
            HARDWARE, seed=0, faults=model, fault_seed=fault_seed
        ),
        resilience or ResilienceConfig(seed=fault_seed),
    )
    return HyQSatSolver(
        formula,
        device=device,
        config=config or HyQSatConfig(num_reads=3),
    )


@pytest.mark.parametrize("channel", sorted(CHANNELS))
@pytest.mark.parametrize("formula_seed", [0, 1])
def test_soak_verdict_matches_cdcl(channel, formula_seed):
    formula = _formula(formula_seed)
    truth = CdclSolver(formula, config=SolverConfig()).solve()

    solver = _hybrid(formula, CHANNELS[channel], fault_seed=formula_seed)
    result = solver.solve()  # must never raise

    assert result.status is truth.status
    if result.model is not None:
        assert all(
            result.model.satisfies_clause(c) for c in formula.clauses
        )
    hybrid = result.hybrid
    # Invariants must hold with failed calls excluded from qa_calls.
    assert hybrid.qa_calls == sum(hybrid.strategy_counts.values())
    assert hybrid.qa_calls == len(hybrid.energies)
    assert hybrid.qa_failures >= 0
    assert 0.0 <= hybrid.qa_availability <= 1.0


def test_soak_unsat_verdict_survives_faults(tiny_unsat_formula):
    solver = _hybrid(tiny_unsat_formula, FaultModel.uniform(0.2))
    result = solver.solve()
    assert result.is_unsat if hasattr(result, "is_unsat") else True
    assert result.status.name == "UNSAT"


def test_counters_reach_hybrid_stats():
    formula = _formula(3)
    solver = _hybrid(formula, FaultModel.uniform(0.25), fault_seed=4)
    hybrid = solver.solve().hybrid
    attempted = hybrid.qa_calls + hybrid.qa_failures
    assert attempted > 0
    assert hybrid.qa_budget_spent_us > 0
    assert hybrid.breaker_state in {"closed", "open", "half_open"}
    if hybrid.qa_failures:
        assert hybrid.qa_fault_counts or hybrid.qa_unavailable
    # The analysis summary consumes the same counters.
    from repro.analysis import resilience_summary

    summary = resilience_summary(hybrid)
    assert summary["qa_attempted"] == attempted
    assert summary["availability"] == hybrid.qa_availability


def test_breaker_forced_open_is_bit_identical_to_pure_cdcl():
    formula = _formula(5)
    solver = _hybrid(formula, FaultModel.none())
    solver.device.force_degraded()
    hybrid = solver.solve()

    pure = CdclSolver(formula, config=SolverConfig()).solve()
    assert hybrid.status is pure.status
    assert hybrid.model == pure.model
    assert hybrid.stats.iterations == pure.stats.iterations
    assert hybrid.stats.conflicts == pure.stats.conflicts
    assert hybrid.stats.decisions == pure.stats.decisions
    assert hybrid.stats.propagations == pure.stats.propagations
    assert hybrid.hybrid.qa_calls == 0
    assert hybrid.hybrid.degraded
    assert hybrid.hybrid.degraded_reason == "breaker_open"
    assert hybrid.hybrid.breaker_state == "open"


def test_budget_exhaustion_degrades_mid_run_without_losing_progress():
    formula = _formula(6)
    solver = _hybrid(
        formula,
        FaultModel.none(),
        resilience=ResilienceConfig(qa_budget_us=2_000.0, seed=0),
        config=HyQSatConfig(num_reads=3),
    )
    result = solver.solve()
    truth = CdclSolver(formula, config=SolverConfig()).solve()
    assert result.status is truth.status
    hybrid = result.hybrid
    if hybrid.degraded:
        assert hybrid.degraded_reason == "budget_exhausted"
        assert hybrid.qa_budget_spent_us <= 2_000.0


def test_identical_seeds_replay_identically():
    formula = _formula(7)
    model = FaultModel.uniform(0.15)

    def run():
        solver = _hybrid(
            formula,
            model,
            fault_seed=9,
            resilience=ResilienceConfig(
                seed=9,
                max_attempts=3,
                breaker=BreakerPolicy(failure_threshold=4),
            ),
        )
        result = solver.solve()
        device = solver.device
        return (
            result.status,
            result.model,
            result.stats.iterations,
            result.stats.conflicts,
            tuple(device.stats.retry_trace),
            tuple(device.breaker.transitions),
            result.hybrid.qa_calls,
            result.hybrid.qa_failures,
            result.hybrid.qa_retries,
            result.hybrid.qa_budget_spent_us,
        )

    assert run() == run()


def test_different_fault_seeds_change_the_trace():
    formula = _formula(8)
    model = FaultModel.uniform(0.3)

    def trace(fault_seed):
        solver = _hybrid(formula, model, fault_seed=fault_seed)
        solver.solve()
        return tuple(solver.device.stats.retry_trace)

    # Same verdict either way, but the fault/retry sequence differs.
    assert trace(1) != trace(2)
