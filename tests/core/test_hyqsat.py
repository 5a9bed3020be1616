"""Integration tests for the HyQSAT hybrid solver."""

import numpy as np
import pytest

from repro.annealer.device import AnnealerDevice
from repro.annealer.noise import NoiseModel
from repro.cdcl.solver import SolverStatus
from repro.core.backend import Strategy
from repro.core.config import HyQSatConfig
from repro.core.hyqsat import HyQSatSolver, estimate_iterations
from repro.sat.brute import brute_force_solve
from repro.sat.cnf import CNF, Clause
from repro.topology.chimera import ChimeraGraph

from tests.conftest import make_random_3sat


@pytest.fixture(scope="module")
def shared_device():
    return AnnealerDevice(ChimeraGraph(8, 8, 4), seed=0)


class TestEstimate:
    def test_positive(self):
        assert estimate_iterations(10, 42) >= 1
        assert estimate_iterations(0, 0) == 1

    def test_grows_with_clauses(self):
        assert estimate_iterations(100, 430) > estimate_iterations(100, 200)

    def test_grows_with_ratio(self):
        easy = estimate_iterations(100, 200)
        hard = estimate_iterations(100, 430)
        assert hard > easy


class TestCorrectness:
    @pytest.mark.parametrize("seed", range(12))
    def test_agrees_with_brute_force(self, seed, shared_device):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 12))
        cap = (n * (n - 1) * (n - 2) // 6) * 8 // 2
        m = min(int(rng.integers(2, 5 * n)), cap)
        f = make_random_3sat(n, m, seed=seed + 500)
        expected = brute_force_solve(f) is not None
        result = HyQSatSolver(
            f, device=shared_device, config=HyQSatConfig(seed=seed)
        ).solve()
        assert result.is_sat == expected
        if result.is_sat:
            assert result.model.satisfies(f)

    def test_unsat_pair(self, shared_device):
        f = CNF([[1], [-1]])
        result = HyQSatSolver(f, device=shared_device).solve()
        assert result.status is SolverStatus.UNSAT

    def test_empty_formula(self, shared_device):
        result = HyQSatSolver(CNF([], num_vars=2), device=shared_device).solve()
        assert result.is_sat

    def test_noisy_device_still_sound(self):
        device = AnnealerDevice(
            ChimeraGraph(8, 8, 4), noise=NoiseModel.dwave_2000q(), seed=1
        )
        for seed in range(6):
            f = make_random_3sat(8, 30, seed=seed)
            expected = brute_force_solve(f) is not None
            result = HyQSatSolver(f, device=device, config=HyQSatConfig(seed=seed)).solve()
            assert result.is_sat == expected

    def test_rejects_wide_clauses(self, shared_device):
        f = CNF([[1, 2, 3, 4]], num_vars=4)
        with pytest.raises(ValueError, match="3-SAT"):
            HyQSatSolver(f, device=shared_device)


class TestHybridAccounting:
    def test_qa_calls_recorded(self, shared_device):
        f = make_random_3sat(30, 126, seed=3)
        solver = HyQSatSolver(f, device=shared_device, config=HyQSatConfig(seed=3))
        result = solver.solve()
        hybrid = result.hybrid
        if hybrid.qa_calls:
            assert hybrid.qpu_time_us > 0
            assert hybrid.frontend_seconds > 0
            assert hybrid.embedded_clause_total > 0
            assert hybrid.avg_embedded_clauses > 0
            assert len(hybrid.energies) == hybrid.qa_calls
            assert sum(hybrid.strategy_counts.values()) == hybrid.qa_calls

    def test_warmup_budget_respected(self, shared_device):
        f = make_random_3sat(30, 126, seed=4)
        config = HyQSatConfig(warmup_iterations=5, seed=4)
        solver = HyQSatSolver(f, device=shared_device, config=config)
        result = solver.solve()
        assert result.hybrid.warmup_iterations == 5
        assert result.hybrid.qa_calls <= 5

    def test_warmup_zero_disables_qa(self, shared_device):
        f = make_random_3sat(20, 84, seed=5)
        config = HyQSatConfig(warmup_iterations=0, seed=5)
        result = HyQSatSolver(f, device=shared_device, config=config).solve()
        assert result.hybrid.qa_calls == 0

    def test_time_breakdown(self, shared_device):
        f = make_random_3sat(20, 84, seed=7)
        result = HyQSatSolver(f, device=shared_device, config=HyQSatConfig(seed=7)).solve()
        breakdown = result.time_breakdown(cdcl_iteration_seconds=1e-5)
        assert breakdown.total_s == pytest.approx(
            breakdown.frontend_s + breakdown.qpu_s + breakdown.backend_s + breakdown.cdcl_s
        )
        shares = breakdown.shares()
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_iterations_property(self, shared_device):
        f = make_random_3sat(10, 40, seed=8)
        result = HyQSatSolver(f, device=shared_device, config=HyQSatConfig(seed=8)).solve()
        assert result.iterations == result.stats.iterations


class TestStrategyOne:
    def test_trivially_satisfiable_formula_solved_by_proposal(self, shared_device):
        # All-positive clauses: any QA sample descends to all-true.
        clauses = [Clause([v, v % 9 + 1]) for v in range(1, 10)]
        f = CNF(clauses, num_vars=9)
        result = HyQSatSolver(
            f, device=shared_device, config=HyQSatConfig(seed=0)
        ).solve()
        assert result.is_sat


class TestAblationFlags:
    @pytest.mark.parametrize(
        "flags",
        [
            {"enable_strategy_1": False},
            {"enable_strategy_2": False},
            {"enable_strategy_4": False},
            {"use_activity_queue": False},
        ],
    )
    def test_ablations_preserve_correctness(self, flags, shared_device):
        for seed in range(4):
            f = make_random_3sat(8, 32, seed=seed + 40)
            expected = brute_force_solve(f) is not None
            config = HyQSatConfig(seed=seed, **flags)
            result = HyQSatSolver(f, device=shared_device, config=config).solve()
            assert result.is_sat == expected


class TestFrontendCacheIntegration:
    def test_cache_on_off_identical_solve(self):
        # Acceptance check: a full 100-variable solve must produce the
        # same outcome with the compilation cache on and off, and the
        # cached run must actually hit.
        f = make_random_3sat(100, 426, seed=1)
        results = {}
        for cache_size in (64, 0):
            config = HyQSatConfig(seed=0, frontend_cache_size=cache_size)
            device = AnnealerDevice(ChimeraGraph(16, 16, 4), seed=0)
            results[cache_size] = HyQSatSolver(f, device=device, config=config).solve()
        on, off = results[64], results[0]
        assert on.status is off.status
        if on.is_sat:
            assert on.model.satisfies(f)
            assert off.model.satisfies(f)
        assert on.hybrid.frontend_cache_hits > 0
        assert off.hybrid.frontend_cache_hits == 0
        assert off.hybrid.frontend_cache_misses == 0

    def test_hit_rate_property(self):
        from repro.core.hyqsat import HybridStats

        stats = HybridStats()
        assert stats.frontend_cache_hit_rate == 0.0
        stats.frontend_cache_hits = 3
        stats.frontend_cache_misses = 1
        assert stats.frontend_cache_hit_rate == pytest.approx(0.75)


class TestConfigValidation:
    def test_invalid_values(self):
        with pytest.raises(ValueError):
            HyQSatConfig(num_reads=0)
        with pytest.raises(ValueError):
            HyQSatConfig(warmup_iterations=-1)

    def test_capacity_from_hardware(self):
        f = CNF([[1, 2]], num_vars=2)
        solver = HyQSatSolver(f, device=AnnealerDevice(ChimeraGraph(4, 4, 4)))
        assert solver._capacity == 3 * 16
