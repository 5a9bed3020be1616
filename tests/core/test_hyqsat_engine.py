"""Engine selection, warm start, and CDCL-rate stats in the hybrid loop."""

import time

import pytest

from repro.annealer.device import AnnealerDevice
from repro.cdcl.engine import DEFAULT_ENGINE
from repro.cdcl.native import native_available
from repro.core.config import HyQSatConfig
from repro.core.hyqsat import HyQSatSolver
from repro.topology.chimera import ChimeraGraph

from tests.conftest import make_random_3sat

needs_native = pytest.mark.skipif(
    not native_available(), reason="no C compiler for the native kernel"
)


def make_device():
    return AnnealerDevice(ChimeraGraph(8, 8, 4), seed=0)


class TestConfig:
    def test_engine_validated(self):
        with pytest.raises(ValueError, match="unknown CDCL engine"):
            HyQSatConfig(engine="turbo")

    def test_defaults(self):
        config = HyQSatConfig()
        assert config.engine == DEFAULT_ENGINE == "fast"
        assert config.warm_start is False


@needs_native
class TestEngineInHybridLoop:
    @pytest.mark.parametrize("seed", range(4))
    def test_engines_agree_on_hybrid_solve(self, seed):
        formula = make_random_3sat(24, 100, seed=seed)
        results = {}
        for engine in ("reference", "fast"):
            solver = HyQSatSolver(
                formula,
                device=make_device(),
                config=HyQSatConfig(seed=seed, engine=engine),
            )
            results[engine] = solver.solve()
        ref, fast = results["reference"], results["fast"]
        assert ref.status == fast.status
        assert ref.stats.as_dict() == fast.stats.as_dict()
        assert ref.hybrid.qa_calls == fast.hybrid.qa_calls
        if ref.model is not None:
            assert ref.model.frozen() == fast.model.frozen()


class TestRates:
    def test_rates_populated(self):
        formula = make_random_3sat(20, 85, seed=1)
        solver = HyQSatSolver(
            formula, device=make_device(), config=HyQSatConfig(seed=1)
        )
        result = solver.solve()
        hybrid = result.hybrid
        assert hybrid.cdcl_seconds > 0.0
        if result.stats.propagations:
            assert hybrid.cdcl_propagations_per_s > 0.0
        assert hybrid.cdcl_conflicts_per_s >= 0.0

    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_cdcl_seconds_exclude_qa_rounds_and_checkpoints(
        self, engine, tmp_path, monkeypatch
    ):
        """QA rounds and checkpoint saves run inside the iteration hook
        but are not CDCL search time: with both made slow, the CDCL
        time, the frontend time and the slow parts still fit in the
        solve's wall time."""
        import repro.service.checkpoint as checkpoint

        pause_s = 0.01
        saves = []
        real_save = checkpoint.save_checkpoint

        def slow_save(*args, **kwargs):
            saves.append(1)
            time.sleep(pause_s)
            return real_save(*args, **kwargs)

        class SlowDevice(AnnealerDevice):
            def run(self, request):
                time.sleep(pause_s)
                return super().run(request)

        monkeypatch.setattr(checkpoint, "save_checkpoint", slow_save)
        formula = make_random_3sat(50, 215, seed=4)
        solver = HyQSatSolver(
            formula,
            device=SlowDevice(ChimeraGraph(8, 8, 4), seed=0),
            config=HyQSatConfig(
                seed=4,
                engine=engine,
                checkpoint_every=1,
                checkpoint_path=str(tmp_path / "ckpt.json"),
            ),
        )
        start = time.perf_counter()
        result = solver.solve()
        wall = time.perf_counter() - start
        hybrid = result.hybrid
        assert hybrid.qa_calls > 0 and saves
        assert hybrid.cdcl_seconds > 0.0
        slow_s = pause_s * (hybrid.qa_calls + len(saves))
        assert hybrid.cdcl_seconds + hybrid.frontend_seconds + slow_s <= wall

    def test_rate_gauges_published(self):
        from repro.observability import Observability

        observability = Observability.profiling()
        formula = make_random_3sat(18, 75, seed=2)
        HyQSatSolver(
            formula,
            device=make_device(),
            config=HyQSatConfig(seed=2),
            observability=observability,
        ).solve()
        dump = observability.metrics.dump_json()
        assert "hyqsat_cdcl_propagations_per_s" in dump
        assert "hyqsat_cdcl_conflicts_per_s" in dump


class TestWarmStart:
    def test_cold_start_discards_solver(self):
        formula = make_random_3sat(18, 75, seed=3)
        solver = HyQSatSolver(
            formula, device=make_device(), config=HyQSatConfig(seed=3)
        )
        solver.solve()
        assert solver._cdcl is None

    def test_warm_start_reuses_solver(self):
        formula = make_random_3sat(18, 75, seed=3)
        solver = HyQSatSolver(
            formula,
            device=make_device(),
            config=HyQSatConfig(seed=3, warm_start=True),
        )
        first = solver.solve()
        warm = solver._cdcl
        assert warm is not None
        second = solver.solve()
        assert solver._cdcl is warm  # same instance, learned DB kept
        assert first.status == second.status
        # cumulative budgets: the warm solver's stats only grow
        assert second.stats.iterations >= first.stats.iterations
        if second.is_sat:
            assert second.model.satisfies(formula)
