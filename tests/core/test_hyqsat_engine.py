"""Engine selection, one engine per solve, CDCL-rate stats and the
native handover in the hybrid loop."""

import time

import numpy as np
import pytest

from repro.annealer.device import AnnealerDevice
from repro.benchgen.random_ksat import random_3sat
from repro.cdcl import native
from repro.cdcl.engine import DEFAULT_ENGINE
from repro.cdcl.fast import FastCdclSolver
from repro.cdcl.native import native_available
from repro.cdcl.proof import DratProof
from repro.cdcl.solver import CdclSolver, SolverConfig
from repro.core.backend import Strategy
from repro.core.config import HyQSatConfig
from repro.core.hyqsat import HyQSatSolver
from repro.observability import Observability
from repro.sat import to_dimacs
from repro.sat.dimacs import parse_dimacs
from repro.topology.chimera import ChimeraGraph

from tests.conftest import make_random_3sat

needs_native = pytest.mark.skipif(
    not native_available(), reason="no C compiler for the native kernel"
)


def make_device():
    return AnnealerDevice(ChimeraGraph(8, 8, 4), seed=0)


class TestConfig:
    def test_engine_validated(self):
        with pytest.raises(
            ValueError,
            match="^unknown CDCL engine 'turbo'; expected 'reference' or 'fast'$",
        ):
            HyQSatConfig(engine="turbo")

    def test_defaults(self):
        assert HyQSatConfig().engine == DEFAULT_ENGINE == "fast"


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
        """Two ``solve()`` calls build two engines: no learned state
        carries over between solves."""
        formula = make_random_3sat(18, 75, seed=3)
        solver = HyQSatSolver(
            formula, device=make_device(), config=HyQSatConfig(seed=3)
        )
        first = solver.solve()
        engine = solver.last_engine
        second = solver.solve()
        assert solver.last_engine is not engine
        assert first.status == second.status


def parsed_random_3sat(num_vars, num_clauses, seed):
    """A random 3-SAT formula as the service sees it: parsed DIMACS,
    holding only its clause table."""
    formula = random_3sat(num_vars, num_clauses, np.random.default_rng(seed))
    return parse_dimacs(to_dimacs(formula))


@pytest.fixture
def native_entries(monkeypatch):
    """(iteration, forced decisions pending) at each entry into the
    fast engine's native loop."""
    entries = []
    real = FastCdclSolver._solve_run

    def spy(self, *args):
        entries.append((int(self._s.iterations), self.has_pending_decisions))
        return real(self, *args)

    monkeypatch.setattr(FastCdclSolver, "_solve_run", spy)
    return entries


class StopRecorder:
    """The kernel library with, for each ``kernel_run`` call, the
    iteration it starts from and the stops it is asked for."""

    def __init__(self, lib):
        self._lib = lib
        self.calls = []

    def __getattr__(self, name):
        return getattr(self._lib, name)

    def kernel_run(self, sp):
        self.calls.append((int(sp._obj.iterations), int(sp._obj.exits)))
        return self._lib.kernel_run(sp)


@pytest.fixture
def kernel_stops(monkeypatch):
    """Every fast engine built during the test records its
    ``kernel_run`` calls in the returned :class:`StopRecorder`."""
    recorder = StopRecorder(native.load_kernel())
    monkeypatch.setattr(native, "load_kernel", lambda: recorder)
    return recorder


class CountingHook:
    """Calls itself finished after ``calls`` iterations."""

    def __init__(self, calls):
        self.calls = 0
        self.limit = calls
        self.finished = False

    def on_iteration(self, solver):
        self.calls += 1
        self.finished = self.calls >= self.limit
        return None


def _hybrid(
    formula, tmp_path, checkpoint_every=0, observability=None, max_conflicts=None
):
    """A hybrid solver on the test device that checkpoints every
    ``checkpoint_every`` conflicts when that is positive."""
    checkpoints = {}
    if checkpoint_every:
        checkpoints = {
            "checkpoint_every": checkpoint_every,
            "checkpoint_path": str(tmp_path / "ckpt.json"),
        }
    return HyQSatSolver(
        formula,
        device=make_device(),
        config=HyQSatConfig(seed=4, **checkpoints),
        solver_config=SolverConfig(seed=4, max_conflicts=max_conflicts),
        observability=observability,
    )


@needs_native
class TestHandover:
    def test_native_loop_after_the_warmup(self, native_entries, kernel_stops):
        """A uf170 solve enters the native loop once, at its start;
        once the warm-up is over and the last QA call's forced
        decisions have drained, ``kernel_run`` is asked for no stop."""
        formula = parsed_random_3sat(170, 724, 7)
        result = HyQSatSolver(formula, config=HyQSatConfig(seed=7)).solve()
        assert result.is_unsat and result.hybrid.qa_calls > 0
        assert native_entries == [(0, False)]
        stops = [exits for _iteration, exits in kernel_stops.calls]
        free = stops.index(0)
        assert set(stops[free:]) == {0}
        iteration = kernel_stops.calls[free][0]
        assert result.hybrid.warmup_iterations < iteration
        assert iteration < result.stats.iterations
        # After that, kernel_run returns only for restarts, learned-DB
        # reductions, buffer growth and the end of the search.
        assert len(stops) - free <= result.stats.restarts + 64

    @pytest.mark.parametrize(
        "observed",
        ["plain", "hooked", "traced", "drat", "checkpointed", "resumed"],
    )
    def test_each_solve_enters_the_native_loop_once(
        self, observed, tmp_path, native_entries
    ):
        if observed in ("plain", "hooked", "drat"):
            formula = make_random_3sat(30, 150, seed=2)
            proof = DratProof() if observed == "drat" else None
            hook = None if observed == "plain" else CountingHook(5)
            result = FastCdclSolver(formula, proof=proof).solve(hook=hook)
            assert result.stats.conflicts > 0
            if proof is not None:
                assert proof.ends_with_empty_clause
        elif observed == "resumed":
            formula = random_3sat(90, 387, np.random.default_rng(1))
            _hybrid(formula, tmp_path, 20, max_conflicts=60).solve()
            native_entries.clear()
            solver = _hybrid(formula, tmp_path, 20)
            result = solver.solve()
            assert solver._resumed_from_checkpoint
        else:
            formula = make_random_3sat(50, 215, seed=4)
            result = _hybrid(
                formula,
                tmp_path,
                checkpoint_every=50 if observed == "checkpointed" else 0,
                observability=(
                    Observability.tracing() if observed == "traced" else None
                ),
            ).solve()
            assert result.stats.iterations > result.hybrid.warmup_iterations
        assert len(native_entries) == 1

    @pytest.mark.parametrize("engine", [CdclSolver, FastCdclSolver])
    def test_finished_hook_is_not_called_again(self, engine, native_entries):
        formula = make_random_3sat(30, 150, seed=2)
        hook = CountingHook(5)
        result = engine(formula).solve(hook=hook)
        plain = engine(formula).solve()
        assert result.stats.iterations > 5 and hook.calls == 5
        assert result.stats.as_dict() == plain.stats.as_dict()
        if engine is FastCdclSolver:
            assert native_entries == [(0, False), (0, False)]


@needs_native
class TestTableReads:
    @pytest.mark.parametrize(
        "num_vars,num_clauses,seed,accepts",
        [(170, 724, 7, 0), (20, 80, 4, 1)],
    )
    def test_hybrid_solve_never_builds_clause_objects(
        self, num_vars, num_clauses, seed, accepts
    ):
        """The engine's clause store, the clause queue and Strategy 1's
        model check read the table."""
        formula = parsed_random_3sat(num_vars, num_clauses, seed)
        result = HyQSatSolver(formula, config=HyQSatConfig(seed=seed)).solve()
        assert result.hybrid.qa_calls > 0
        strategies = result.hybrid.strategy_counts
        assert strategies[Strategy.ACCEPT_SOLUTION] == accepts
        assert formula._clauses is None
