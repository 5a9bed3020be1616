"""Tests for the CDCL engine registry (reference / fast selection)."""

import threading

import pytest

from repro.cdcl import native
from repro.cdcl.engine import (
    DEFAULT_ENGINE,
    ENGINES,
    available_engines,
    create_solver,
    resolve_engine,
)
from repro.cdcl.fast import (
    FastCdclSolver,
    FastEngineError,
    fast_engine_supports,
)
from repro.cdcl.heuristics import VsidsHeuristic
from repro.cdcl.native import native_available
from repro.cdcl.presets import kissat_solver, minisat_solver
from repro.cdcl.solver import CdclSolver, SolverConfig
from repro.sat.cnf import CNF

needs_native = pytest.mark.skipif(
    not native_available(), reason="no C compiler for the native kernel"
)

FORMULA = CNF([[1, 2], [-1, 2], [1, -2]])


class _CustomHeuristic(VsidsHeuristic):
    """A user heuristic the kernel does not implement (subclass of a
    supported one — the probe must use exact types, not isinstance)."""


class TestRegistry:
    def test_engines(self):
        assert set(ENGINES) == {"reference", "fast"}
        assert ENGINES["reference"] is CdclSolver
        assert ENGINES["fast"] is FastCdclSolver

    def test_available_always_has_reference(self):
        assert "reference" in available_engines()

    @needs_native
    def test_available_has_fast_with_compiler(self):
        assert "fast" in available_engines()

    def test_unknown_engine_raises(self):
        with pytest.raises(
            ValueError,
            match="^unknown CDCL engine 'turbo'; expected 'reference' or 'fast'$",
        ):
            resolve_engine("turbo")

    def test_reference_resolves_to_itself(self):
        assert resolve_engine("reference") == "reference"

    @needs_native
    def test_fast_resolves_with_builtin_heuristics(self):
        assert resolve_engine("fast", SolverConfig()) == "fast"

    def test_custom_heuristic_falls_back_with_warning(self):
        config = SolverConfig(heuristic_factory=_CustomHeuristic)
        with pytest.warns(RuntimeWarning, match="falling back"):
            assert resolve_engine("fast", config) == "reference"

    def test_fast_engine_supports_rejects_custom_heuristic(self):
        ok, reason = fast_engine_supports(
            SolverConfig(heuristic_factory=_CustomHeuristic)
        )
        assert not ok
        assert "_CustomHeuristic" in reason


class TestCreateSolver:
    def test_reference(self):
        solver = create_solver(FORMULA, engine="reference")
        assert isinstance(solver, CdclSolver)
        assert solver.solve().is_sat

    @needs_native
    def test_fast(self):
        solver = create_solver(FORMULA, engine="fast")
        assert isinstance(solver, FastCdclSolver)
        assert solver.solve().is_sat

    def test_fallback_returns_working_solver(self):
        config = SolverConfig(heuristic_factory=_CustomHeuristic)
        with pytest.warns(RuntimeWarning):
            solver = create_solver(FORMULA, engine="fast", config=config)
        assert isinstance(solver, CdclSolver)
        assert solver.solve().is_sat

    @needs_native
    def test_direct_fast_with_custom_heuristic_raises(self):
        config = SolverConfig(heuristic_factory=_CustomHeuristic)
        with pytest.raises(FastEngineError):
            FastCdclSolver(FORMULA, config=config)


@needs_native
class TestPresetEngines:
    def test_minisat_fast(self):
        solver = minisat_solver(FORMULA, engine="fast")
        assert isinstance(solver, FastCdclSolver)
        assert solver.solve().is_sat

    def test_kissat_fast(self):
        solver = kissat_solver(FORMULA, engine="fast")
        assert isinstance(solver, FastCdclSolver)
        assert solver.solve().is_sat

    def test_default_is_fast(self):
        assert DEFAULT_ENGINE == "fast"
        assert isinstance(create_solver(FORMULA), FastCdclSolver)
        assert isinstance(minisat_solver(FORMULA), FastCdclSolver)
        assert isinstance(kissat_solver(FORMULA), FastCdclSolver)

    def test_reference_on_request(self):
        assert isinstance(minisat_solver(FORMULA, engine="reference"), CdclSolver)
        assert isinstance(kissat_solver(FORMULA, engine="reference"), CdclSolver)


class TestKernelFallback:
    """A kernel that cannot be built or cached degrades the default
    engine to the reference engine instead of failing the solve."""

    @pytest.fixture
    def fresh_loader(self, monkeypatch):
        monkeypatch.setattr(native, "_lib", None)
        monkeypatch.setattr(native, "_load_attempted", False)
        return monkeypatch

    def test_cache_dir_under_regular_file(self, tmp_path, fresh_loader):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        fresh_loader.setenv("HYQSAT_KERNEL_CACHE", str(blocker / "cache"))
        assert native.load_kernel() is None
        with pytest.warns(RuntimeWarning, match="falling back to the reference"):
            solver = create_solver(FORMULA)
        assert isinstance(solver, CdclSolver)
        assert solver.solve().is_sat

    def test_cache_dir_not_creatable(self, tmp_path, fresh_loader):
        def refuse(*_args, **_kwargs):
            raise PermissionError("read-only")

        fresh_loader.setenv("HYQSAT_KERNEL_CACHE", str(tmp_path / "cache"))
        fresh_loader.setattr(native.Path, "mkdir", refuse)
        assert native.load_kernel() is None
        assert not native_available()


@needs_native
class TestConcurrentFirstLoad:
    def test_threads_racing_the_first_load_share_one_kernel(self, monkeypatch):
        """A caller arriving while another thread builds the kernel
        waits for it instead of falling back to the reference engine."""
        build = native._build_library
        building, release = threading.Event(), threading.Event()

        def slow_build():
            building.set()
            release.wait(30)
            return build()

        monkeypatch.setattr(native, "_lib", None)
        monkeypatch.setattr(native, "_load_attempted", False)
        monkeypatch.setattr(native, "_build_library", slow_build)
        libs = [None] * 4

        def load(index):
            libs[index] = native.load_kernel()

        threads = [
            threading.Thread(target=load, args=(index,)) for index in range(4)
        ]
        threads[0].start()
        assert building.wait(30)
        for thread in threads[1:]:
            thread.start()
        for thread in threads[1:]:
            thread.join(0.2)  # they must still be waiting on the build
        release.set()
        for thread in threads:
            thread.join(30)
            assert not thread.is_alive()
        assert libs[0] is not None
        assert all(lib is libs[0] for lib in libs)
