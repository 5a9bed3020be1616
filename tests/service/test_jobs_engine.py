"""Engine threading through the service layer (JobSpec.engine)."""

import pytest

from repro.cdcl.engine import DEFAULT_ENGINE
from repro.cdcl.fast import FastCdclSolver
from repro.cdcl.native import native_available
from repro.cdcl.solver import CdclSolver
from repro.service.jobs import JobSpec, build_solver

needs_native = pytest.mark.skipif(
    not native_available(), reason="no C compiler for the native kernel"
)

DIMACS = "p cnf 3 3\n1 2 0\n-1 3 0\n-2 -3 0\n"


def spec(**kwargs):
    return JobSpec(job_id="j1", dimacs=DIMACS, **kwargs)


class TestSpec:
    def test_default_engine(self):
        assert spec().engine == DEFAULT_ENGINE

    def test_invalid_engine_rejected(self):
        with pytest.raises(
            ValueError,
            match="^unknown CDCL engine 'turbo'; expected 'reference' or 'fast'$",
        ):
            spec(engine="turbo")

    def test_json_roundtrip(self):
        original = spec(engine="fast", classic=True)
        parsed = JobSpec.from_json(original.to_json())
        assert parsed.engine == "fast"
        assert parsed == original

    def test_default_engine_omitted_from_json(self):
        assert '"engine"' not in spec().to_json()

    def test_engine_not_in_dedup_key(self):
        """Engines are bit-identical, so either may serve the other's
        cached result — the dedup key must not split on engine."""
        assert spec(engine="fast").solve_key() == spec().solve_key()


class TestBuildSolver:
    def test_classic_reference(self):
        solver = build_solver(spec(classic=True, engine="reference"))
        assert isinstance(solver, CdclSolver)

    @needs_native
    def test_classic_fast(self):
        solver = build_solver(spec(classic=True, engine="fast"))
        assert isinstance(solver, FastCdclSolver)

    @needs_native
    def test_hybrid_engine_threaded_to_config(self):
        solver = build_solver(spec(engine="fast"))
        assert solver.config.engine == "fast"

    @needs_native
    def test_classic_engines_bit_identical_through_service(self):
        results = {}
        for engine in ("reference", "fast"):
            result = build_solver(spec(classic=True, engine=engine)).solve()
            results[engine] = result
        ref, fast = results["reference"], results["fast"]
        assert ref.status == fast.status
        assert ref.stats.as_dict() == fast.stats.as_dict()
        if ref.model is not None:
            assert ref.model.frozen() == fast.model.frozen()
