"""Tests for the HyQSAT frontend pipeline."""

import numpy as np
import pytest

from repro.core.frontend import Frontend
from repro.qubo.encoding import encode_formula
from repro.qubo.normalization import in_hardware_range
from repro.sat.assignment import Assignment
from repro.sat.cnf import CNF, Clause


@pytest.fixture
def formula():
    return CNF(
        [Clause([1, 2, 3]), Clause([-1, 4]), Clause([2, -3, 4]), Clause([5])],
        num_vars=5,
    )


class TestPrepare:
    def test_full_queue(self, formula, small_hardware):
        frontend = Frontend(formula, small_hardware)
        result = frontend.prepare([0, 1, 2, 3])
        assert result is not None
        assert result.num_embedded == 4
        assert set(result.formula_clauses) == {0, 1, 2, 3}
        assert in_hardware_range(result.request.objective)
        assert result.request.energy_scale >= 1.0

    def test_empty_queue_returns_none(self, formula, small_hardware):
        assert Frontend(formula, small_hardware).prepare([]) is None

    def test_partial_queue_indices_refer_to_formula(self, formula, small_hardware):
        frontend = Frontend(formula, small_hardware)
        result = frontend.prepare([2, 0])
        assert set(result.formula_clauses) <= {0, 2}

    def test_embedded_variables(self, formula, small_hardware):
        frontend = Frontend(formula, small_hardware)
        result = frontend.prepare([1])  # clause (-1 v 4)
        assert result.embedded_variables == (1, 4)

    def test_elapsed_time_recorded(self, formula, small_hardware):
        result = Frontend(formula, small_hardware).prepare([0])
        assert result.elapsed_seconds > 0


class TestConditioning:
    def test_falsified_literals_dropped(self, formula, small_hardware):
        frontend = Frontend(formula, small_hardware)
        trail = Assignment({1: False})
        result = frontend.prepare([0], trail)
        # Clause 0 = (x1 v x2 v x3) conditioned on x1=0 -> (x2 v x3).
        assert result.encoding.clauses[0] == Clause([2, 3])

    def test_fully_falsified_clause_skipped(self, formula, small_hardware):
        frontend = Frontend(formula, small_hardware)
        trail = Assignment({5: False})
        assert frontend.prepare([3], trail) is None

    def test_kept_indices_follow_original_numbering(self, formula, small_hardware):
        frontend = Frontend(formula, small_hardware)
        trail = Assignment({5: False, 1: False})
        result = frontend.prepare([3, 0], trail)
        # Clause 3 conditioned away; clause 0 survives as index 0.
        assert result.formula_clauses == (0,)

    def test_device_solves_conditioned_residual(self, formula, small_hardware):
        from repro.annealer import AnnealerDevice

        frontend = Frontend(formula, small_hardware)
        trail = Assignment({1: False, 2: False})
        result = frontend.prepare([0], trail)  # residual (x3)
        device = AnnealerDevice(small_hardware, seed=0)
        anneal = device.run(result.request)
        assert anneal.best.energy == pytest.approx(0.0, abs=1e-9)
        assert anneal.best.assignment[3] is True


class TestCoefficientToggle:
    def test_adjustment_changes_objective(self, small_hardware):
        formula = CNF([Clause([1, 2, 3]), Clause([3])], num_vars=3)
        plain = encode_formula(formula.clauses, formula.num_vars)
        adjusted = Frontend(formula, small_hardware).prepare([0, 1])
        # The unit clause's weak sub-objective is amplified to d* = 2.
        assert not plain.objective.is_close(adjusted.encoding.objective)
        # Unit penalty (1 - x3) has d = 1/2 so its target alpha is 4;
        # the d*-preserving scale-back settles on the largest boost
        # that keeps the summed objective in range (> 1, < 4 here).
        coefficient = adjusted.encoding.sub_objectives[-1].coefficient
        assert 1.0 < coefficient < 4.0
        assert adjusted.encoding.objective.d_star() == pytest.approx(
            plain.objective.d_star(), rel=1e-6
        )

    def test_num_reads_forwarded(self, formula, small_hardware):
        frontend = Frontend(formula, small_hardware, num_reads=7)
        assert frontend.prepare([0]).request.num_reads == 7


class TestCompilationCache:
    def test_repeat_queue_hits_and_reuses_request(self, formula, small_hardware):
        frontend = Frontend(formula, small_hardware)
        first = frontend.prepare([0, 1, 2])
        again = frontend.prepare([0, 1, 2])
        assert frontend.cache_misses == 1
        assert frontend.cache_hits == 1
        # The expensive payload is the *same object*, not a recompile.
        assert again.request is first.request
        assert again.formula_clauses == first.formula_clauses

    def test_queue_order_insensitive(self, formula, small_hardware):
        frontend = Frontend(formula, small_hardware)
        first = frontend.prepare([2, 0, 1])
        again = frontend.prepare([1, 2, 0])
        assert frontend.cache_hits == 1
        assert again.request is first.request

    def test_relevant_assignment_change_misses(self, formula, small_hardware):
        frontend = Frontend(formula, small_hardware)
        frontend.prepare([0], Assignment({1: False}))
        frontend.prepare([0], Assignment({1: True}))
        assert frontend.cache_hits == 0
        assert frontend.cache_misses == 2

    def test_unrelated_assignment_still_hits(self, formula, small_hardware):
        # Clause 0 is over {1, 2, 3}; var 5 cannot affect its residual.
        frontend = Frontend(formula, small_hardware)
        first = frontend.prepare([0], Assignment({1: False}))
        again = frontend.prepare([0], Assignment({1: False, 5: True}))
        assert frontend.cache_hits == 1
        assert again.request is first.request

    def test_none_result_cached(self, formula, small_hardware):
        frontend = Frontend(formula, small_hardware)
        trail = Assignment({5: False})
        assert frontend.prepare([3], trail) is None
        assert frontend.prepare([3], trail) is None
        assert frontend.cache_misses == 1
        assert frontend.cache_hits == 1

    def test_lru_bound_evicts_oldest(self, formula, small_hardware):
        frontend = Frontend(formula, small_hardware, cache_size=2)
        frontend.prepare([0])
        frontend.prepare([1])
        frontend.prepare([2])  # evicts [0]
        frontend.prepare([0])  # miss again
        assert frontend.cache_hits == 0
        assert frontend.cache_misses == 4
        assert frontend.prepare([2]) is not None  # still resident
        assert frontend.cache_hits == 1

    def test_cache_disabled(self, formula, small_hardware):
        frontend = Frontend(formula, small_hardware, cache_size=0)
        first = frontend.prepare([0])
        again = frontend.prepare([0])
        assert frontend.cache_hits == 0
        assert frontend.cache_misses == 0
        assert again.request is not first.request

    def test_negative_cache_size_rejected(self, formula, small_hardware):
        with pytest.raises(ValueError):
            Frontend(formula, small_hardware, cache_size=-1)

    def test_reset_cache(self, formula, small_hardware):
        frontend = Frontend(formula, small_hardware)
        frontend.prepare([0])
        frontend.prepare([0])
        frontend.reset_cache()
        assert frontend.cache_hits == 0
        assert frontend.cache_misses == 0
        frontend.prepare([0])
        assert frontend.cache_misses == 1

    def test_hit_refreshes_elapsed_time(self, formula, small_hardware):
        frontend = Frontend(formula, small_hardware)
        first = frontend.prepare([0, 1, 2])
        again = frontend.prepare([0, 1, 2])
        assert again.elapsed_seconds > 0
        assert again.elapsed_seconds != first.elapsed_seconds


class TestPrecompiledProblem:
    def test_compiled_attached_when_chain_strength_known(
        self, formula, small_hardware
    ):
        frontend = Frontend(formula, small_hardware, chain_strength=1.0)
        result = frontend.prepare([0, 1, 2])
        assert result.request.compiled is not None
        assert result.request.compiled.chain_strength == 1.0

    def test_no_compile_without_chain_strength(self, formula, small_hardware):
        result = Frontend(formula, small_hardware).prepare([0])
        assert result.request.compiled is None

    def test_device_accepts_precompiled_request(self, formula, small_hardware):
        from repro.annealer import AnnealerDevice

        device = AnnealerDevice(small_hardware, seed=0)
        frontend = Frontend(
            formula, small_hardware, chain_strength=device.chain_strength
        )
        result = frontend.prepare([0, 1, 2])
        anneal = device.run(result.request)
        assert anneal.samples


class TestEmbeddedObjectiveSubset:
    def test_only_embedded_clauses_in_objective(self, small_hardware):
        from repro.topology.chimera import ChimeraGraph

        tiny = ChimeraGraph(2, 2, 2)  # 4 vertical lines
        formula = CNF([Clause([1, 2, 3]), Clause([4, 5, 6])], num_vars=6)
        result = Frontend(formula, tiny).prepare([0, 1])
        assert result.formula_clauses == (0,)
        # Objective variables restricted to clause 0's vars + its aux.
        assert {4, 5, 6}.isdisjoint(
            v for v in result.request.objective.variables if v <= 6
        )
