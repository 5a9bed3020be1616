"""Fleet spec parsing and topology-aware routing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.benchgen.random_ksat import random_3sat
from repro.gateway.fleet import FleetRouter, GatewayQpu, parse_fleet_spec
from repro.sat.cnf import CNF, Clause, fingerprint


class TestParseFleetSpec:
    def test_single_atom_with_default_grid(self):
        (qpu,) = parse_fleet_spec("chimera")
        assert qpu == GatewayQpu(name="chimera16", topology="chimera", grid=16)
        assert qpu.num_qubits == 2048

    def test_mixed_fleet(self):
        names = [q.name for q in parse_fleet_spec("chimera:8,pegasus:8,chimera:16")]
        assert names == ["chimera8", "pegasus8", "chimera16"]

    def test_repeats_get_suffixes(self):
        names = [q.name for q in parse_fleet_spec("chimera:8,chimera:8,chimera:8")]
        assert names == ["chimera8", "chimera8-2", "chimera8-3"]

    @pytest.mark.parametrize("spec", ["zephyr:8", "chimera:zero", "chimera:0", "", ","])
    def test_rejects_bad_specs(self, spec):
        with pytest.raises(ValueError):
            parse_fleet_spec(spec)

    def test_describe_matches_welcome_shape(self):
        (qpu,) = parse_fleet_spec("pegasus:4")
        assert qpu.describe() == {
            "device": "pegasus4",
            "topology": "pegasus",
            "grid": 4,
            "qubits": 128,
        }


@pytest.fixture(scope="module")
def router():
    return FleetRouter(parse_fleet_spec("chimera:4,pegasus:4,chimera:8"))


def route(router, formula):
    return router.route(formula, fingerprint(formula))


class TestRouting:
    def test_small_formula_lands_on_smallest_device(self, router):
        formula = random_3sat(6, 12, np.random.default_rng(1))
        decision = route(router, formula)
        assert decision.fits
        # pegasus4 and chimera4 tie on qubit count; the denser lattice
        # is probed first and fits, so the job must not reach chimera8.
        assert decision.qpu.grid == 4

    def test_medium_formula_escalates_to_larger_device(self, router):
        formula = random_3sat(10, 30, np.random.default_rng(1))
        decision = route(router, formula)
        assert decision.fits
        assert decision.qpu.name == "chimera8"
        assert decision.embedded_clauses == decision.total_clauses == 30

    def test_oversized_formula_falls_back_to_best_partial(self, router):
        formula = random_3sat(30, 129, np.random.default_rng(1))
        decision = route(router, formula)
        assert not decision.fits
        assert 0 < decision.embedded_clauses < decision.total_clauses
        assert decision.qpu.name == "chimera8"  # most clauses placed

    def test_tautologies_are_not_probed(self, router):
        """Both CDCL engines drop tautological clauses, so the frontend
        never deploys one and the probe must not try to encode it."""
        base = random_3sat(6, 12, np.random.default_rng(1))
        clauses = list(base.clauses) + [Clause([1, -1, 2]), Clause([-3, 3])]
        decision = route(router, CNF(clauses, num_vars=base.num_vars))
        assert decision == route(router, base)
        assert decision.fits and decision.total_clauses == 12

    def test_probe_cache_hits_on_identical_formula(self):
        router = FleetRouter(parse_fleet_spec("chimera:4,pegasus:4,chimera:8"))
        formula = random_3sat(10, 30, np.random.default_rng(1))
        first = route(router, formula)
        probes = dict(router._probe_cache)
        assert probes  # the first route probed
        second = route(router, formula)
        assert first == second
        # The second route added no probe: every (fingerprint, device)
        # pair it needed was already memoised.
        assert router._probe_cache == probes

    def test_probe_cache_keeps_the_newest_probes(self, monkeypatch):
        import repro.gateway.fleet as fleet

        monkeypatch.setattr(fleet, "PROBE_CACHE_ENTRIES", 4)
        router = FleetRouter(parse_fleet_spec("chimera:4"))
        formulas = [
            random_3sat(6, 12, np.random.default_rng(seed)) for seed in range(10)
        ]
        decisions = [route(router, formula) for formula in formulas]
        assert len(router._probe_cache) == 4
        assert list(router._probe_cache) == [
            (fingerprint(formula), "chimera4") for formula in formulas[-4:]
        ]
        probes = dict(router._probe_cache)
        assert route(router, formulas[-1]) == decisions[-1]
        assert router._probe_cache == probes  # no probe added

    def test_probes_are_keyed_on_the_given_fingerprint(self):
        router = FleetRouter(parse_fleet_spec("chimera:4"))
        formula = random_3sat(6, 12, np.random.default_rng(1))
        router.route(formula, "fp-from-caller")
        assert list(router._probe_cache) == [("fp-from-caller", "chimera4")]

    def test_empty_fleet_rejected(self):
        with pytest.raises(ValueError):
            FleetRouter([])
