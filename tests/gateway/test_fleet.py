"""Fleet spec parsing and topology-aware routing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.benchgen.random_ksat import random_3sat
from repro.gateway.fleet import FleetRouter, GatewayQpu, parse_fleet_spec
from repro.sat.cnf import CNF, Clause
from repro.topology import build_hardware


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

    @pytest.mark.parametrize("topology", ["chimera", "pegasus"])
    @pytest.mark.parametrize("grid", [4, 8, 16])
    def test_welcome_qubits_are_the_lattice_count(self, topology, grid):
        (qpu,) = parse_fleet_spec(f"{topology}:{grid}")
        lattice = build_hardware(topology, grid)
        assert qpu.describe()["qubits"] == lattice.num_qubits == grid * grid * 8
        assert qpu.hardware is lattice

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
    # 16, 16 and 32 vertical lines.
    return FleetRouter(parse_fleet_spec("chimera:4,pegasus:4,chimera:8"))


class TestRouting:
    def test_small_formula_lands_on_smallest_device(self, router):
        formula = random_3sat(6, 12, np.random.default_rng(1))
        decision = router.route(formula)
        assert decision.fits
        # pegasus4 and chimera4 tie on qubits and lines; the denser
        # lattice comes first, and the job must not reach chimera8.
        assert decision.qpu.name == "pegasus4"

    def test_medium_formula_escalates_to_larger_device(self, router):
        formula = random_3sat(20, 86, np.random.default_rng(1))
        decision = router.route(formula)
        assert decision.fits
        assert decision.qpu.name == "chimera8"

    def test_oversized_formula_falls_back_to_best_partial(self, router):
        """More variables than any device has lines: the device with
        the most lines, which places the most variables per call."""
        formula = random_3sat(40, 170, np.random.default_rng(1))
        decision = router.route(formula)
        assert not decision.fits
        assert decision.qpu.name == "chimera8"

    def test_fallback_ties_go_to_the_first_in_size_order(self):
        router = FleetRouter(parse_fleet_spec("chimera:4,chimera:8,pegasus:8"))
        formula = random_3sat(40, 170, np.random.default_rng(1))
        decision = router.route(formula)
        assert not decision.fits
        assert decision.qpu.name == "pegasus8"

    def test_tautologies_are_not_probed(self, router):
        """The router reads only the variable count: tautological
        clauses (which both CDCL engines drop) never move a job."""
        base = random_3sat(6, 12, np.random.default_rng(1))
        clauses = list(base.clauses) + [Clause([1, -1, 2]), Clause([-3, 3])]
        decision = router.route(CNF(clauses, num_vars=base.num_vars))
        assert decision == router.route(base)
        assert decision.qpu.name == "pegasus4" and decision.fits

    def test_routes_on_the_line_count_not_the_clauses(self, router):
        """Only ``num_vars`` and the lattices' vertical lines decide:
        a 16-variable formula fits the 16-line devices whatever its
        clause count, a 17-variable one does not."""
        for clauses in (1, 64, 400):
            formula = random_3sat(16, clauses, np.random.default_rng(clauses))
            assert router.route(formula).qpu.name == "pegasus4"
        formula = random_3sat(17, 8, np.random.default_rng(3))
        assert router.route(formula).qpu.name == "chimera8"

    def test_empty_fleet_rejected(self):
        with pytest.raises(ValueError):
            FleetRouter([])
