"""Tests for the AnnealerDevice facade."""

import numpy as np
import pytest

from repro.annealer.device import AnnealerDevice, AnnealRequest
from repro.annealer.noise import NoiseModel
from repro.embedding.hyqsat_embed import HyQSatEmbedder
from repro.qubo.encoding import encode_formula
from repro.qubo.normalization import normalize
from repro.sat.cnf import Clause
from repro.topology.chimera import ChimeraGraph


def _request(clauses, n, hardware, num_reads=1):
    enc = encode_formula(clauses, n)
    norm_obj, d = normalize(enc.objective)
    emb = HyQSatEmbedder(hardware).embed(enc)
    assert emb.success
    return AnnealRequest(
        objective=norm_obj,
        embedding=emb.embedding,
        edge_couplers=emb.edge_couplers,
        energy_scale=d,
        num_reads=num_reads,
    )


class TestRequestValidation:
    def test_energy_scale_positive(self, small_hardware):
        req = _request([Clause([1, 2])], 2, small_hardware)
        with pytest.raises(ValueError):
            AnnealRequest(req.objective, req.embedding, req.edge_couplers, 0.0)

    def test_num_reads_positive(self, small_hardware):
        req = _request([Clause([1, 2])], 2, small_hardware)
        with pytest.raises(ValueError):
            AnnealRequest(req.objective, req.embedding, req.edge_couplers, 1.0, 0)


class TestRun:
    def test_satisfiable_clause_reaches_zero(self, small_hardware):
        device = AnnealerDevice(small_hardware, seed=0)
        result = device.run(_request([Clause([1, 2, 3])], 3, small_hardware))
        assert result.best.energy == pytest.approx(0.0, abs=1e-9)
        assert result.best.assignment.satisfies_clause(Clause([1, 2, 3]))

    def test_unsat_core_has_positive_energy(self, small_hardware):
        # (x1 v x2), (-x1), (-x2): unsatisfiable, objective 1 + x1*x2.
        # (A perfectly balanced contradiction like [x1], [-x1] sums to
        # a *constant* objective, which AnnealRequest now rejects.)
        core = [Clause([1, 2]), Clause([-1]), Clause([-2])]
        device = AnnealerDevice(small_hardware, seed=0)
        result = device.run(_request(core, 2, small_hardware))
        assert result.best.energy >= 1.0 - 1e-9

    def test_energy_in_problem_units(self, small_hardware):
        # Three copies of the same contradiction scale the gap.
        core = [Clause([1, 2]), Clause([-1]), Clause([-2])]
        device = AnnealerDevice(small_hardware, seed=1)
        result = device.run(_request(core * 3, 2, small_hardware))
        assert result.best.energy == pytest.approx(3.0, abs=1e-9)

    def test_num_reads_returned(self, small_hardware):
        device = AnnealerDevice(small_hardware, seed=2)
        result = device.run(_request([Clause([1, 2])], 2, small_hardware, num_reads=4))
        assert len(result.samples) == 4
        assert result.best.energy == min(result.energies)

    def test_qpu_time_accounted(self, small_hardware):
        device = AnnealerDevice(small_hardware, seed=0)
        result = device.run(_request([Clause([1, 2])], 2, small_hardware, num_reads=3))
        assert result.qpu_time_us == device.timing.total_us(3)

    def test_repeat_calls_differ_but_device_reproducible(self, small_hardware):
        clauses = [Clause([1, 2]), Clause([-1, 2]), Clause([1, -2])]
        request = _request(clauses, 2, small_hardware)
        d1 = AnnealerDevice(small_hardware, seed=5)
        first = d1.run(request)
        second = d1.run(request)
        d2 = AnnealerDevice(small_hardware, seed=5)
        assert d2.run(request).best.energy == first.best.energy
        assert d2.run(request).best.energy == second.best.energy

    def test_noisy_device_still_sound(self, small_hardware):
        device = AnnealerDevice(
            small_hardware, noise=NoiseModel.dwave_2000q(), seed=3
        )
        result = device.run(_request([Clause([1, 2, 3])], 3, small_hardware))
        # With noise energies may be positive but must be finite and the
        # assignment must cover the formula variables.
        assert np.isfinite(result.best.energy)
        assert all(v in result.best.assignment for v in (1, 2, 3))

    def test_default_hardware_is_c16(self):
        assert AnnealerDevice().hardware.num_qubits == 2048
