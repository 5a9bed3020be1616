"""Tests for the simulated-annealing sampler."""

import numpy as np
import pytest

from repro.annealer.embedded import EmbeddedProblem
from repro.annealer.noise import NoiseModel
from repro.annealer.sampler import SamplerConfig, SimulatedAnnealingSampler
from repro.cdcl import native


def _problem(linear, couplings, offset=0.0):
    n = len(linear)
    return EmbeddedProblem.from_couplings(
        qubits=tuple(range(n)),
        linear=np.array(linear, dtype=float),
        couplings=tuple(couplings),
        chain_of_index=tuple(range(n)),
        offset=offset,
    )


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SamplerConfig(num_sweeps=0)
        with pytest.raises(ValueError):
            SamplerConfig(beta_min=0)
        with pytest.raises(ValueError):
            SamplerConfig(beta_min=2, beta_max=1)
        with pytest.raises(ValueError):
            SamplerConfig(num_restarts=0)
        with pytest.raises(ValueError):
            SamplerConfig(max_descent_sweeps=-1)


def _reads(problem, config, seed, num_reads, mode):
    """``num_reads`` reads annealed together as the columns of one
    replica matrix (``parallel``) or one ``sample`` call at a time
    (``sequential``, a one-column matrix per read)."""
    if mode == "parallel":
        return SimulatedAnnealingSampler(config, seed=seed).sample(problem, num_reads)
    return [
        SimulatedAnnealingSampler(config, seed=seed + k).sample(problem)[0]
        for k in range(num_reads)
    ]


class TestGroundStates:
    @pytest.mark.parametrize("mode", ["parallel", "sequential"])
    def test_independent_biases(self, mode):
        # H = -x0 + x1: minimum at (1, 0).
        problem = _problem([-1.0, 1.0], [])
        for bits in _reads(problem, SamplerConfig(num_sweeps=64), 0, 3, mode):
            assert list(bits) == [1, 0]

    @pytest.mark.parametrize("mode", ["parallel", "sequential"])
    def test_ferromagnetic_pair(self, mode):
        # H = x0 + x1 - 2 x0 x1 : minima at (0,0) and (1,1).
        problem = _problem([1.0, 1.0], [(0, 1, -2.0)])
        for bits in _reads(problem, SamplerConfig(num_sweeps=64), 1, 5, mode):
            assert bits[0] == bits[1]

    def test_frustrated_triangle_reaches_optimum(self):
        # Antiferromagnetic triangle: best energy = -2 (two ones).
        couplings = [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)]
        problem = _problem([-1.0, -1.0, -1.0], couplings)
        sampler = SimulatedAnnealingSampler(seed=2)
        best = min(problem.energy(b) for b in sampler.sample(problem, num_reads=10))
        assert best == pytest.approx(-1.0)

    def test_empty_problem(self):
        problem = _problem([], [])
        bits = SimulatedAnnealingSampler().sample(problem, num_reads=3)
        assert len(bits) == 3
        assert all(b.size == 0 for b in bits)


class TestDeterminism:
    def test_same_seed_same_samples(self):
        problem = _problem([0.5, -0.5, 0.2], [(0, 1, -1.0), (1, 2, 0.5)])
        a = SimulatedAnnealingSampler(seed=7).sample(problem, num_reads=4)
        b = SimulatedAnnealingSampler(seed=7).sample(problem, num_reads=4)
        assert all((x == y).all() for x, y in zip(a, b))

    def test_different_seeds_differ(self):
        # On a flat landscape the final state depends on the seed.
        problem = _problem([0.0] * 16, [])
        a = SimulatedAnnealingSampler(seed=1).sample(problem)[0]
        b = SimulatedAnnealingSampler(seed=2).sample(problem)[0]
        assert (a != b).any()


class TestNoiseIntegration:
    def test_readout_flips_applied(self):
        problem = _problem([-5.0], [])  # strongly wants 1
        noisy = SimulatedAnnealingSampler(
            noise=NoiseModel.bit_flip(1.0), seed=0
        )
        assert noisy.sample(problem)[0][0] == 0  # flipped from 1

    def test_thermal_beta_caps_schedule(self):
        config = SamplerConfig(beta_min=0.1, beta_max=10.0, num_sweeps=8)
        hot = SimulatedAnnealingSampler(config, NoiseModel(thermal_beta=0.5))
        assert hot._schedule().max() == pytest.approx(0.5)

    def test_num_reads_validated(self):
        with pytest.raises(ValueError):
            SimulatedAnnealingSampler().sample(_problem([0.0], []), num_reads=0)


def _embedded_random_3sat(hardware, num_vars=8, num_clauses=24, seed=9):
    """Compile a random 3-SAT residual onto ``hardware`` (C4 in tests).

    Only the clauses the embedder actually placed contribute to the
    objective, mirroring the frontend's embedded-subset rebuild.
    """
    from repro.annealer.embedded import build_embedded_problem
    from repro.embedding.hyqsat_embed import HyQSatEmbedder
    from repro.qubo.encoding import encode_formula
    from repro.qubo.ising import LogicalArrays, QuadraticObjective
    from repro.qubo.normalization import normalize
    from tests.conftest import make_random_3sat

    formula = make_random_3sat(num_vars, num_clauses, seed=seed)
    enc = encode_formula(list(formula.clauses), formula.num_vars)
    emb = HyQSatEmbedder(hardware).embed(enc)
    assert emb.embedded_clauses
    keep = set(emb.embedded_clauses)
    objective = QuadraticObjective()
    for sub in enc.sub_objectives:
        if sub.clause_index in keep:
            objective.add_objective(sub.objective, scale=sub.coefficient)
    norm_obj, _ = normalize(objective)
    return build_embedded_problem(
        LogicalArrays.from_objective(norm_obj), emb.arrays, hardware, 1.5
    )


class TestBatchedReplicas:
    """Reads and restarts annealed as one replica matrix."""

    def test_deterministic_given_seed(self, small_hardware):
        problem = _embedded_random_3sat(small_hardware)
        config = SamplerConfig(num_restarts=3)
        a = SimulatedAnnealingSampler(config, seed=13).sample(problem, num_reads=4)
        b = SimulatedAnnealingSampler(config, seed=13).sample(problem, num_reads=4)
        assert all((x == y).all() for x, y in zip(a, b))
        c = SimulatedAnnealingSampler(config, seed=14).sample(problem, num_reads=4)
        assert any((x != y).any() for x, y in zip(a, c))

    def test_reads_are_valid_bit_vectors(self, small_hardware):
        problem = _embedded_random_3sat(small_hardware)
        config = SamplerConfig(num_restarts=2)
        reads = SimulatedAnnealingSampler(config, seed=0).sample(problem, num_reads=5)
        assert len(reads) == 5
        for bits in reads:
            assert bits.shape == (problem.num_qubits,)
            assert set(np.unique(bits)) <= {0, 1}

    @pytest.mark.parametrize("native_sweeps", [False, True])
    def test_ground_state_simple_problems(self, native_sweeps, monkeypatch):
        # Both sweep loops (the native kernel and the NumPy oracle it
        # falls back to) settle simple problems in their ground state.
        if not native_sweeps:
            monkeypatch.setattr(native, "load_sweep_kernel", lambda: None)
        config = SamplerConfig(num_sweeps=64)
        biases = _problem([-1.0, 1.0], [])
        bits = SimulatedAnnealingSampler(config, seed=0).sample(biases)[0]
        assert list(bits) == [1, 0]
        pair = _problem([1.0, 1.0], [(0, 1, -2.0)])
        for bits in SimulatedAnnealingSampler(config, seed=1).sample(pair, 5):
            assert bits[0] == bits[1]

    def test_batched_descent_reaches_local_minimum(self, small_hardware):
        problem = _embedded_random_3sat(small_hardware)
        config = SamplerConfig(num_sweeps=2, greedy_descent=True)
        sampler = SimulatedAnnealingSampler(config, seed=3)
        for bits in sampler.sample(problem, num_reads=3):
            state = bits.astype(float)
            linear, matrix = problem.linear, problem.couplings_csr
            field = linear + matrix @ state
            delta = (1.0 - 2.0 * state) * field
            # float32 descent: minimal up to single-precision resolution
            assert (delta >= -1e-4).all()


class TestDescentAndRestarts:
    def test_descent_reaches_local_minimum(self):
        # From any state, descent must end with no improving flip.
        problem = _problem([0.3, -0.7, 0.1], [(0, 1, -0.5), (1, 2, 0.9)])
        sampler = SimulatedAnnealingSampler(
            SamplerConfig(num_sweeps=2, greedy_descent=True), seed=3
        )
        bits = sampler.sample(problem)[0]
        state = bits.astype(float)
        linear, matrix = problem.linear, problem.couplings_csr
        field = linear + matrix @ state
        delta = (1.0 - 2.0 * state) * field
        assert (delta >= -1e-9).all()

    @pytest.mark.parametrize("greedy_descent", [False, True])
    def test_restarts_never_worse(self, greedy_descent):
        couplings = [(i, j, 1.0) for i in range(8) for j in range(i + 1, 8)]
        problem = _problem([-1.0] * 8, couplings)
        single = SimulatedAnnealingSampler(
            SamplerConfig(
                num_sweeps=4, num_restarts=1, greedy_descent=greedy_descent
            ),
            seed=5,
        )
        multi = SimulatedAnnealingSampler(
            SamplerConfig(
                num_sweeps=4, num_restarts=12, greedy_descent=greedy_descent
            ),
            seed=5,
        )
        e_single = problem.energy(single.sample(problem)[0])
        e_multi = problem.energy(multi.sample(problem)[0])
        assert e_multi <= e_single + 1e-9
