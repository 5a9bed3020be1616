"""Tests for the embedded-problem compiler."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.annealer.embedded import build_embedded_problem
from repro.embedding.base import EmbeddingArrays
from repro.embedding.hyqsat_embed import HyQSatEmbedder
from repro.qubo.ising import LogicalArrays
from repro.qubo.encoding import encode_formula
from repro.qubo.normalization import normalize
from repro.sat.cnf import Clause


def _compile(clauses, n, hardware, chain_strength=1.0):
    enc = encode_formula(clauses, n)
    norm_obj, d = normalize(enc.objective)
    emb = HyQSatEmbedder(hardware).embed(enc)
    assert emb.success
    problem = build_embedded_problem(
        LogicalArrays.from_objective(norm_obj), emb.arrays, hardware, chain_strength
    )
    return enc, norm_obj, d, emb, problem


class TestCompilation:
    def test_chain_intact_energy_matches_logical(self, small_hardware):
        clauses = [Clause([1, 2, 3]), Clause([-1, 2]), Clause([3])]
        enc, norm_obj, d, emb, problem = _compile(clauses, 3, small_hardware)
        # Evaluate both at every logical assignment with intact chains.
        variables = sorted(norm_obj.variables)
        for bits_int in range(1 << len(variables)):
            logical = {
                v: (bits_int >> i) & 1 for i, v in enumerate(variables)
            }
            physical = np.array(
                [logical[var] for var in problem.chain_of_index], dtype=float
            )
            assert problem.energy(physical) == pytest.approx(
                norm_obj.energy(logical), abs=1e-9
            )

    def test_chain_break_costs_energy(self, small_hardware):
        clauses = [Clause([1, 2, 3])]
        _, norm_obj, _, emb, problem = _compile(clauses, 3, small_hardware, 2.0)
        # Find a variable with a multi-qubit chain and break it.
        target = next(
            v for v in emb.embedding.variables if len(emb.embedding.chain_of(v)) > 1
        )
        intact = np.zeros(problem.num_qubits)
        broken = intact.copy()
        first_index = problem.chain_of_index.index(target)
        broken[first_index] = 1.0
        assert problem.energy(broken) > problem.energy(intact)

    def test_linear_bias_spread_over_chain(self, small_hardware):
        clauses = [Clause([1, 2, 3])]
        enc, norm_obj, _, emb, problem = _compile(clauses, 3, small_hardware)
        for var, bias in norm_obj.linear.items():
            chain = emb.embedding.chain_of(var)
            indices = [i for i, v in enumerate(problem.chain_of_index) if v == var]
            assert len(indices) == len(chain)

    def test_missing_variable_rejected(self, small_hardware):
        from repro.embedding.base import Embedding
        from repro.qubo.ising import QuadraticObjective

        obj = QuadraticObjective(linear={1: 1.0})
        with pytest.raises(ValueError, match="not embedded"):
            build_embedded_problem(
                LogicalArrays.from_objective(obj),
                EmbeddingArrays.from_embedding(Embedding(), {}),
                small_hardware,
            )

    def test_missing_coupler_rejected(self, small_hardware):
        from repro.embedding.base import Embedding
        from repro.qubo.ising import QuadraticObjective

        obj = QuadraticObjective(quadratic={(1, 2): 1.0})
        embedding = Embedding({1: [0], 2: [1]})
        with pytest.raises(ValueError, match="no hardware coupler"):
            build_embedded_problem(
                LogicalArrays.from_objective(obj),
                EmbeddingArrays.from_embedding(embedding, {(1, 2): ()}),
                small_hardware,
            )

    def test_chain_strength_validated(self, small_hardware):
        from repro.embedding.base import Embedding
        from repro.qubo.ising import QuadraticObjective

        with pytest.raises(ValueError):
            build_embedded_problem(
                LogicalArrays.from_objective(QuadraticObjective()),
                EmbeddingArrays.from_embedding(Embedding(), {}),
                small_hardware,
                chain_strength=0,
            )

    def test_offset_carried(self, small_hardware):
        clauses = [Clause([1, 2, 3])]
        _, norm_obj, _, _, problem = _compile(clauses, 3, small_hardware)
        assert problem.offset == norm_obj.offset


class TestEnergyKernels:
    """The vectorised CSR energy path and the batch kernel."""

    def _loop_energy(self, problem, state):
        total = problem.offset + float(problem.linear @ state)
        for i, j, w in problem.couplings:
            total += w * state[i] * state[j]
        return total

    def test_energy_matches_loop_reference(self, small_hardware):
        clauses = [Clause([1, 2, 3]), Clause([-1, 2]), Clause([-2, -3, 1])]
        *_, problem = _compile(clauses, 3, small_hardware)
        rng = np.random.default_rng(0)
        for _ in range(10):
            state = rng.integers(0, 2, size=problem.num_qubits).astype(float)
            assert problem.energy(state) == pytest.approx(
                self._loop_energy(problem, state), abs=1e-9
            )

    def test_batch_energies_match_single(self, small_hardware):
        clauses = [Clause([1, 2, 3]), Clause([2, -3])]
        *_, problem = _compile(clauses, 3, small_hardware)
        rng = np.random.default_rng(1)
        states = rng.integers(0, 2, size=(7, problem.num_qubits)).astype(float)
        batch = problem.energies(states)
        assert batch.shape == (7,)
        for k in range(7):
            assert batch[k] == pytest.approx(problem.energy(states[k]), abs=1e-9)

    def test_batch_energies_rejects_wrong_rank(self, small_hardware):
        from repro.annealer.embedded import batch_energies

        clauses = [Clause([1, 2])]
        *_, problem = _compile(clauses, 2, small_hardware)
        with pytest.raises(ValueError):
            batch_energies(
                problem.linear, problem.couplings_csr, np.zeros(problem.num_qubits)
            )

    def test_couplings_csr_symmetric(self, small_hardware):
        clauses = [Clause([1, 2, 3])]
        *_, problem = _compile(clauses, 3, small_hardware)
        csr = problem.couplings_csr
        assert (abs(csr - csr.T)).max() == 0
        dense = csr.toarray()
        for i, j, w in problem.couplings:
            assert dense[i, j] == pytest.approx(w)
            assert dense[j, i] == pytest.approx(w)

    def test_chain_strength_recorded(self, small_hardware):
        clauses = [Clause([1, 2, 3])]
        *_, problem = _compile(clauses, 3, small_hardware, chain_strength=2.5)
        assert problem.chain_strength == 2.5


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_property_energy_equivalence_random(seed, ):
    from repro.topology.chimera import ChimeraGraph

    hardware = ChimeraGraph(8, 8, 4)
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    clauses = []
    for _ in range(int(rng.integers(1, 8))):
        width = int(rng.integers(1, min(3, n) + 1))
        vs = rng.choice(np.arange(1, n + 1), size=width, replace=False)
        clauses.append(Clause([int(v) if rng.integers(0, 2) else -int(v) for v in vs]))
    enc = encode_formula(clauses, n)
    norm_obj, _ = normalize(enc.objective)
    emb = HyQSatEmbedder(hardware).embed(enc)
    if not emb.success:
        return
    problem = build_embedded_problem(
        LogicalArrays.from_objective(norm_obj), emb.arrays, hardware, 1.5
    )
    # Coefficient cancellation can leave embedded chains whose variable
    # is absent from the objective: assign over the embedding's variables.
    variables = sorted(emb.embedding.variables)
    logical = {v: int(rng.integers(0, 2)) for v in variables}
    physical = np.array([logical[v] for v in problem.chain_of_index], dtype=float)
    assert problem.energy(physical) == pytest.approx(norm_obj.energy(logical), abs=1e-9)


class TestCompiledArrays:
    """The arrays the read-out uses, against the constructions they
    replace."""

    @staticmethod
    def _problems():
        from tests.annealer.test_sweep_kernel import HARDWARE

        from repro.benchgen.random_ksat import random_3sat
        from repro.core.frontend import Frontend

        formula = random_3sat(60, 250, np.random.default_rng(7))
        for name, make in sorted(HARDWARE.items()):
            prepared = Frontend(formula, make(), chain_strength=2.0).prepare(
                list(range(120))
            )
            yield name, prepared.request

    @staticmethod
    def _scipy_csr(n, rows, cols, weights):
        from scipy import sparse

        return sparse.coo_matrix(
            (
                np.concatenate([weights, weights]),
                (np.concatenate([rows, cols]), np.concatenate([cols, rows])),
            ),
            shape=(n, n),
        ).tocsr()

    def test_symmetric_csr_is_scipys_with_noisy_weights(self):
        from repro.annealer.embedded import symmetric_csr

        noise = np.random.default_rng(0)
        for _, request in self._problems():
            problem = request.compiled
            rows, cols, weights = problem.coupling_arrays
            weights = weights + noise.normal(0.0, 0.05, weights.shape)
            indptr, indices, data = symmetric_csr(
                problem.num_qubits, rows, cols, weights
            )
            expected = self._scipy_csr(problem.num_qubits, rows, cols, weights)
            assert indptr.dtype == expected.indptr.dtype
            assert indices.dtype == expected.indices.dtype
            assert np.array_equal(indptr, expected.indptr)
            assert np.array_equal(indices, expected.indices)
            assert data.tobytes() == expected.data.tobytes()

    def test_sweep_arrays_are_the_scipy_sums(self):
        """``c`` and ``scaled`` as the sampler computed them from its
        float32 scipy matrix, bit for bit, on compiled problems and on a
        complete graph whose rows hold 11 couplers."""
        from repro.annealer.embedded import EmbeddedProblem

        rng = np.random.default_rng(2)
        dense = EmbeddedProblem.from_couplings(
            qubits=tuple(range(12)),
            linear=rng.normal(size=12),
            couplings=[
                (i, j, float(rng.normal())) for i in range(12) for j in range(i + 1, 12)
            ],
            chain_of_index=tuple(range(12)),
        )
        problems = [(name, r.compiled) for name, r in self._problems()]
        for name, problem in problems + [("dense", dense)]:
            arrays = problem.programmed
            matrix = problem.couplings_csr.astype(np.float32)
            linear = problem.linear.astype(np.float32)
            c = linear + np.float32(0.5) * np.asarray(
                matrix.sum(axis=1), dtype=np.float32
            ).ravel()
            assert arrays.c.tobytes() == c.tobytes(), name
            assert arrays.scaled.tobytes() == (
                matrix.data * np.float32(-0.5)
            ).tobytes(), name

    def test_logical_terms_give_the_objective(self):
        """Dense bias and matrix as the dict objective fills them, and
        energies equal ``QuadraticObjective.energy`` by ``float.hex``."""
        rng = np.random.default_rng(1)
        for _, request in self._problems():
            objective = request.objective
            logical = request.compiled.logical
            order = sorted(objective.variables)
            assert logical.variables.tolist() == order
            index = {var: i for i, var in enumerate(order)}
            bias = np.zeros(len(order))
            matrix = np.zeros((len(order), len(order)))
            for var, coeff in objective.linear.items():
                bias[index[var]] = coeff
            for (u, v), coeff in objective.quadratic.items():
                matrix[index[u], index[v]] += coeff
                matrix[index[v], index[u]] += coeff
            assert logical.bias().tobytes() == bias.tobytes()
            assert logical.matrix().tobytes() == matrix.tobytes()
            for _ in range(20):
                state = rng.integers(0, 2, len(order)).astype(float)
                expected = objective.energy(
                    {var: int(state[i]) for var, i in index.items()}
                )
                assert logical.energy(state).hex() == expected.hex()

    def test_hand_built_chains_are_ordered_runs(self):
        from repro.annealer.embedded import EmbeddedProblem

        problem = EmbeddedProblem.from_couplings(
            qubits=(5, 6, 7), linear=[0.0, 1.0, 0.0],
            couplings=[(1, 2, 1.0), (0, 1, -1.0)], chain_of_index=(4, 4, 9),
        )
        assert problem.couplings == ((0, 1, -1.0), (1, 2, 1.0))
        assert problem.chain_of_index == (4, 4, 9)
        assert problem.chain_sizes.tolist() == [2, 1]
        for owners in [(1, 2, 1), (2, 2, 1)]:
            with pytest.raises(ValueError, match="ascending variable order"):
                EmbeddedProblem.from_couplings(
                    qubits=(0, 1, 2), linear=[0.0] * 3, couplings=(),
                    chain_of_index=owners,
                )
