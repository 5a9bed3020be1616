"""The array frontend against the dict pipeline it replaced.

The oracle below is the frontend as it was before the clause table:
each queued clause is conditioned into a ``Clause``, encoded into one
dict objective per sub-objective, re-weighted by the closed-form
Section IV-C scale over those dicts, embedded by the Section IV-B
scheme over ``Clause`` objects, summed dict by dict over the embedded
clauses, normalised, and compiled qubit by qubit.  It lives here only,
as the reference every prepared QA call must match bit for bit
(``float.hex``), dict key order included: ``QuadraticObjective.energy``
sums in that order.

Inputs are clause queues conditioned on real CDCL trails of every
benchgen family and of uniform random 3-SAT at 170 variables, each
prepared on C16, Chimera 8x8, Pegasus 8x8 and a C16 with broken
qubits; a last test runs whole hybrid solves with the oracle patched
into :class:`~repro.core.frontend.Frontend`.  Each test runs with the
frontend library (native conditioning, encode, coefficient adjustment,
embed, term sum and compile) as it loads, and its
``..._with_the_library_blocked`` twin with the NumPy and Python paths.
With the library loaded, every prepared call must also equal the
blocked one array for array (dtype, shape and ``float.hex``), the
compiled problem's float32 programmed arrays included; the edge cases
(narrow clauses only, d* = 0, the clamped s*, a coupler summing to 0.0
and the compile's two ``ValueError``s) are hand-built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

import numpy as np
import pytest
from scipy import sparse

import repro.core.frontend as frontend_module
from repro.annealer.device import AnnealerDevice, AnnealRequest
from repro.annealer.embedded import (
    EmbeddedProblem,
    ProgrammedArrays,
    build_embedded_problem,
)
from repro.benchgen import random_3sat
from repro.benchgen.suites import BENCHMARKS
from repro.cdcl import native
from repro.cdcl.engine import create_solver
from repro.cdcl.solver import SolverConfig
from repro.core.clause_queue import ClauseQueueGenerator
from repro.core.config import HyQSatConfig
from repro.core.frontend import Frontend
from repro.core.hyqsat import HyQSatSolver
from repro.embedding.base import Embedding, EmbeddingArrays
from repro.embedding.crl import ConnectionRequirementList
from repro.qubo.coefficients import adjust_coefficients
from repro.qubo.encoding import SubClauseObjective, encode_clause, encode_formula
from repro.qubo.ising import LogicalArrays, QuadraticObjective
from repro.sat.cnf import CNF, Clause, ClauseTable
from repro.topology.chimera import ChimeraGraph, QubitCoord
from repro.topology.pegasus import PegasusGraph

CHAIN_STRENGTH = 1.0

HARDWARE = {
    "c16": ChimeraGraph(16, 16, 4),
    "chimera8": ChimeraGraph(8, 8, 4),
    "pegasus8": PegasusGraph(8, 8, 4),
    "c16-broken": ChimeraGraph(
        16, 16, 4,
        broken_qubits=np.random.default_rng(5).choice(2048, 60, replace=False).tolist(),
    ),
}


# ----------------------------------------------------------------------
# The oracle: encode, adjust and sum over per-sub-objective dicts
# ----------------------------------------------------------------------


@dataclass
class DictEncoding:
    clauses: List[Clause]
    subs: List[SubClauseObjective]
    aux: List[Optional[int]]
    objective: QuadraticObjective


def dict_encode(clauses, num_vars, alphas=None, base=None) -> DictEncoding:
    """``encode_formula``, or with ``alphas`` ``with_coefficients``."""
    if base is None:
        subs, aux, next_aux = [], [], num_vars + 1
        for index, clause in enumerate(clauses):
            a = None
            if len(clause) == 3:
                a, next_aux = next_aux, next_aux + 1
            subs.extend(encode_clause(clause, a, clause_index=index))
            aux.append(a)
    else:
        subs = [
            SubClauseObjective(
                s.clause_index, s.part, s.objective,
                alphas.get((s.clause_index, s.part), s.coefficient),
            )
            for s in base.subs
        ]
        clauses, aux = base.clauses, base.aux
    total = QuadraticObjective()
    for sub in subs:
        total.add_objective(sub.objective, scale=sub.coefficient)
    return DictEncoding(list(clauses), subs, aux, total)


def dict_adjust(encoding: DictEncoding):
    """The closed-form Section IV-C adjustment over the dicts."""
    d_star = encoding.objective.d_star()
    alphas = {}
    for sub in encoding.subs:
        d_ij = sub.d_value()
        key = (sub.clause_index, sub.part)
        alphas[key] = 1.0 if d_ij <= 0.0 or d_star <= 0.0 else max(1.0, d_star / d_ij)
    if d_star > 0.0:
        limit = d_star * (1.0 + 1e-9)
        index, bound, term, source, coeff = {}, [], [], [], []
        for j, sub in enumerate(encoding.subs):
            objective = sub.objective
            for keys, width in ((objective.linear, 2.0), (objective.quadratic, 1.0)):
                for key, value in keys.items():
                    if key not in index:
                        index[key] = len(bound)
                        bound.append(width)
                    term.append(index[key])
                    source.append(j)
                    coeff.append(value)
        term, source = np.array(term, dtype=np.intp), np.array(source, dtype=np.intp)
        coeff, bound = np.array(coeff), np.array(bound)
        alpha = np.array([alphas[(s.clause_index, s.part)] for s in encoding.subs])
        raised = np.bincount(term, weights=alpha[source] * coeff, minlength=len(bound))
        if float(np.max(np.abs(raised) / bound)) > limit:
            a = np.bincount(term, weights=coeff, minlength=len(bound))
            b = np.bincount(
                term, weights=(alpha - 1.0)[source] * coeff, minlength=len(bound)
            )
            moving = b != 0.0
            s_star = 0.0
            if moving.any():
                room = bound[moving] * limit - np.sign(b[moving]) * a[moving]
                s_star = float(np.min(room / np.abs(b[moving])))
            steps = 1 << 30
            scale = min(max(math.floor(s_star * steps), 0), steps - 1) / steps
            alphas = {k: 1.0 + scale * (v - 1.0) for k, v in alphas.items()}
    return dict_encode(None, None, alphas, base=encoding), d_star, alphas


def dict_embedded_objective(encoding: DictEncoding, embedded) -> QuadraticObjective:
    keep = set(embedded)
    total = QuadraticObjective()
    for sub in encoding.subs:
        if sub.clause_index in keep:
            total.add_objective(sub.objective, scale=sub.coefficient)
    return total


def dict_normalize(objective: QuadraticObjective):
    """Eq. 6: scale by ``1.0 / d*`` (a product, not a division)."""
    d_star = objective.d_star()
    if d_star <= 1.0:
        return objective.copy(), 1.0
    return QuadraticObjective().add_objective(objective, scale=1.0 / d_star), d_star


# ----------------------------------------------------------------------
# The oracle embedder (Section IV-B over Clause objects)
# ----------------------------------------------------------------------


def _norm(u, v):
    return (u, v) if u < v else (v, u)


def _requirements(encoding: DictEncoding, k):
    variables = [lit.var for lit in encoding.clauses[k].lits]
    if len(variables) == 1:
        return []
    if len(variables) == 2:
        return [(variables[0], variables[1])]
    v1, v2, v3 = variables
    a = encoding.aux[k]
    return [(v1, v2), (a, v1), (a, v2), (a, v3)]


def dict_embed(encoding: DictEncoding, hw: ChimeraGraph):
    """``(embedding, edge_couplers, embedded, unembedded)``."""
    vlines = [(col, unit) for col in range(hw.cols) for unit in range(hw.shore)]
    hlines = [
        (row, unit) for row in range(hw.rows - 1, -1, -1) for unit in range(hw.shore)
    ]
    line_of: Dict[int, Tuple[int, int]] = {}
    crl = ConnectionRequirementList()
    candidates = []
    for k, clause in enumerate(encoding.clauses):
        new = [lit.var for lit in clause.lits if lit.var not in line_of]
        if len(line_of) + len(new) > len(vlines):
            break
        for var in new:
            line_of[var] = vlines[len(line_of)]
        for owner, target in _requirements(encoding, k):
            crl.add(owner, target, k)
        candidates.append(k)

    free: Dict[Tuple[int, int], List[bool]] = {}
    segments = []
    rows_of: Dict[int, Set[int]] = {var: set() for var in line_of}
    realized: Dict[Tuple[int, int], list] = {}

    def span(owner, targets):
        cols = []
        if owner in line_of:
            cols.append(line_of[owner][0])
        elif owner <= 0:
            return None
        for target in targets:
            if target not in line_of:
                return None
            cols.append(line_of[target][0])
        return (min(cols), max(cols)) if cols else None

    def take(owner, targets, line, c1, c2):
        cells = free.setdefault(line, [True] * hw.cols)
        if not all(cells[c] for c in range(c1, c2 + 1)):
            return False
        for c in range(c1, c2 + 1):
            cells[c] = False
        segments.append((owner, line, c1, c2))
        for target in targets:
            col, unit = line_of[target]
            vq = hw.qubit_id(QubitCoord(line[0], col, 0, unit))
            hq = hw.qubit_id(QubitCoord(line[0], col, 1, line[1]))
            realized.setdefault(_norm(owner, target), []).append((hq, vq))
            rows_of[target].add(line[0])
        if owner in line_of:
            rows_of[owner].add(line[0])
        return True

    pending = [(o, crl.targets_of(o)) for o in crl.owners()]
    for line in hlines:
        if not pending:
            break
        still = []
        for owner, targets in pending:
            s = span(owner, targets)
            if s is None or not take(owner, targets, line, *s):
                still.append((owner, targets))
        pending = still
    for owner, targets in pending:
        if owner not in line_of:
            continue
        for target in targets:
            s = span(owner, [target])
            if s is not None:
                any(take(owner, [target], line, *s) for line in hlines)

    def hqubits(line, c1, c2):
        row, unit = line
        return [hw.qubit_id(QubitCoord(row, c, 1, unit)) for c in range(c1, c2 + 1)]

    embedding = Embedding()
    owned: Dict[int, list] = {}
    for seg in segments:
        owned.setdefault(seg[0], []).append(seg)
    for var, (col, unit) in line_of.items():
        rows = rows_of[var] or {hw.rows - 1}
        qubits = [
            hw.qubit_id(QubitCoord(r, col, 0, unit))
            for r in range(min(rows), max(rows) + 1)
        ]
        for _, line, c1, c2 in owned.get(var, []):
            qubits.extend(hqubits(line, c1, c2))
        embedding.set_chain(var, qubits)
    for owner, segs in owned.items():
        if owner not in line_of:
            embedding.set_chain(
                owner, [q for _, l, c1, c2 in segs for q in hqubits(l, c1, c2)]
            )

    embedded, unembedded = [], list(range(len(candidates), len(encoding.clauses)))
    for k in candidates:
        a = encoding.aux[k]
        ok = all(realized.get(_norm(o, t)) for o, t in _requirements(encoding, k))
        if ok and (a is None or a in embedding):
            embedded.append(k)
        else:
            unembedded.append(k)
    dropped = {encoding.aux[k] for k in unembedded if encoding.aux[k] is not None}
    if dropped:
        embedding = embedding.restricted_to(
            v for v in embedding.variables if v not in dropped
        )
    edge_couplers = {e: tuple(c) for e, c in realized.items()}
    return embedding, edge_couplers, embedded, sorted(unembedded)


# ----------------------------------------------------------------------
# The oracle compiler (qubit by qubit)
# ----------------------------------------------------------------------


def dict_compile(objective, embedding, hw, edge_couplers, chain_strength):
    qubits, index_of, chain_of_index = [], {}, []
    for var in embedding.variables:
        for qubit in embedding.chain_of(var):
            index_of[qubit] = len(qubits)
            qubits.append(qubit)
            chain_of_index.append(var)
    linear = np.zeros(len(qubits))
    acc: Dict[Tuple[int, int], float] = {}

    def add(i, j, w):
        key = (i, j) if i < j else (j, i)
        acc[key] = acc.get(key, 0.0) + w

    for var, bias in objective.linear.items():
        chain = embedding.chain_of(var)
        for qubit in chain:
            linear[index_of[qubit]] += bias / len(chain)
    for (u, v), weight in objective.quadratic.items():
        couplers = list(edge_couplers.get(_norm(u, v), ()))
        for qa, qb in couplers:
            add(index_of[qa], index_of[qb], weight / len(couplers))
    chain_edges = []
    for var in embedding.variables:
        chain = embedding.chain_of(var)
        members = set(chain)
        for qubit in chain:
            for other in hw.neighbors(qubit):
                if other in members and qubit < other:
                    i, j = index_of[qubit], index_of[other]
                    linear[i] += chain_strength
                    linear[j] += chain_strength
                    add(i, j, -2.0 * chain_strength)
                    chain_edges.append((min(i, j), max(i, j)))
    couplings = tuple((i, j, w) for (i, j), w in sorted(acc.items()) if w != 0.0)
    chain_edges = tuple(sorted(set(chain_edges)))
    return qubits, linear, couplings, chain_edges, tuple(chain_of_index)


@dataclass
class OraclePrepared:
    encoding: DictEncoding
    alphas: Dict[Tuple[int, int], float]
    adjust_d_star: float
    formula_clauses: Tuple[int, ...]
    embedded: List[int]
    normalized: QuadraticObjective
    d_star: float
    embedding: Embedding
    edge_couplers: dict
    compiled: tuple


def oracle_prepare(
    formula, hw, queue, assignment, chain_strength=CHAIN_STRENGTH
) -> Optional[OraclePrepared]:
    clauses, kept = [], []
    for i in queue:
        residual = [lit for lit in formula.clauses[i].lits if lit.var not in assignment]
        if residual:
            clauses.append(Clause(residual))
            kept.append(i)
    if not clauses:
        return None
    encoding, adjust_d_star, alphas = dict_adjust(
        dict_encode(clauses, formula.num_vars)
    )
    embedding, edge_couplers, embedded, _ = dict_embed(encoding, hw)
    if not embedded:
        return None
    normalized, d_star = dict_normalize(dict_embedded_objective(encoding, embedded))
    if not normalized.variables:
        return None
    compiled = dict_compile(normalized, embedding, hw, edge_couplers, chain_strength)
    return OraclePrepared(
        encoding, alphas, adjust_d_star, tuple(kept[k] for k in embedded), embedded,
        normalized, d_star, embedding, edge_couplers, compiled,
    )


# ----------------------------------------------------------------------
# Inputs and the comparison
# ----------------------------------------------------------------------


def trail_queues(formula, seed, snapshots, every=7, capacity=192):
    """``(queue, trail)`` pairs from a real CDCL search of ``formula``."""
    generator = ClauseQueueGenerator(formula, seed=seed)
    out = []

    class Snapshot:
        def on_iteration(self, solver):
            if len(out) < snapshots and solver.stats.iterations % every == 0:
                unsat = solver.unsatisfied_original_clauses()
                if unsat:
                    queue = generator.generate(
                        list(solver.counters.activity), capacity, candidates=unsat
                    )
                    out.append((queue, solver.current_assignment()))
            return None

    create_solver(formula, config=SolverConfig(seed=seed, max_conflicts=300)).solve(
        hook=Snapshot()
    )
    return out


def _hexes(values):
    return [float(v).hex() for v in values]


def _objective_view(objective):
    return (
        objective.offset.hex(),
        [(k, v.hex()) for k, v in objective.linear.items()],
        [(k, v.hex()) for k, v in objective.quadratic.items()],
    )


_ADJUST = frontend_module.adjust_coefficients


def assert_matches_oracle(formula, hw, queue, assignment, monkeypatch) -> bool:
    """Prepare one call both ways; True when something was embedded."""
    adjusted = []
    monkeypatch.setattr(
        frontend_module,
        "adjust_coefficients",
        lambda encoding: adjusted.append(_ADJUST(encoding)) or adjusted[-1],
    )
    result = Frontend(formula, hw, cache_size=0, chain_strength=CHAIN_STRENGTH).prepare(
        queue, assignment
    )
    expected = oracle_prepare(formula, hw, queue, assignment)
    if expected is None:
        assert result is None
        return False
    (adjustment,) = adjusted
    assert list(adjustment.alphas) == list(expected.alphas)
    assert _hexes(adjustment.alphas.values()) == _hexes(expected.alphas.values())
    assert _hexes(result.encoding.alpha) == _hexes(expected.alphas.values())
    assert adjustment.d_star.hex() == expected.adjust_d_star.hex()
    assert result.formula_clauses == expected.formula_clauses
    assert list(result.embedding_result.embedded_clauses) == expected.embedded
    request = result.request
    assert request.energy_scale.hex() == expected.d_star.hex()
    assert _objective_view(request.objective) == _objective_view(expected.normalized)
    chains = request.embedding.chains
    assert list(chains.items()) == list(expected.embedding.chains.items())
    assert list(request.edge_couplers.items()) == list(expected.edge_couplers.items())
    qubits, linear, couplings, chain_edges, chain_of_index = expected.compiled
    compiled = request.compiled
    assert list(compiled.qubits) == qubits
    assert _hexes(compiled.linear) == _hexes(linear)
    rows_i, rows_j, weights = compiled.coupling_arrays
    assert rows_i.tolist() == [c[0] for c in couplings]
    assert rows_j.tolist() == [c[1] for c in couplings]
    assert _hexes(weights) == _hexes(c[2] for c in couplings)
    assert compiled.chain_edges == chain_edges
    assert compiled.chain_of_index == chain_of_index
    # The symmetric CSR the sweeps read: scipy's, whose row order the
    # kernel's float32 sums follow.
    csr, expected_csr = compiled.couplings_csr, _scipy_csr(len(qubits), couplings)
    for name in ("indptr", "indices"):
        ours, theirs = getattr(csr, name), getattr(expected_csr, name)
        assert ours.dtype == theirs.dtype and ours.tolist() == theirs.tolist()
    assert _hexes(csr.data) == _hexes(expected_csr.data)
    return True


def _scipy_csr(n, couplings):
    rows = [c[0] for c in couplings] + [c[1] for c in couplings]
    cols = [c[1] for c in couplings] + [c[0] for c in couplings]
    weights = [c[2] for c in couplings] * 2
    return sparse.coo_matrix((weights, (rows, cols)), shape=(n, n)).tocsr()


def _block_library(monkeypatch):
    monkeypatch.setattr(native, "load_frontend_kernel", lambda: None)


def _family_queues_match(family, monkeypatch):
    formula = BENCHMARKS[family].generate(0, seed=0)
    queues = trail_queues(formula, seed=1, snapshots=3)
    assert queues, f"{family}: the search left no queue"
    embedded = [
        assert_matches_oracle(formula, hw, queue, trail, monkeypatch)
        for hw in HARDWARE.values()
        for queue, trail in queues
    ]
    assert any(embedded)


def _uf170_queues_match(seed, monkeypatch):
    formula = random_3sat(170, 724, np.random.default_rng(seed))
    queues = trail_queues(formula, seed=seed, snapshots=2)
    assert all(len(queue) == 192 for queue, _ in queues)
    for hw in HARDWARE.values():
        for queue, trail in queues:
            assert assert_matches_oracle(formula, hw, queue, trail, monkeypatch)


@pytest.mark.parametrize("family", sorted(BENCHMARKS))
def test_family_queues_match_the_dict_pipeline(family, monkeypatch):
    _family_queues_match(family, monkeypatch)


@pytest.mark.parametrize("family", sorted(BENCHMARKS))
def test_family_queues_match_with_the_library_blocked(family, monkeypatch):
    _block_library(monkeypatch)
    _family_queues_match(family, monkeypatch)


@pytest.mark.parametrize("seed", range(2))
def test_uf170_queues_match_the_dict_pipeline(seed, monkeypatch):
    _uf170_queues_match(seed, monkeypatch)


@pytest.mark.parametrize("seed", range(2))
def test_uf170_queues_match_with_the_library_blocked(seed, monkeypatch):
    _block_library(monkeypatch)
    _uf170_queues_match(seed, monkeypatch)


# ----------------------------------------------------------------------
# Whole solves with the oracle inside the frontend
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _OracleResult:
    request: AnnealRequest
    formula_clauses: Tuple[int, ...]
    embedded_variables: Tuple[int, ...]
    elapsed_seconds: float

    @property
    def num_embedded(self):
        return len(self.formula_clauses)


def _oracle_prepare_uncached(self, queue, assignment, start, state):
    prepared = oracle_prepare(
        self.formula, self.hardware, queue, assignment or {}, self.chain_strength
    )
    if prepared is None:
        return None
    qubits, linear, couplings, chain_edges, chain_of_index = prepared.compiled
    compiled = EmbeddedProblem.from_couplings(
        qubits=tuple(qubits), linear=linear, couplings=couplings,
        chain_edges=chain_edges, chain_of_index=chain_of_index,
        offset=prepared.normalized.offset, chain_strength=self.chain_strength,
    )
    variables = set()
    for k in prepared.embedded:
        variables.update(prepared.encoding.clauses[k].variables)
    request = AnnealRequest(
        objective=prepared.normalized, embedding=prepared.embedding,
        edge_couplers=prepared.edge_couplers, energy_scale=prepared.d_star,
        num_reads=self.num_reads, compiled=compiled,
    )
    return _OracleResult(
        request, prepared.formula_clauses, tuple(sorted(variables)), 0.0
    )


def _solve_record(formula, seed, monkeypatch, oracle):
    energies = []
    run = AnnealerDevice.run

    def recording(device, request):
        result = run(device, request)
        energies.append(_hexes(result.energies))
        return result

    with monkeypatch.context() as patch:
        if oracle:
            patch.setattr(Frontend, "_prepare_uncached", _oracle_prepare_uncached)
        patch.setattr(AnnealerDevice, "run", recording)
        solver = HyQSatSolver(
            formula,
            device=AnnealerDevice(seed=seed),
            config=HyQSatConfig(seed=seed),
            solver_config=SolverConfig(seed=seed),
        )
        result = solver.solve()
    hybrid = result.hybrid
    return (
        result.status, dict(result.model.items()) if result.model else None,
        result.stats.conflicts, hybrid.qa_calls, energies,
        {str(k): v for k, v in hybrid.strategy_counts.items()},
    )


def _whole_solves_match(num_vars, seed, monkeypatch):
    formula = random_3sat(num_vars, round(num_vars * 4.26), np.random.default_rng(seed))
    array = _solve_record(formula, seed, monkeypatch, oracle=False)
    oracle = _solve_record(formula, seed, monkeypatch, oracle=True)
    assert array[3] > 0
    assert array == oracle


@pytest.mark.parametrize("num_vars,seed", [(50, 1), (75, 2), (100, 3)])
def test_whole_solves_match_with_the_oracle_frontend(num_vars, seed, monkeypatch):
    _whole_solves_match(num_vars, seed, monkeypatch)


@pytest.mark.parametrize("num_vars,seed", [(50, 1), (75, 2), (100, 3)])
def test_whole_solves_match_with_the_library_blocked(num_vars, seed, monkeypatch):
    _block_library(monkeypatch)
    _whole_solves_match(num_vars, seed, monkeypatch)


# ----------------------------------------------------------------------
# The library against its NumPy twins, array for array
# ----------------------------------------------------------------------


def _arrays(*arrays):
    """Each array's dtype, shape and values (floats by ``float.hex``)."""
    return [
        (a.dtype.str, a.shape, [float(v).hex() for v in a.ravel().tolist()])
        for a in arrays
    ]


def _prepared_arrays(result):
    """Every array a prepared call holds, its programmed forms included."""
    if result is None:
        return None
    encoding, compiled = result.encoding, result.request.compiled
    return (
        result.formula_clauses,
        result.embedded_variables,
        _arrays(encoding.clauses.lits, encoding.aux, encoding.alpha, *encoding.layout),
        _arrays(
            compiled.qubit_ids, compiled.linear, compiled.indptr, compiled.indices,
            compiled.data, compiled.chain_variables, compiled.chain_starts,
            compiled.chain_couplers,
        ),
        _arrays(*compiled.programmed),
    )


def _twins_match(formula, queues, monkeypatch):
    """Prepare each call with the library and with it blocked."""
    if native.load_frontend_kernel() is None:
        pytest.skip("no C compiler for the frontend library")
    embedded = 0
    for hw in HARDWARE.values():
        for queue, trail in queues:
            frontend = Frontend(formula, hw, cache_size=0, chain_strength=CHAIN_STRENGTH)
            ours = frontend.prepare(queue, trail)
            if ours is not None:
                # The library filled in the programmed arrays; NumPy
                # builds the same from the problem's own.
                compiled = ours.request.compiled
                assert _arrays(*compiled.programmed) == _arrays(
                    *ProgrammedArrays.build(
                        compiled.linear, compiled.indptr, compiled.indices,
                        compiled.data,
                    )
                )
                embedded += 1
            with monkeypatch.context() as patch:
                _block_library(patch)
                theirs = frontend.prepare(queue, trail)
            assert _prepared_arrays(ours) == _prepared_arrays(theirs)
    assert embedded


@pytest.mark.parametrize("family", ["BP", "CRY", "GC1", "II"])
def test_family_queues_match_the_numpy_twins(family, monkeypatch):
    formula = BENCHMARKS[family].generate(0, seed=0)
    _twins_match(formula, trail_queues(formula, seed=1, snapshots=3), monkeypatch)


def test_uf170_queues_match_the_numpy_twins(monkeypatch):
    formula = random_3sat(170, 724, np.random.default_rng(0))
    _twins_match(formula, trail_queues(formula, seed=0, snapshots=2), monkeypatch)


# ----------------------------------------------------------------------
# Hand-built edge cases, with the library loaded and blocked
# ----------------------------------------------------------------------


def _narrow_queue_matches(monkeypatch):
    """Width-1 and width-2 clauses only: no auxiliary anywhere."""
    formula = CNF([[1, -2], [2, 3], [-4], [3, -4], [4, 1], [5], [-5, 6]])
    for hw in HARDWARE.values():
        assert assert_matches_oracle(
            formula, hw, list(range(formula.num_clauses)), {}, monkeypatch
        )
        assert assert_matches_oracle(formula, hw, [0, 1, 3, 6], {2: True}, monkeypatch)
    encoding = encode_formula(formula.table, formula.num_vars)
    assert not encoding.aux.any()


def test_narrow_queue_matches_the_dict_pipeline(monkeypatch):
    _narrow_queue_matches(monkeypatch)


def test_narrow_queue_matches_with_the_library_blocked(monkeypatch):
    _block_library(monkeypatch)
    _narrow_queue_matches(monkeypatch)


def _adjust_matches_oracle(clauses, num_vars, alpha_in):
    """Adjust an encoding at coefficients ``alpha_in``; returns its α."""
    encoding = encode_formula(ClauseTable.of(clauses), num_vars)
    base = dict_encode(clauses, num_vars)
    if alpha_in is not None:
        encoding = encoding.with_coefficients(np.array(alpha_in))
        base = dict_encode(
            None, None, dict(zip(encoding.sub_keys, alpha_in)), base=base
        )
    adjustment = adjust_coefficients(encoding)
    _, d_star, alphas = dict_adjust(base)
    assert adjustment.d_star.hex() == d_star.hex()
    assert list(adjustment.alphas) == list(alphas)
    assert _hexes(adjustment.encoding.alpha) == _hexes(alphas.values())
    return adjustment


def _zero_d_star_matches(monkeypatch):
    """x1 and not x1: every summed coefficient cancels, so d* = 0 and
    nothing is raised; the frontend then skips the call."""
    clauses = [Clause([1]), Clause([-1])]
    adjustment = _adjust_matches_oracle(clauses, 1, None)
    assert adjustment.d_star == 0.0
    assert adjustment.encoding.alpha.tolist() == [1.0, 1.0]
    formula = CNF([[1], [-1]])
    assert Frontend(formula, HARDWARE["c16"], cache_size=0).prepare([0, 1]) is None
    assert oracle_prepare(formula, HARDWARE["c16"], [0, 1], {}) is None


def test_zero_d_star_matches_the_dict_pipeline(monkeypatch):
    _zero_d_star_matches(monkeypatch)


def test_zero_d_star_matches_with_the_library_blocked(monkeypatch):
    _block_library(monkeypatch)
    _zero_d_star_matches(monkeypatch)


def _clamped_scale_matches(monkeypatch):
    """The s* branch with s* above 1: (x1 or x2 or x3) at α 0.5 on its
    first part keeps d* at 1, so its (aux, x1) sum -2 overshoots at any
    scale, while the unit clause x7's only term has room for s* ~ 1.
    The scale is clamped to 1 - 2^-30."""
    clauses = [Clause([1, 2, 3]), Clause([7])]
    adjustment = _adjust_matches_oracle(clauses, 7, [0.5, 1.0, 1.0])
    assert adjustment.d_star == 1.0
    assert adjustment.encoding.alpha.tolist() == [1.0, 1.0, 2.0 - 2.0**-30]


def test_clamped_scale_matches_the_dict_pipeline(monkeypatch):
    _clamped_scale_matches(monkeypatch)


def test_clamped_scale_matches_with_the_library_blocked(monkeypatch):
    _block_library(monkeypatch)
    _clamped_scale_matches(monkeypatch)


def _placement(chains, edge_couplers):
    return EmbeddingArrays.from_embedding(Embedding(chains), edge_couplers)


def _cancelling_coupler_matches(monkeypatch):
    """A problem coupler listed inside chain 1, where its weight 1.0 and
    the chain penalty -2 * 0.5 sum to exactly 0.0: it leaves the CSR
    (and the dict compile's couplings) but stays a chain coupler."""
    hw = HARDWARE["c16"]
    objective = QuadraticObjective(0.5, {1: 0.25, 2: -1.0}, {(1, 2): 1.0})
    embedding = Embedding({1: [0, 4], 2: [1]})
    edge_couplers = {(1, 2): ((0, 4),)}
    problem = build_embedded_problem(
        LogicalArrays.from_objective(objective),
        _placement({1: [0, 4], 2: [1]}, edge_couplers),
        hw,
        chain_strength=0.5,
    )
    qubits, linear, couplings, chain_edges, chain_of_index = dict_compile(
        objective, embedding, hw, edge_couplers, 0.5
    )
    assert list(problem.qubits) == qubits
    assert _hexes(problem.linear) == _hexes(linear)
    assert [(i, j, w.hex()) for i, j, w in problem.couplings] == [
        (i, j, w.hex()) for i, j, w in couplings
    ]
    # Qubits 0 and 4 are indices 0 and 1: a chain coupler, and no
    # coupling left at all.
    assert problem.chain_edges == chain_edges == ((0, 1),)
    assert problem.couplings == couplings == ()
    assert problem.chain_of_index == chain_of_index
    assert problem.indptr.tolist() == [0, 0, 0, 0]
    assert _arrays(*problem.programmed) == _arrays(
        *ProgrammedArrays.build(
            problem.linear, problem.indptr, problem.indices, problem.data
        )
    )


def test_cancelling_coupler_leaves_the_csr(monkeypatch):
    _cancelling_coupler_matches(monkeypatch)


def test_cancelling_coupler_leaves_the_csr_with_the_library_blocked(monkeypatch):
    _block_library(monkeypatch)
    _cancelling_coupler_matches(monkeypatch)


def _compile_errors_match(monkeypatch):
    hw = HARDWARE["c16"]
    placement = _placement({1: [0], 2: [4]}, {(1, 2): ((4, 0),)})
    unembedded = QuadraticObjective(0.0, {1: 1.0, 3: -1.0}, {(1, 3): 0.5})
    with pytest.raises(ValueError, match=r"^objective variables not embedded: \[3\]$"):
        build_embedded_problem(LogicalArrays.from_objective(unembedded), placement, hw)
    no_coupler = QuadraticObjective(0.0, {1: 1.0}, {(1, 2): 0.5})
    bare = _placement({1: [0], 2: [4]}, {})
    with pytest.raises(
        ValueError, match=r"^no hardware coupler realises problem edge \(1, 2\)$"
    ):
        build_embedded_problem(LogicalArrays.from_objective(no_coupler), bare, hw)


def test_compile_errors_match(monkeypatch):
    _compile_errors_match(monkeypatch)


def test_compile_errors_match_with_the_library_blocked(monkeypatch):
    _block_library(monkeypatch)
    _compile_errors_match(monkeypatch)
