"""Tests for logical greedy descent (multi-qubit correction)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.annealer.postprocess import LogicalDescender, logical_greedy_descent
from repro.cdcl import native
from repro.qubo.ising import QuadraticObjective
from repro.sat.assignment import Assignment


def test_descends_single_variable():
    obj = QuadraticObjective(linear={1: -2.0})
    start = Assignment({1: False})
    out, energy = logical_greedy_descent(obj, start, np.random.default_rng(0))
    assert out[1] is True
    assert energy == -2.0
    assert start[1] is False  # input untouched


def test_already_minimal_unchanged():
    obj = QuadraticObjective(linear={1: 1.0})
    out, energy = logical_greedy_descent(
        obj, Assignment({1: False}), np.random.default_rng(0)
    )
    assert out[1] is False
    assert energy == 0.0


def test_missing_variables_default_false():
    obj = QuadraticObjective(linear={1: 1.0, 2: -1.0})
    out, energy = logical_greedy_descent(obj, Assignment(), np.random.default_rng(0))
    assert out[2] is True
    assert energy == -1.0


def test_empty_objective():
    out, energy = logical_greedy_descent(
        QuadraticObjective(offset=3.0), Assignment(), np.random.default_rng(0)
    )
    assert energy == 3.0


def _random_objective(rng, n):
    obj = QuadraticObjective(offset=float(rng.normal()))
    for v in range(1, n + 1):
        obj.add_linear(v, float(rng.normal()))
    for _ in range(n):
        u, v = rng.choice(np.arange(1, n + 1), size=2, replace=False)
        obj.add_quadratic(int(u), int(v), float(rng.normal()))
    return obj


class TestLogicalDescender:
    """The precompiled-arrays descent engine the device reuses per
    request."""

    def test_energy_of_matches_objective(self):
        rng = np.random.default_rng(2)
        obj = _random_objective(rng, 6)
        descender = LogicalDescender(obj)
        for _ in range(8):
            bits = {v: int(rng.integers(0, 2)) for v in descender.order}
            state = np.array([bits[v] for v in descender.order], dtype=float)
            assert descender.energy_of(state) == pytest.approx(obj.energy(bits))

    def test_batch_energies_match_single(self):
        rng = np.random.default_rng(3)
        obj = _random_objective(rng, 5)
        descender = LogicalDescender(obj)
        states = rng.integers(0, 2, size=(6, descender.num_variables)).astype(float)
        batch = descender.energies(states)
        for k in range(6):
            assert batch[k] == pytest.approx(descender.energy_of(states[k]))

    def test_state_roundtrip(self):
        obj = QuadraticObjective(linear={1: 1.0, 3: -1.0})
        descender = LogicalDescender(obj)
        state = descender.state_of(Assignment({1: True, 3: False}))
        assert list(state) == [1.0, 0.0]

    def test_descend_equals_wrapper(self):
        rng_obj = np.random.default_rng(4)
        obj = _random_objective(rng_obj, 6)
        start = Assignment({v: bool(rng_obj.integers(0, 2)) for v in range(1, 7)})
        out_a, e_a = LogicalDescender(obj).descend(
            start, np.random.default_rng(9)
        )
        out_b, e_b = logical_greedy_descent(obj, start, np.random.default_rng(9))
        assert e_a == pytest.approx(e_b)
        assert all(out_a[v] == out_b[v] for v in range(1, 7))


@pytest.mark.skipif(
    native.load_sweep_kernel() is None, reason="no C compiler for the read-out library"
)
def test_native_pass_equals_the_python_pass(monkeypatch):
    """Descents with the read-out library loaded and blocked: equal
    assignments (key order included), energies by ``float.hex`` and
    generator states."""
    for seed in range(40):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 40))
        obj = _random_objective(rng, n)
        start = Assignment({v: bool(rng.integers(0, 2)) for v in range(1, n + 1)})
        outcomes = []
        for blocked in (False, True):
            with monkeypatch.context() as patch:
                if blocked:
                    patch.setattr(native, "load_sweep_kernel", lambda: None)
                draws = np.random.default_rng(100 + seed)
                out, energy = LogicalDescender(obj).descend(start, draws)
            outcomes.append(
                (list(out.items()), energy.hex(), draws.bit_generator.state)
            )
        assert outcomes[0] == outcomes[1]
        # The energy is the objective's own sum, in its dict order.
        values = {v: int(outcomes[0][0][v - 1][1]) for v in range(1, n + 1)}
        assert outcomes[0][1] == obj.energy(values).hex()


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_property_never_increases_energy(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 8))
    obj = QuadraticObjective()
    for v in range(1, n + 1):
        obj.add_linear(v, float(rng.normal()))
    for _ in range(n):
        u, v = rng.choice(np.arange(1, n + 1), size=2, replace=False)
        obj.add_quadratic(int(u), int(v), float(rng.normal()))
    start = Assignment({v: bool(rng.integers(0, 2)) for v in range(1, n + 1)})
    start_energy = obj.energy({v: int(start[v]) for v in range(1, n + 1)})
    out, energy = logical_greedy_descent(obj, start, rng)
    assert energy <= start_energy + 1e-9


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_property_reaches_local_minimum(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    obj = QuadraticObjective()
    for v in range(1, n + 1):
        obj.add_linear(v, float(rng.normal()))
    start = Assignment({v: bool(rng.integers(0, 2)) for v in range(1, n + 1)})
    out, energy = logical_greedy_descent(obj, start, rng)
    # No single flip improves.
    for v in range(1, n + 1):
        flipped = out.copy()
        flipped.assign(v, not out[v])
        flipped_energy = obj.energy({u: int(flipped[u]) for u in range(1, n + 1)})
        assert flipped_energy >= energy - 1e-9
