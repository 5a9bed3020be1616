"""One device call with the sweep library loaded against its oracle.

``AnnealerDevice.run`` reads a compiled problem out natively when
:func:`repro.cdcl.native.load_sweep_kernel` returns the library, and
through the NumPy/Python read-out when it returns ``None``.  Both must
return the same :class:`~repro.annealer.device.AnnealResult`, bit for
bit: assignments (values and key order), energies and chain-break
fractions by ``float.hex``, modelled time and dropped reads, and the
same faults with the same partial reads.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.annealer.device import AnnealerDevice
from repro.annealer.faults import DeviceFault, FaultModel, ReadoutTimeout
from repro.annealer.noise import NoiseModel
from repro.annealer.sampler import SamplerConfig, SimulatedAnnealingSampler
from repro.annealer.unembed import majority_vote_unembed
from repro.benchgen import random_3sat
from repro.benchgen.suites import BENCHMARKS
from repro.cdcl.solver import SolverConfig
from repro.core.config import HyQSatConfig
from repro.core.frontend import Frontend
from repro.core.hyqsat import HyQSatSolver
from tests.annealer.test_sweep_kernel import (
    HARDWARE,
    NOISE,
    SHAPES,
    needs_sweep_kernel,
    numpy_only,
)

#: The frontend's precompile strength; a device at any other strength
#: compiles the request itself.
CHAIN_STRENGTH = 2.0


@pytest.fixture(scope="module")
def requests():
    """One prepared request per hardware, as the hybrid solver builds it."""
    formula = random_3sat(60, 250, np.random.default_rng(7))
    out = {}
    for name, make in HARDWARE.items():
        hardware = make()
        prepared = Frontend(
            formula, hardware, chain_strength=CHAIN_STRENGTH
        ).prepare(list(range(120)))
        out[name] = (hardware, prepared.request)
    return out


def _sample_view(sample):
    return (
        tuple(sample.assignment.items()),
        float(sample.energy).hex(),
        float(sample.chain_break_fraction).hex(),
    )


def _calls(make_device, request, calls):
    """``calls`` runs of one device: each result, or the fault raised
    with the reads it salvaged."""
    device = make_device()
    out = []
    for _ in range(calls):
        try:
            result = device.run(request)
        except DeviceFault as fault:
            partial = getattr(fault, "partial", ())
            out.append(
                (type(fault).__name__, str(fault), tuple(map(_sample_view, partial)))
            )
            if isinstance(fault, ReadoutTimeout):
                continue
            device.recalibrate()
            continue
        out.append(
            (
                tuple(map(_sample_view, result.samples)),
                float(result.qpu_time_us).hex(),
                result.dropped_reads,
            )
        )
    return out


def _both_ways(make_device, request, calls, monkeypatch):
    loaded = _calls(make_device, request, calls)
    with monkeypatch.context() as patch:
        numpy_only(patch)
        blocked = _calls(make_device, request, calls)
    return loaded, blocked


@needs_sweep_kernel
@pytest.mark.parametrize("hardware", sorted(HARDWARE))
@pytest.mark.parametrize("noise", sorted(NOISE))
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_device_results_equal_with_the_kernel_blocked(
    requests, hardware, noise, shape, monkeypatch
):
    graph, request = requests[hardware]
    num_reads, restarts = shape

    def make_device():
        return AnnealerDevice(
            graph,
            noise=NOISE[noise],
            sampler_config=SamplerConfig(num_restarts=restarts),
            chain_strength=CHAIN_STRENGTH,
            seed=11,
        )

    request = dataclasses.replace(request, num_reads=num_reads)
    loaded, blocked = _both_ways(make_device, request, 2, monkeypatch)
    assert loaded == blocked


@needs_sweep_kernel
@pytest.mark.parametrize("hardware", sorted(HARDWARE))
def test_device_compiled_request(requests, hardware, monkeypatch):
    """A problem the device compiles itself (its chain strength
    differs from the precompiled one)."""
    graph, request = requests[hardware]

    def make_device():
        return AnnealerDevice(graph, chain_strength=1.0, seed=5)

    loaded, blocked = _both_ways(
        make_device, dataclasses.replace(request, num_reads=3), 3, monkeypatch
    )
    assert loaded == blocked


@needs_sweep_kernel
@pytest.mark.parametrize("hardware", ["c16", "pegasus8"])
def test_with_drift_and_dropped_reads(requests, hardware, monkeypatch):
    """Sub-threshold drift shifts the programmed biases; timeouts and
    dropouts cut reads.  Faults, partial reads and results agree."""
    graph, request = requests[hardware]
    faults = FaultModel(
        readout_timeout_prob=0.2,
        read_dropout_prob=0.3,
        drift_onset_prob=0.5,
        drift_bias_step=0.01,
        drift_fail_threshold=0.035,
    )

    def make_device():
        return AnnealerDevice(
            graph,
            sampler_config=SamplerConfig(num_restarts=2),
            chain_strength=CHAIN_STRENGTH,
            seed=3,
            faults=faults,
            fault_seed=9,
        )

    loaded, blocked = _both_ways(
        make_device, dataclasses.replace(request, num_reads=4), 12, monkeypatch
    )
    assert loaded == blocked
    kinds = {entry[0] for entry in loaded if isinstance(entry[0], str)}
    assert {"ReadoutTimeout", "CalibrationDrift"} <= kinds
    assert any(
        not isinstance(entry[0], str) and entry[2] > 0 for entry in loaded
    ), "no call dropped a read"


@needs_sweep_kernel
@pytest.mark.parametrize("hardware", ["chimera8", "pegasus8"])
def test_generator_state_at_the_readout_draw(requests, hardware, monkeypatch):
    """The sampler's generator reaches the readout-noise draw where
    NumPy's own draws leave it, PCG64's held-back uint32 half included
    (these problems have an odd qubit count, so at one read a half is
    held after an even number of descent draws)."""
    problem = requests[hardware][1].compiled
    assert problem.num_qubits % 2 == 1
    states = []
    flip_readout = NoiseModel.flip_readout

    def spy(noise, bits, rng):
        states.append(rng.bit_generator.state)
        return flip_readout(noise, bits, rng)

    monkeypatch.setattr(NoiseModel, "flip_readout", spy)

    def sample_all():
        for seed in range(8):
            for num_reads, restarts in SHAPES:
                SimulatedAnnealingSampler(
                    SamplerConfig(num_restarts=restarts), seed=seed
                ).sample(problem, num_reads=num_reads)

    sample_all()
    loaded = list(states)
    states.clear()
    with monkeypatch.context() as patch:
        numpy_only(patch)
        sample_all()
    assert loaded == states
    assert any(state["has_uint32"] for state in states)


def _vote_oracle(chain_of_index, bits, rng):
    """The per-variable majority vote: ties draw one scalar each, in
    chain order."""
    votes = {}
    for index, var in enumerate(chain_of_index):
        votes.setdefault(var, []).append(int(bits[index]))
    values, breaks = {}, 0
    for var, chain_bits in votes.items():
        ones, size = sum(chain_bits), len(chain_bits)
        if 0 < ones < size:
            breaks += 1
        if ones * 2 > size:
            values[var] = True
        elif ones * 2 < size:
            values[var] = False
        else:
            values[var] = bool(rng.integers(0, 2))
    return values, (breaks / len(votes) if votes else 0.0)


@pytest.mark.parametrize("hardware", sorted(HARDWARE))
def test_chain_vote_equals_the_per_variable_loop(requests, hardware):
    """Random reads with forced ties: equal values, key order and break
    fraction, and both generators left at the same point."""
    problem = requests[hardware][1].compiled
    chains = np.array(problem.chain_of_index)
    starts = np.flatnonzero(np.r_[True, chains[1:] != chains[:-1]])
    sizes = np.diff(np.r_[starts, len(chains)])
    assert (sizes % 2 == 0).any(), "no chain can tie"
    draw = np.random.default_rng(1)
    for trial in range(25):
        bits = draw.integers(0, 2, len(chains)).astype(np.int8)
        for start, size in zip(starts, sizes):
            if size % 2 == 0 and draw.random() < 0.5:
                bits[start : start + size] = draw.permutation(
                    np.repeat(np.array([0, 1], np.int8), size // 2)
                )
        ours_rng = np.random.default_rng(trial)
        oracle_rng = np.random.default_rng(trial)
        assignment, fraction = majority_vote_unembed(problem, bits, ours_rng)
        values, expected = _vote_oracle(problem.chain_of_index, bits, oracle_rng)
        assert list(assignment.items()) == list(values.items())
        assert float(fraction).hex() == float(expected).hex()
        assert ours_rng.random() == oracle_rng.random()


def _solve(formula, seed):
    result = HyQSatSolver(
        formula,
        device=AnnealerDevice(seed=seed),
        config=HyQSatConfig(seed=seed),
        solver_config=SolverConfig(seed=seed),
    ).solve()
    hybrid = result.hybrid
    return (
        result.status,
        tuple(result.model.items()) if result.model else None,
        (result.stats.conflicts, result.stats.decisions, result.stats.propagations),
        (hybrid.qa_calls, hybrid.frontend_cache_hits, hybrid.qpu_time_us),
        [float(e).hex() for e in hybrid.energies],
        {str(k): v for k, v in hybrid.strategy_counts.items()},
    )


@needs_sweep_kernel
@pytest.mark.parametrize(
    "instance",
    ["uf50", "uf75", "uf100", "BP"],
)
def test_whole_solves_equal_with_the_kernel_blocked(instance, monkeypatch):
    """Whole hybrid solves, the BP one with frontend-cache hits (a hit
    reuses a compiled problem, so a read-out that wrote into one would
    show there)."""
    if instance == "BP":
        formula, seed = BENCHMARKS["BP"].generate(0, seed=32), 32
    else:
        n = int(instance[2:])
        formula = random_3sat(n, round(n * 4.26), np.random.default_rng(n))
        seed = n
    loaded = _solve(formula, seed)
    with monkeypatch.context() as patch:
        numpy_only(patch)
        blocked = _solve(formula, seed)
    assert loaded[3][0] > 0
    if instance == "BP":
        assert loaded[3][1] > 0, "no frontend-cache hit"
    assert loaded == blocked
