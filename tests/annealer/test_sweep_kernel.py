"""The native anneal sweep (``annealer/sweep.c``) against NumPy.

The batched sampler's sweeps run in a C kernel when it loads and in
NumPy otherwise; both must give bit-identical reads.  The kernel
decides a flip only when ``2u`` lies outside a relative 2**-16 band
around its own exp estimate and hands any other sweep back to NumPy's
``np.exp``, so identity rests on that band holding against ``np.exp``
— checked here on a dense float32 grid.
"""

from __future__ import annotations

import ctypes

import numpy as np
import pytest

from repro.annealer import sampler as sampler_module
from repro.annealer.noise import NoiseModel
from repro.annealer.sampler import SamplerConfig, SimulatedAnnealingSampler
from repro.benchgen.random_ksat import random_3sat
from repro.cdcl import native
from repro.core.frontend import Frontend
from repro.topology.chimera import ChimeraGraph
from repro.topology.pegasus import PegasusGraph

needs_sweep_kernel = pytest.mark.skipif(
    native.load_sweep_kernel() is None,
    reason="no C compiler for the sweep kernel",
)

#: The kernel's clamp (sweep.c Y_FLOOR).
Y_FLOOR = np.float32(-80.0)

HARDWARE = {
    "c16": lambda: ChimeraGraph(16, 16, 4),
    "chimera8": lambda: ChimeraGraph(8, 8, 4),
    "pegasus8": lambda: PegasusGraph(8, 8, 4),
    "c16-broken": lambda: ChimeraGraph(
        16, 16, 4,
        broken_qubits=np.random.default_rng(5)
        .choice(2048, 60, replace=False)
        .tolist(),
    ),
}

NOISE = {
    "noiseless": NoiseModel.noiseless(),
    "coefficients": NoiseModel(coefficient_std=0.05),
    "thermal": NoiseModel(thermal_beta=1.5),
    "readout": NoiseModel(readout_flip_prob=0.02),
}

#: (num_reads, num_restarts): R = 1 (the hybrid call), 8 and 16.
SHAPES = [(1, 1), (8, 1), (4, 4)]


@pytest.fixture(scope="module")
def problems():
    """One embedded residual per hardware, as the frontend builds it."""
    formula = random_3sat(60, 250, np.random.default_rng(7))
    out = {}
    for name, make in HARDWARE.items():
        prepared = Frontend(formula, make(), chain_strength=2.0).prepare(
            list(range(120))
        )
        out[name] = prepared.request.compiled
    return out


def numpy_only(monkeypatch):
    monkeypatch.setattr(native, "load_sweep_kernel", lambda: None)


def kernel_band(y: np.ndarray):
    """The kernel's (lo, hi) at each exponent: 2u < lo flips, 2u > hi
    does not, anything between goes to NumPy."""
    y = np.ascontiguousarray(y, dtype=np.float32)
    lo, hi = np.empty_like(y), np.empty_like(y)
    native.load_sweep_kernel().sweep_band(
        y.size, y.ctypes.data, lo.ctypes.data, hi.ctypes.data
    )
    return lo, hi


@needs_sweep_kernel
@pytest.mark.parametrize("hardware", sorted(HARDWARE))
@pytest.mark.parametrize("noise", sorted(NOISE))
def test_native_reads_equal_numpy_reads(problems, hardware, noise, monkeypatch):
    problem = problems[hardware]
    native_reads, numpy_reads = [], []
    for num_reads, restarts in SHAPES:
        sampler = SimulatedAnnealingSampler(
            SamplerConfig(num_restarts=restarts), NOISE[noise], seed=11
        )
        native_reads.append(sampler.sample(problem, num_reads=num_reads))
    with monkeypatch.context() as patch:
        numpy_only(patch)
        for num_reads, restarts in SHAPES:
            sampler = SimulatedAnnealingSampler(
                SamplerConfig(num_restarts=restarts), NOISE[noise], seed=11
            )
            numpy_reads.append(sampler.sample(problem, num_reads=num_reads))
    for ours, theirs in zip(native_reads, numpy_reads):
        assert len(ours) == len(theirs)
        for a, b in zip(ours, theirs):
            assert a.dtype == b.dtype and np.array_equal(a, b)


class _Uniforms:
    """An rng whose float32 draws are fixed arrays (fresh copies)."""

    def __init__(self, draws):
        self._draws = list(draws)

    def random(self, shape, dtype):
        draw = self._draws.pop(0)
        assert draw.shape == shape and draw.dtype == dtype
        return draw.copy()


_NEXT_UINT64 = ctypes.CFUNCTYPE(ctypes.c_uint64, ctypes.c_void_p)


class _BitGenT(ctypes.Structure):
    """numpy/random/bitgen.h's ``bitgen_t``."""

    _fields_ = [
        ("state", ctypes.c_void_p),
        ("next_uint64", _NEXT_UINT64),
        ("next_uint32", ctypes.c_void_p),
        ("next_double", ctypes.c_void_p),
        ("next_raw", ctypes.c_void_p),
    ]


_new_capsule = ctypes.PYFUNCTYPE(
    ctypes.py_object, ctypes.c_void_p, ctypes.c_char_p, ctypes.c_void_p
)(("PyCapsule_New", ctypes.pythonapi))


class _ReplayGenerator:
    """A bit generator the native library draws fixed uint32 words
    from, two per ``next_uint64`` (low half first, as PCG64 pairs
    them): its uniforms are ``(word >> 8) * 2**-24``."""

    def __init__(self, words):
        self._words = iter(np.asarray(words, dtype=np.uint64).tolist())
        self._next = _NEXT_UINT64(self._next_uint64)
        self._struct = _BitGenT(None, self._next, None, None, None)
        self.capsule = _new_capsule(
            ctypes.addressof(self._struct), b"BitGenerator", None
        )
        self.state = {"has_uint32": 0, "uinteger": 0}

    def _next_uint64(self, _state):
        low = next(self._words)
        return low | (next(self._words) << 32)


class _Replay:
    bit_generator: _ReplayGenerator

    def __init__(self, words):
        self.bit_generator = _ReplayGenerator(words)


@needs_sweep_kernel
def test_threshold_sweep_is_resolved_by_numpy(problems, monkeypatch):
    """A spin whose 2u equals np.exp(y) exactly (NumPy: no flip) lies
    inside the band, so the kernel hands its sweep to NumPy, with that
    sweep's doubled uniforms."""
    problem = problems["chimera8"]
    sampler = SimulatedAnnealingSampler()
    arrays = problem.programmed
    n = problem.num_qubits
    betas = sampler._schedule()[:8]
    states = np.random.default_rng(3).integers(0, 2, (n, 1)).astype(np.float32)
    words = np.random.default_rng(4).integers(
        0, 2**32, (len(betas), n, 1), dtype=np.uint64
    )

    def uniforms():
        return ((words >> 8) * 2.0**-24).astype(np.float32)

    resolved = []
    real_flip = sampler_module._metropolis_flip

    def spy(m, exponents, doubled_u):
        resolved.append((exponents.copy(), doubled_u.copy()))
        real_flip(m, exponents, doubled_u)

    monkeypatch.setattr(sampler_module, "_metropolis_flip", spy)
    sampler._anneal_batch(states, arrays, betas, _Uniforms([uniforms()]), None)
    first_exponents = resolved[0][0]
    flat = first_exponents.ravel()
    # 2u is a multiple of 2**-23, so pick a spin whose exp(y) is one.
    thresholds = np.exp(flat).astype(np.float64) * 2.0**23
    spin = int(
        np.flatnonzero(
            (flat < -0.01) & (flat > -0.6) & (thresholds == np.floor(thresholds))
        )[0]
    )
    words[0].ravel()[spin] = int(thresholds[spin]) << 8  # 2u == exp(y)
    assert uniforms()[0].ravel()[spin] * 2 == np.exp(flat[spin])

    resolved.clear()
    expected = sampler._anneal_batch(
        states, arrays, betas, _Uniforms([uniforms()]), None
    )
    assert np.array_equal(resolved[0][0], first_exponents)
    resolved.clear()
    draws = sampler_module._Draws(
        native.load_sweep_kernel(), _Replay(words.ravel())
    )
    got = sampler._anneal_batch(states, arrays, betas, None, draws)
    assert np.array_equal(got, expected)
    # The kernel returned sweep 0 unapplied, with NumPy's exponents.
    assert resolved and np.array_equal(resolved[0][0], first_exponents)
    assert np.array_equal(resolved[0][1], uniforms()[0] + uniforms()[0])


@needs_sweep_kernel
@pytest.mark.parametrize("held", [0, 1])
@pytest.mark.parametrize("size", [0, 1, 2, 7, 1000])
def test_native_draws_are_numpy_draws(held, size):
    """The library's float32 uniforms are ``rng.random``'s, whether or
    not PCG64 holds a uint32 half back, and the generator is left where
    NumPy's own draws leave it."""
    ours, theirs = np.random.default_rng(8), np.random.default_rng(8)
    for rng in (ours, theirs):
        rng.integers(0, 2, size=held)  # one uint32 draw holds a half back
    draws = sampler_module._Draws(native.load_sweep_kernel(), ours)
    got = np.empty(size, dtype=np.float32)
    draws.kernel.draw_uniforms(
        draws.bitgen, draws.carry.ctypes.data, size, 1.0, got.ctypes.data
    )
    draws.close()
    assert np.array_equal(got, theirs.random(size, dtype=np.float32))
    assert ours.bit_generator.state == theirs.bit_generator.state


@needs_sweep_kernel
def test_band_holds_against_np_exp():
    """On every 64th float32 of [-80, 0], np.exp lies inside the
    kernel's band, whose centre (its exp estimate) is within 1e-6 of
    exp and whose width is 2**-15 of it; below -80 the kernel decides
    only "no flip", and np.exp never exceeds the band there.  A NumPy
    whose float32 exp is less accurate than the band fails here,
    before any read differs."""
    lowest = int(np.array([Y_FLOOR]).view(np.uint32)[0])
    step, per_chunk = 64, 2**20
    worst = widest = 0.0
    for start in range(0x80000000, lowest + 1, step * per_chunk):
        stop = min(start + step * per_chunk, lowest + 1)
        y = np.arange(start, stop, step, dtype=np.uint32).view(np.float32)
        lo, hi = kernel_band(y)
        numpy_exp = np.exp(y)
        assert np.all(lo <= numpy_exp), "np.exp below the band"
        assert np.all(numpy_exp <= hi), "np.exp above the band"
        exact = np.exp(y.astype(np.float64))
        centre = (lo.astype(np.float64) + hi) / 2
        worst = max(worst, float(np.max(np.abs(centre - exact) / exact)))
        widest = max(widest, float(np.max((hi.astype(np.float64) - lo) / exact)))
    assert worst < 1e-6, f"exp estimate off by {worst:.3g}"
    assert widest < 2.0**-15 * 1.01, f"band {widest:.3g} wide"

    below = np.linspace(-120.0, -80.0, 100_001, dtype=np.float32)[:-1]
    lo, hi = kernel_band(below)
    assert np.all(lo == 0) and np.all(np.exp(below) <= hi)
    # 2u is 0 or at least 2**-23 there (NumPy's float32 uniforms are
    # multiples of 2**-24), far above the band.
    assert hi.max() < 2.0**-23
    u = np.random.default_rng(0).random(1_000_000, dtype=np.float32)
    assert np.array_equal(u * 2.0**24, np.floor(u * 2.0**24))


@needs_sweep_kernel
@pytest.mark.parametrize("noise", ["noiseless", "coefficients"])
@pytest.mark.parametrize("replicas", [1, 8])
def test_exponents_equal_numpy_exponents(problems, noise, replicas, monkeypatch):
    """The kernel's y = -beta * max(delta, 0) equals NumPy's for every
    spin: the same float32 operations in the same order (a reordered
    sum changes a last bit, which reads almost never show)."""
    kernel = native.load_sweep_kernel()
    sampler = SimulatedAnnealingSampler(noise=NOISE[noise], seed=1)
    neg_betas = (-sampler._schedule()[:3]).astype(np.float32)
    captured = []

    def spy(m, exponents, doubled_u):
        captured.append(exponents.copy())

    monkeypatch.setattr(sampler_module, "_metropolis_flip", spy)
    for hardware in sorted(HARDWARE):
        arrays = sampler._programmed(problems[hardware], np.random.default_rng(2))
        n = len(arrays.linear)
        c = arrays.c
        states = np.random.default_rng(3).integers(0, 2, (n, replicas))
        m = np.float32(1.0) - 2 * states.astype(np.float32)
        never = np.full((len(neg_betas), n, replicas), 4.0, np.float32)
        captured.clear()
        matrix = arrays.csr(arrays.data32)
        sampler._sweeps_numpy(m.copy(), c, matrix)(neg_betas, never)
        for k, neg_beta in enumerate(neg_betas):
            inputs = (arrays.indptr, arrays.indices, arrays.scaled, c, neg_betas[k : k + 1])
            outputs = (
                m.copy(), *(np.empty_like(m) for _ in range(3)),
                np.empty(5 * n, np.int32),
            )
            # Every word all ones: 2u = 2 - 2**-23 > exp(y) for every spin.
            draws = sampler_module._Draws(
                kernel, _Replay(np.full(n * replicas + 1, 2**32 - 1))
            )
            done = kernel.sweep_run(
                n, replicas, *[a.ctypes.data for a in inputs],
                draws.bitgen, draws.carry.ctypes.data, 0, 1,
                *[a.ctypes.data for a in outputs],
            )
            assert done == 1  # every spin decided: no flip
            assert np.array_equal(outputs[1], captured[k]), hardware


@needs_sweep_kernel
def test_uniforms_drawn_in_several_chunks(problems, monkeypatch):
    """Sweeps spread over several uniform chunks still match."""
    monkeypatch.setattr(sampler_module, "_CHUNK_FLOATS", 100_000)
    config = SamplerConfig(num_sweeps=40, num_restarts=8)
    sampler = SimulatedAnnealingSampler(config, seed=5)
    native_reads = sampler.sample(problems["chimera8"], num_reads=2)
    with monkeypatch.context() as patch:
        numpy_only(patch)
        numpy_reads = sampler.sample(problems["chimera8"], num_reads=2)
    assert all(np.array_equal(a, b) for a, b in zip(native_reads, numpy_reads))


def test_numpy_path_answers_without_the_kernel(
    problems, monkeypatch, tmp_path
):
    """An unusable kernel cache leaves the NumPy sweeps to answer."""
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    monkeypatch.setattr(native, "_loaded", {})
    monkeypatch.setenv("HYQSAT_KERNEL_CACHE", str(blocker / "cache"))
    assert native.load_sweep_kernel() is None
    reads = SimulatedAnnealingSampler(seed=3).sample(
        problems["chimera8"], num_reads=2
    )
    assert len(reads) == 2 and all(set(np.unique(r)) <= {0, 1} for r in reads)
