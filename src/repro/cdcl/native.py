"""Build and bind the native kernels: CDCL (``kernel.c``), the anneal
read-out (``repro/annealer/sweep.c``), the frontend's cache miss
(``repro/core/frontend.c``: trail conditioning, encode, coefficient
adjustment, embed, term sum and chain compile) and the formula read
(``repro/sat/table.c``: the DIMACS read and a clause table's row text).

Each kernel is compiled on demand with the system C compiler into a
shared library cached under ``build/cdcl-kernel/`` at the repository
root (gitignored; override with ``HYQSAT_KERNEL_CACHE``).  The cache
key is the SHA-256 of the C source and its flags, so editing a source
transparently rebuilds.  No third-party packaging machinery is
involved — just ``cc -O2 -shared`` and :mod:`ctypes`.

Float determinism: every kernel must reproduce its Python twin's
IEEE-754 arithmetic bit for bit (CPython doubles for the CDCL kernel
and the term sum, NumPy float64 for the coefficient adjustment, the
compile and the logical pass, NumPy float32 for the sweeps, the descent
and the compile's programmed forms).  ``-ffp-contract=off`` keeps the
compiler from fusing ``a*b+c`` into FMA, and we deliberately avoid
``-ffast-math`` and ``-march=native``.  The sweep kernel adds
``-fno-trapping-math -fvect-cost-model=dynamic`` so GCC vectorises its
decision loop; neither flag changes a result.

:func:`load_kernel`, :func:`load_sweep_kernel`,
:func:`load_frontend_kernel` and :func:`load_table_kernel` return the
bound library (or ``None`` when no compiler is available or the cache
is unusable);
:func:`native_available` is the cheap feature probe the engine registry
uses.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
import shutil
import subprocess
import threading
from pathlib import Path
from typing import Dict, List, Optional

_SOURCE = Path(__file__).with_name("kernel.c")
_SWEEP_SOURCE = Path(__file__).parents[1] / "annealer" / "sweep.c"
_FRONTEND_SOURCE = Path(__file__).parents[1] / "core" / "frontend.c"
_TABLE_SOURCE = Path(__file__).parents[1] / "sat" / "table.c"

_CFLAGS = ["-O2", "-std=c99", "-ffp-contract=off", "-fPIC", "-shared"]
_SWEEP_CFLAGS = _CFLAGS + ["-fno-trapping-math", "-fvect-cost-model=dynamic"]

#: ``kernel_run`` exit events (keep in sync with kernel.c).  The last
#: three, and ``EV_NEED_DECISION`` beyond the assumptions, are stops
#: returned only when their bit is set in the struct's ``exits``.
EV_SAT = 1
EV_ROOT_CONFLICT = 2
EV_BUDGET = 3
EV_RESTART_DUE = 4
EV_REDUCE_DUE = 5
EV_NEED_DECISION = 6
EV_GROW = 7
EV_ITERATION = 8
EV_PROPAGATED = 9
EV_ANALYZED = 10

#: Heuristic kinds (keep in sync with kernel.c).
HEUR_VSIDS = 0
HEUR_CHB = 1

_i8p = ctypes.POINTER(ctypes.c_int8)
_u8p = ctypes.POINTER(ctypes.c_uint8)
_i32p = ctypes.POINTER(ctypes.c_int32)
_i64p = ctypes.POINTER(ctypes.c_int64)
_f64p = ctypes.POINTER(ctypes.c_double)


class CSolverStruct(ctypes.Structure):
    """ctypes mirror of the ``CSolver`` struct in kernel.c.

    Field order must match the C definition exactly; every member is
    8 bytes wide so the layout is padding-free on both sides.
    """

    _fields_ = [
        # assignment state
        ("n_vars", ctypes.c_int64),
        ("values", _i8p),
        ("levels", _i32p),
        ("reasons", _i32p),
        ("phases", _u8p),
        ("trail", _i32p),
        ("trail_len", ctypes.c_int64),
        ("trail_lim", _i32p),
        ("n_levels", ctypes.c_int64),
        ("prop_head", ctypes.c_int64),
        ("seen", _u8p),
        ("mark", _u8p),
        ("path", _i32p),
        # clause store
        ("pool", _i32p),
        ("pool_len", ctypes.c_int64),
        ("pool_cap", ctypes.c_int64),
        ("c_start", _i32p),
        ("c_size", _i32p),
        ("c_orig", _i32p),
        ("c_learned", _u8p),
        ("c_dead", _u8p),
        ("c_act", _f64p),
        ("n_clauses", ctypes.c_int64),
        ("clause_cap", ctypes.c_int64),
        ("learned_list", _i32p),
        ("n_learned", ctypes.c_int64),
        # watch lists
        ("w_head", _i32p),
        ("w_tail", _i32p),
        ("node_next", _i32p),
        ("node_clause", _i32p),
        ("node_len", ctypes.c_int64),
        ("node_cap", ctypes.c_int64),
        ("free_head", ctypes.c_int64),
        # per-original-clause counters
        ("prop_visits", _i64p),
        ("conf_visits", _i64p),
        ("orig_act", _f64p),
        # stats
        ("propagations", ctypes.c_int64),
        ("conflicts", ctypes.c_int64),
        ("decisions", ctypes.c_int64),
        ("iterations", ctypes.c_int64),
        ("restarts", ctypes.c_int64),
        ("learned_total", ctypes.c_int64),
        ("deleted_total", ctypes.c_int64),
        ("max_level", ctypes.c_int64),
        # clause activity bookkeeping
        ("clause_bump", ctypes.c_double),
        ("clause_decay", ctypes.c_double),
        ("orig_bump", ctypes.c_double),
        # config
        ("phase_saving", ctypes.c_int64),
        # heuristic
        ("heur_kind", ctypes.c_int64),
        ("scores", _f64p),
        ("heap", _i32p),
        ("heap_pos", _i32p),
        ("heap_len", ctypes.c_int64),
        ("vs_bump", ctypes.c_double),
        ("vs_decay", ctypes.c_double),
        ("chb_step", ctypes.c_double),
        ("chb_step_min", ctypes.c_double),
        ("chb_step_decay", ctypes.c_double),
        ("chb_conflicts", ctypes.c_int64),
        ("chb_last", _i64p),
        # analysis output
        ("out_learned", _i32p),
        ("out_learned_len", ctypes.c_int64),
        ("out_backjump", ctypes.c_int64),
        # run-loop control
        ("exits", ctypes.c_int64),
        ("resume_at", ctypes.c_int64),
        ("pending_conflict", ctypes.c_int64),
        ("max_conflicts", ctypes.c_int64),
        ("max_iterations", ctypes.c_int64),
        ("restart_limit", ctypes.c_int64),
        ("conflicts_in_window", ctypes.c_int64),
        ("max_learned", ctypes.c_double),
        ("n_assumptions", ctypes.c_int64),
    ]


_SP = ctypes.POINTER(CSolverStruct)

#: (name, restype, extra argtypes after the struct pointer)
_SIGNATURES = [
    ("kernel_bump_variable", None, [ctypes.c_int64, ctypes.c_double]),
    ("kernel_assign_root", None, [ctypes.c_int64]),
    ("kernel_new_level", None, []),
    ("kernel_decide", None, [ctypes.c_int64]),
    ("kernel_backtrack", None, [ctypes.c_int64]),
    ("kernel_truncate_root", None, [ctypes.c_int64]),
    ("kernel_attach_clause", None, [ctypes.c_int64]),
    ("kernel_detach_clauses", None, [_u8p]),
    ("kernel_pick", ctypes.c_int64, []),
    ("kernel_run", ctypes.c_int64, []),
]

_I64 = ctypes.c_int64
_PTR = ctypes.c_void_p

#: The read-out library's exports: (name, restype, argtypes).
_SWEEP_SIGNATURES = [
    ("sweep_band", None, [_I64, _PTR, _PTR, _PTR]),
    (
        "sweep_run",
        _I64,
        [_I64, _I64] + [_PTR] * 7 + [_I64, _I64] + [_PTR] * 5,
    ),
    (
        "descent_run",
        None,
        [_I64, _I64] + [_PTR] * 4 + [ctypes.c_float, _I64] + [_PTR] * 7,
    ),
    ("draw_uniforms", None, [_PTR, _PTR, _I64, ctypes.c_float, _PTR]),
    ("logical_pass", _I64, [_I64] + [_PTR] * 4),
]

#: The frontend library's exports: (name, restype, argtypes).
_FRONTEND_SIGNATURES = [
    ("condition_run", _I64, [_I64] * 3 + [_PTR] * 2 + [_I64] + [_PTR] * 3),
    ("encode_run", _I64, [_I64, _I64, _PTR, _I64, _I64] + [_PTR] * 6 + [_I64] + [_PTR] * 2),
    ("adjust_run", _I64, [_I64] + [_PTR] * 3 + [_I64] + [_PTR] * 4),
    ("embed_run", _I64, [_I64] * 2 + [_PTR] * 2 + [_I64] * 4 + [_PTR]),
    ("sum_terms", _I64, [_I64] + [_PTR] * 4 + [_I64] + [_PTR] * 5),
    (
        "compile_run",
        _I64,
        # terms, placement, hardware, chain strength, outputs
        [_I64, _PTR, _I64, _PTR, _PTR, _I64, _PTR, _PTR, _PTR]
        + [_I64, _PTR, _PTR, _I64, _PTR, _I64, _PTR, _PTR, _I64, _PTR]
        + [_I64, _PTR, _PTR, ctypes.c_double, _I64]
        + [_PTR] * 4,
    ),
]

#: The formula-read library's exports: (name, restype, argtypes).  The
#: document goes in as a ``bytes`` object, which ctypes passes without
#: a copy.
_TABLE_SIGNATURES = [
    ("dimacs_read", _I64, [ctypes.c_char_p, _I64, _I64, _I64, _PTR, _PTR]),
    ("table_text", _I64, [_I64, _I64, _PTR, _I64, _I64, _PTR]),
]


_NO_BYTES = ctypes.c_char * 0
_from_buffer = _NO_BYTES.from_buffer
_addressof = ctypes.addressof


def address(array) -> int:
    """The address of ``array``'s first element, to pass as a pointer.

    A writable C-contiguous array goes through the buffer protocol,
    about a quarter of what ``array.ctypes.data`` costs; any other array
    through ``array.ctypes.data``.
    """
    try:
        return _addressof(_from_buffer(array))
    except TypeError:
        return array.ctypes.data


def _cache_dir() -> Path:
    override = os.environ.get("HYQSAT_KERNEL_CACHE")
    if override:
        return Path(override)
    # src/repro/cdcl/native.py -> repository root / build / cdcl-kernel
    return _SOURCE.parents[3] / "build" / "cdcl-kernel"


def _compiler() -> Optional[str]:
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def _build_library(
    source: Path = _SOURCE, flags: List[str] = _CFLAGS
) -> Optional[Path]:
    """Compile ``source`` into the cache (no-op when already built)."""
    text = source.read_bytes()
    key = hashlib.sha256(text + " ".join(flags).encode()).hexdigest()[:16]
    cache = _cache_dir()
    lib_path = cache / f"{source.stem}-{key}.so"
    if lib_path.exists():
        return lib_path
    compiler = _compiler()
    if compiler is None:
        return None
    tmp_path = cache / f"{source.stem}-{key}.{os.getpid()}.tmp.so"
    cmd = [compiler, *flags, str(source), "-o", str(tmp_path)]
    try:
        # An unusable cache dir (read-only install, a path through a
        # regular file) is a failed build, not a crash.
        cache.mkdir(parents=True, exist_ok=True)
        subprocess.run(
            cmd, check=True, capture_output=True, text=True, timeout=120
        )
        os.replace(tmp_path, lib_path)  # atomic under concurrent builds
    except (subprocess.SubprocessError, OSError):
        with contextlib.suppress(OSError):
            tmp_path.unlink()
        return None
    return lib_path


def _open(lib_path: Optional[Path], signatures) -> Optional[ctypes.CDLL]:
    """Load a built library and declare its exports' C signatures."""
    if lib_path is None:
        return None
    try:
        lib = ctypes.CDLL(str(lib_path))
    except OSError:
        return None
    for name, restype, argtypes in signatures:
        fn = getattr(lib, name)
        fn.restype = restype
        fn.argtypes = argtypes
    return lib


_lib: Optional[ctypes.CDLL] = None
_load_attempted = False
#: Source name -> the bound library (None: its build or load failed).
_loaded: Dict[str, Optional[ctypes.CDLL]] = {}
#: Held across a build, so a concurrent first caller waits for the
#: library instead of seeing it attempted and getting None.
_load_lock = threading.Lock()


def load_kernel() -> Optional[ctypes.CDLL]:
    """The bound CDCL kernel library, building it on first use.

    Returns ``None`` (and remembers the failure) when no C compiler
    is available or the build fails; callers then fall back to the
    reference engine.
    """
    global _lib, _load_attempted
    with _load_lock:
        if _lib is None and not _load_attempted:
            _load_attempted = True
            _lib = _open(
                _build_library(),
                [(name, restype, [_SP] + extra)
                 for name, restype, extra in _SIGNATURES],
            )
        return _lib


def _load_once(source: Path, flags: List[str], signatures) -> Optional[ctypes.CDLL]:
    """Build and bind ``source`` on its first request, then the same
    library (or the same ``None``) on every later one."""
    if source.name in _loaded:
        return _loaded[source.name]
    with _load_lock:
        if source.name not in _loaded:
            _loaded[source.name] = _open(_build_library(source, flags), signatures)
        return _loaded[source.name]


def load_sweep_kernel() -> Optional[ctypes.CDLL]:
    """The bound anneal read-out library, building it on first use (the
    first anneal, not import); ``None`` means the sampler and the
    logical descent run their NumPy/Python loops."""
    return _load_once(_SWEEP_SOURCE, _SWEEP_CFLAGS, _SWEEP_SIGNATURES)


def load_frontend_kernel() -> Optional[ctypes.CDLL]:
    """The bound frontend library (the trail conditioning, the Eq. 5
    encode, the Section IV-C adjustment, the Section IV-B embed, the
    embedded objective's term sum and the chain compile), building it on
    the first frontend miss; ``None`` means each runs its NumPy or
    Python path."""
    return _load_once(_FRONTEND_SOURCE, _CFLAGS, _FRONTEND_SIGNATURES)


def load_table_kernel() -> Optional[ctypes.CDLL]:
    """The bound formula-read library (the DIMACS read and a clause
    table's row text), building it on the first read; ``None`` means
    both run their NumPy paths."""
    return _load_once(_TABLE_SOURCE, _CFLAGS, _TABLE_SIGNATURES)


def native_available() -> bool:
    """True when the native kernel can be (or was) built and loaded."""
    return load_kernel() is not None
