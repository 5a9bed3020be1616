"""CDCL engine registry: select reference or native-kernel solver.

Two engines implement the same solver contract:

- ``"reference"`` — :class:`~repro.cdcl.solver.CdclSolver`, the pure
  Python implementation.  Always available; the semantic ground truth.
- ``"fast"`` — :class:`~repro.cdcl.fast.FastCdclSolver`, flat-buffer
  state driven by the C kernel.  Bit-identical to the reference but
  needs a C compiler (once, cached) and one of the built-in
  VSIDS/CHB heuristics.

:func:`create_solver` is the one construction point used by presets,
the hybrid loop, and the service layer; it degrades to the reference
engine (with a warning) when the fast engine cannot run.
"""

from __future__ import annotations

import warnings
from typing import Optional

from repro.cdcl.fast import FastCdclSolver, FastEngineError, fast_engine_supports
from repro.cdcl.solver import CdclSolver, SolverConfig

__all__ = [
    "DEFAULT_ENGINE",
    "ENGINES",
    "available_engines",
    "check_engine",
    "create_solver",
    "resolve_engine",
]

#: Engine name -> solver class.
ENGINES = {
    "reference": CdclSolver,
    "fast": FastCdclSolver,
}

#: The engine every entry point uses unless told otherwise.  It falls
#: back to ``"reference"`` (with a warning) where the kernel cannot be
#: built or loaded.
DEFAULT_ENGINE = "fast"


def available_engines() -> tuple:
    """Engine names usable right now (``fast`` only with a kernel)."""
    names = ["reference"]
    ok, _ = fast_engine_supports(None)
    if ok:
        names.append("fast")
    return tuple(names)


def check_engine(engine: str) -> None:
    """Raise ``ValueError`` unless ``engine`` names one of
    :data:`ENGINES` (the one engine-name check of every entry point)."""
    if engine not in ENGINES:
        expected = " or ".join(repr(name) for name in ENGINES)
        raise ValueError(f"unknown CDCL engine {engine!r}; expected {expected}")


def resolve_engine(engine: str, config: Optional[SolverConfig] = None) -> str:
    """Validate ``engine`` and downgrade ``fast`` when unusable.

    Unknown names raise ``ValueError``.  When ``fast`` is requested but
    the kernel cannot be built or the config uses a custom heuristic, a
    :class:`RuntimeWarning` is emitted and ``"reference"`` is returned —
    results are identical either way, only slower.
    """
    check_engine(engine)
    if engine == "fast":
        ok, reason = fast_engine_supports(config)
        if not ok:
            warnings.warn(
                f"fast CDCL engine unavailable ({reason}); "
                "falling back to the reference engine",
                RuntimeWarning,
                stacklevel=2,
            )
            return "reference"
    return engine


def create_solver(
    formula,
    engine: str = DEFAULT_ENGINE,
    config: Optional[SolverConfig] = None,
    proof=None,
    observability=None,
):
    """Build a solver for ``formula`` with the requested engine.

    Falls back to the reference engine (see :func:`resolve_engine`)
    rather than failing, so callers can request ``fast``
    unconditionally.
    """
    engine = resolve_engine(engine, config)
    cls = ENGINES[engine]
    try:
        return cls(
            formula, config=config, proof=proof, observability=observability
        )
    except FastEngineError as exc:  # pragma: no cover - race with probe
        warnings.warn(
            f"fast CDCL engine failed to initialise ({exc}); "
            "falling back to the reference engine",
            RuntimeWarning,
            stacklevel=2,
        )
        return CdclSolver(
            formula, config=config, proof=proof, observability=observability
        )
