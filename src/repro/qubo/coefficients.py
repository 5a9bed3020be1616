"""Section IV-C coefficient adjustment (noise optimisation).

The hardware normalisation of Eq. 6 divides all coefficients by
``d* = max(max|B|/2, max|J|)``, which flattens the energy landscape of
sub-clauses whose own coefficients are small.  The paper's fix: compute
``d_{i,j}`` (Eq. 7) for each sub-clause objective at α = 1, then raise
that sub-clause's coefficient to ``α_{i,j} = d*/d_{i,j} >= 1``.  This
widens the energy gap of the weak sub-clauses without changing ``d*``
(the worked Eq. 8/9 example in the paper raises ``α_{1,2}`` from 1 to
2) and needs just one extra evaluation of the objective function.

On multi-clause formulas the raised sub-objectives overlap on shared
variables, so a summed coefficient can exceed its Eq. 6 bound and the
normalisation would then *shrink* the landscape.  The boost is scaled
back to ``α' = 1 + s·(α − 1)``.  Every summed coefficient is affine in
that scale, ``c_k(s) = a_k + s·b_k`` with ``a_k = Σ c_{ij,k}`` and
``b_k = Σ (α_{i,j} − 1)·c_{ij,k}`` over the sub-objectives holding
term ``k``, so the largest admissible scale has a closed form::

    s* = min over b_k != 0 of (t_k − sign(b_k)·a_k) / |b_k|

where ``t_k`` is ``2·d*`` for a linear and ``d*`` for a quadratic term.
The encoding's term arrays give ``a``, ``b`` and ``t`` in one
``np.bincount`` each (or in one call of the frontend library's
``adjust_run``, which sums in the same order), and
:meth:`FormulaEncoding.with_coefficients` sets the new α without
summing anything: the re-weighted objective is built if and when
something reads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Optional, Tuple

import numpy as np

from repro.cdcl import native
from repro.qubo.encoding import FormulaEncoding

#: Relative slack on ``d*`` (absorbs float rounding in the sums).
_D_STAR_SLACK = 1e-9
#: The scale is rounded down to a multiple of ``2**-_SCALE_BITS``.
_SCALE_BITS = 30


@dataclass(frozen=True)
class CoefficientAdjustment:
    """Result of the Section IV-C adjustment.

    Attributes
    ----------
    encoding:
        The re-weighted encoding (``α_{i,j} = d*/d_{i,j}``); its
        ``alpha`` array holds the chosen coefficients in sub-objective
        order.
    d_star:
        The Eq. 6 denominator measured on the α = 1 objective.
    """

    encoding: FormulaEncoding
    d_star: float

    @cached_property
    def alphas(self) -> Dict[Tuple[int, int], float]:
        """The chosen coefficients keyed by ``(clause_index, part)``."""
        return dict(zip(self.encoding.sub_keys, self.encoding.alpha.tolist()))

    @cached_property
    def d_values(self) -> Dict[Tuple[int, int], float]:
        """The Eq. 7 per-sub-clause maxima, same keys."""
        return dict(
            zip(self.encoding.sub_keys, self.encoding.layout.d_value.tolist())
        )

    @property
    def max_alpha(self) -> float:
        """Largest coefficient chosen (1.0 when nothing was adjusted)."""
        return max(self.alphas.values(), default=1.0)


def adjust_coefficients(encoding: FormulaEncoding) -> CoefficientAdjustment:
    """Apply the Section IV-C adjustment to an α = 1 encoding.

    The input encoding's coefficients are read as the baseline; the
    ``d*`` of its summed objective decides the scaling targets
    (``α_{i,j} = d*/d_{i,j}``).

    The paper's method "increases the small coefficients in H_C while
    keeping d* the same".  When the raised objective's ``d*`` exceeds
    the original's, the boost is scaled back to the closed-form ``s*``
    of the module docstring, rounded down to a multiple of 2^-30 (the
    resolution the tests pin α at), and clamped to ``[0, 1 − 2^-30]``.
    """
    kernel = native.load_frontend_kernel()
    if kernel is not None:
        adjustment = _adjust_native(kernel, encoding)
        if adjustment is not None:
            return adjustment
    layout = encoding.layout
    # Number the summed terms: a variable, or a pair coded above every
    # variable.  Terms run in sub-objective order, so np.bincount sums
    # each one as with_coefficients would.
    u, v = layout.keys.T
    span = int(layout.keys.max(initial=0)) + 1
    keys, term = np.unique(np.where(u == v, u, span * u + v), return_inverse=True)
    source, coeff = layout.sub, layout.coeff
    size = len(keys)
    bound = np.where(keys < span, 2.0, 1.0)
    summed = np.bincount(term, weights=encoding.alpha[source] * coeff, minlength=size)
    d_star = float(np.max(np.abs(summed) / bound, initial=0.0))

    d_values = layout.d_value
    alpha = np.ones(len(d_values))
    if d_star > 0.0:
        # Only ever *increase* weak coefficients: cross-clause
        # cancellation can leave the summed d* below an individual
        # sub-clause's d_ij, and scaling that sub-clause down would
        # shrink its penalty (never intended by Section IV-C).
        weak = d_values > 0.0
        alpha[weak] = np.maximum(1.0, d_star / d_values[weak])
        limit = d_star * (1.0 + _D_STAR_SLACK)
        # The raised objective's coefficients (bincount adds in input
        # order, which is sub-objective order).
        raised = np.bincount(term, weights=alpha[source] * coeff, minlength=size)
        if float(np.max(np.abs(raised) / bound)) > limit:
            a = np.bincount(term, weights=coeff, minlength=size)
            b = np.bincount(
                term, weights=(alpha - 1.0)[source] * coeff, minlength=size
            )
            moving = b != 0.0
            s_star = 0.0
            if moving.any():
                room = bound[moving] * limit - np.sign(b[moving]) * a[moving]
                s_star = float(np.min(room / np.abs(b[moving])))
            steps = 1 << _SCALE_BITS
            scale = min(max(math.floor(s_star * steps), 0), steps - 1) / steps
            alpha = 1.0 + scale * (alpha - 1.0)

    return CoefficientAdjustment(
        encoding=encoding.with_coefficients(alpha), d_star=d_star
    )


def _adjust_native(kernel, encoding: FormulaEncoding) -> Optional[CoefficientAdjustment]:
    """:func:`adjust_coefficients` in the frontend library's
    ``adjust_run`` (the same sums in the same order); ``None`` on a NaN
    or infinite scale, which the NumPy path reports."""
    layout = encoding.layout
    inputs = [
        np.ascontiguousarray(layout.keys, np.int64),
        np.ascontiguousarray(layout.sub, np.int64),
        np.ascontiguousarray(layout.coeff, float),
        np.ascontiguousarray(encoding.alpha, float),
        np.ascontiguousarray(layout.d_value, float),
    ]
    alpha, d_star = np.empty(len(layout.d_value)), np.empty(1)
    pointers = [native.address(a) for a in inputs]
    status = kernel.adjust_run(
        len(inputs[2]), *pointers[:3], len(alpha), *pointers[3:],
        native.address(alpha), native.address(d_star),
    )
    if status < 0:
        raise MemoryError("adjust_run could not allocate its tables")
    if status:
        return None
    return CoefficientAdjustment(
        encoding=encoding.with_coefficients(alpha), d_star=float(d_star[0])
    )
