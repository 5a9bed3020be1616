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
One pass over the terms builds ``a``, ``b`` and ``t`` as arrays; the
objective itself is rebuilt once, at the chosen scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.qubo.encoding import FormulaEncoding, SubClauseObjective

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
        The re-weighted encoding (``α_{i,j} = d*/d_{i,j}``).
    d_star:
        The Eq. 6 denominator measured on the α = 1 objective.
    alphas:
        The chosen coefficients keyed by ``(clause_index, part)``.
    d_values:
        The Eq. 7 per-sub-clause maxima, same keys.
    """

    encoding: FormulaEncoding
    d_star: float
    alphas: Dict[Tuple[int, int], float]
    d_values: Dict[Tuple[int, int], float]

    @property
    def max_alpha(self) -> float:
        """Largest coefficient chosen (1.0 when nothing was adjusted)."""
        return max(self.alphas.values(), default=1.0)


def _summed_terms(
    subs: Sequence[SubClauseObjective],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every (sub-objective, term) coefficient as flat arrays.

    Returns ``(term, source, coeff, bound)``: entry ``i`` says that
    sub-objective ``source[i]`` contributes ``coeff[i]`` (unweighted) to
    summed term ``term[i]``; ``bound[k]`` is 2 for a linear and 1 for a
    quadratic term (the Eq. 6 ranges in units of ``d*``).  Entries are
    in the order :meth:`FormulaEncoding.with_coefficients` adds them.
    """
    index: Dict[object, int] = {}
    bound = []
    term, source, coeff = [], [], []
    for j, sub in enumerate(subs):
        objective = sub.objective
        for keys, width in ((objective.linear, 2.0), (objective.quadratic, 1.0)):
            for key, value in keys.items():
                k = index.get(key)
                if k is None:
                    k = index[key] = len(bound)
                    bound.append(width)
                term.append(k)
                source.append(j)
                coeff.append(value)
    return (
        np.array(term, dtype=np.intp),
        np.array(source, dtype=np.intp),
        np.array(coeff),
        np.array(bound),
    )


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
    The adjusted objective is built once, by
    :meth:`FormulaEncoding.with_coefficients`.
    """
    d_star = encoding.objective.d_star()
    alphas: Dict[Tuple[int, int], float] = {}
    d_values: Dict[Tuple[int, int], float] = {}
    for sub in encoding.sub_objectives:
        key = (sub.clause_index, sub.part)
        d_ij = sub.d_value()
        d_values[key] = d_ij
        if d_ij <= 0.0 or d_star <= 0.0:
            alphas[key] = 1.0
        else:
            # Only ever *increase* weak coefficients: cross-clause
            # cancellation can leave the summed d* below an individual
            # sub-clause's d_ij, and scaling that sub-clause down would
            # shrink its penalty (never intended by Section IV-C).
            alphas[key] = max(1.0, d_star / d_ij)

    if d_star > 0.0:
        limit = d_star * (1.0 + _D_STAR_SLACK)
        subs = encoding.sub_objectives
        term, source, coeff, bound = _summed_terms(subs)
        alpha = np.array([alphas[(s.clause_index, s.part)] for s in subs])
        size = len(bound)
        # The raised objective's coefficients, summed exactly as
        # with_coefficients sums them (bincount adds in input order).
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
            alphas = {
                key: 1.0 + scale * (value - 1.0) for key, value in alphas.items()
            }

    return CoefficientAdjustment(
        encoding=encoding.with_coefficients(alphas),
        d_star=d_star,
        alphas=alphas,
        d_values=d_values,
    )
