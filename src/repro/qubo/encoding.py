"""3-SAT → objective-function encoding (Equations 3–5).

Every 3-literal clause ``c_k = l1 ∨ l2 ∨ l3`` is decomposed with a
fresh auxiliary variable ``a_k`` into

    c_{k,1} = a_k ↔ (l1 ∨ l2)        (Eq. 3)
    c_{k,2} = l3 ∨ a_k

whose penalty objectives are (Eq. 4, with ``H_l = x`` / ``1 - x``):

    H_{c_k,1} = a + H1 + H2 − 2aH1 − 2aH2 + H1H2
    H_{c_k,2} = 1 − a − H3 + aH3

Each sub-objective is zero exactly when its sub-clause is satisfied and
positive otherwise; the formula objective is the coefficient-weighted
sum of Eq. 5.  Clauses of width 1 or 2 need no auxiliary variable: the
direct product penalty ``Π (1 − H_li)`` is already at most quadratic.

A clause's sub-objectives depend only on its width and sign pattern,
its *shape*.  :func:`encode_clause` runs once per shape, on template
variables; encoding a :class:`~repro.sat.cnf.ClauseTable` gathers each
clause's shape terms with its own variables in place.  Summing adds the
gathered terms one at a time, in sub-objective order: the values and
dict key order of adding each sub-objective's dict in turn.  The
frontend library (``core/frontend.c``) does both when it loads: its
``encode_run`` gathers the shape terms of a whole table in one call,
and its ``sum_terms`` replays those dict adds into
:class:`~repro.qubo.ising.LogicalArrays`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from itertools import accumulate
from typing import List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cdcl import native
from repro.qubo.ising import LinearExpr, LogicalArrays, QuadraticObjective
from repro.sat.cnf import CNF, Clause, ClauseTable


@dataclass(frozen=True)
class SubClauseObjective:
    """One Eq. 4 sub-objective with its Eq. 5 coefficient.

    Part ``part`` (``c_{k,1}`` / ``c_{k,2}``; width-<=2 clauses have
    part 1 only) of encoded clause ``clause_index``: the *unweighted*
    penalty ``objective`` and the α ``coefficient`` it is summed with.
    """

    clause_index: int
    part: int
    objective: QuadraticObjective
    coefficient: float = 1.0

    def d_value(self) -> float:
        """The Eq. 7 per-sub-clause maximum coefficient ``d_{i,j}``
        (measured on the unweighted objective)."""
        return self.objective.d_star()


class Layout(NamedTuple):
    """Where an encoding's sub-objectives and terms come from.

    Sub-objective ``j`` belongs to clause ``sub_clause[j]`` as part
    ``sub_part[j]`` (1 or 2), with constant ``offset[j]`` and Eq. 7
    ``d_value[j]``.  Term ``i`` adds ``coeff[i]`` (unweighted) to key
    ``keys[i]`` of sub-objective ``sub[i]``: a pair ``u < v``, or
    ``(v, v)`` for the linear term of ``v``.  Terms run in
    sub-objective order, each sub-objective's in its dict order.
    """

    sub_clause: np.ndarray
    sub_part: np.ndarray
    offset: np.ndarray
    d_value: np.ndarray
    keys: np.ndarray
    sub: np.ndarray
    coeff: np.ndarray


@lru_cache(maxsize=None)
def _shapes():
    """Per shape ``2^w − 2 + Σ 2^i·[literal i positive]``: its part
    count, each part's ``(offset, d_ij)``, and a padded ``(ok, slots,
    part, coeff)`` table of its terms, read off :func:`encode_clause`
    on variables 1..3 and auxiliary 4 (slot ``s`` holds variable
    ``s + 1``)."""
    shapes = [
        encode_clause(
            Clause([v if signs >> (v - 1) & 1 else -v for v in range(1, width + 1)]),
            4 if width == 3 else None,
        )
        for width in (1, 2, 3)
        for signs in range(1 << width)
    ]
    listed = [
        [
            (pair, part, c)
            for part, sub in enumerate(subs)
            for pair, c in (
                [((v, v), c) for v, c in sub.objective.linear.items()]
                + list(sub.objective.quadratic.items())
            )
        ]
        for subs in shapes
    ]
    ok = np.zeros((len(shapes), max(map(len, listed))), bool)
    slots = np.zeros(ok.shape + (2,), np.intp)
    part, coeff = np.zeros(ok.shape, np.intp), np.zeros(ok.shape)
    parts = np.zeros((len(shapes), 2, 2))
    for shape, subs in enumerate(shapes):
        for j, sub in enumerate(subs):
            parts[shape, j] = sub.objective.offset, sub.d_value()
        for t, (pair, j, c) in enumerate(listed[shape]):
            ok[shape, t], slots[shape, t], part[shape, t], coeff[shape, t] = (
                True, np.subtract(pair, 1), j, c,
            )
    return np.array([len(subs) for subs in shapes]), parts, (ok, slots, part, coeff)


@lru_cache(maxsize=None)
def _shape_tables():
    """:func:`_shapes` as the contiguous arrays the frontend library's
    ``encode_run`` reads (kept alive here), their addresses, the term
    slots per shape and the most parts of a shape."""
    num_subs, parts, (ok, slots, part, coeff) = _shapes()
    tables = (
        np.ascontiguousarray(num_subs, np.int64),
        np.ascontiguousarray(parts, float),
        np.count_nonzero(ok, axis=1).astype(np.int64),  # ok is a prefix
        np.ascontiguousarray(slots, np.int64),
        np.ascontiguousarray(part, np.int64),
        np.ascontiguousarray(coeff, float),
    )
    pointers = [native.address(table) for table in tables]
    return tables, pointers, ok.shape[1], int(num_subs.max())


def _gather(shape: np.ndarray, variables: np.ndarray) -> Layout:
    """Every clause's shape terms, its ``variables`` row (literal
    variables, then the auxiliary) filling the template's slots."""
    num_subs, parts, (ok, slots, part, coeff) = _shapes()
    counts = num_subs[shape]
    first = np.cumsum(counts) - counts
    clause = np.repeat(np.arange(len(counts)), counts)
    sub_part = np.arange(len(clause)) - first[clause]
    rows, t = np.nonzero(ok[shape])
    s = shape[rows]
    offset, d_value = np.ascontiguousarray(parts[shape[clause], sub_part].T)
    return Layout(
        clause, sub_part + 1, offset, d_value,
        keys=variables[rows[:, None], slots[s, t]],
        sub=first[rows] + part[s, t],
        coeff=coeff[s, t],
    )


@dataclass(frozen=True, eq=False)
class FormulaEncoding:
    """A complete Eq. 5 encoding of a clause set.

    ``clauses`` (three literal columns) are encoded in order; ``aux``
    holds each clause's auxiliary variable (0 below width 3), ``alpha``
    the Eq. 5 coefficient of each sub-objective (clause order, part 1
    first) and ``layout`` where each comes from.  Variables above
    ``num_formula_vars`` are auxiliary.  The dict views are built when
    first read.
    """

    clauses: ClauseTable
    aux: np.ndarray
    alpha: np.ndarray
    num_formula_vars: int
    layout: Layout

    @property
    def sub_keys(self) -> List[Tuple[int, int]]:
        """``(clause_index, part)`` of each sub-objective."""
        layout = self.layout
        return list(zip(layout.sub_clause.tolist(), layout.sub_part.tolist()))

    @property
    def aux_of_clause(self) -> Tuple[Optional[int], ...]:
        """Auxiliary variable of each clause (None for width <= 2)."""
        return tuple(a or None for a in self.aux.tolist())

    @property
    def aux_variables(self) -> Tuple[int, ...]:
        """All auxiliary variables, in clause order."""
        return tuple(a for a in self.aux.tolist() if a)

    @cached_property
    def objective(self) -> QuadraticObjective:
        """The summed objective ``Σ α_{k,j} H_{c_k,j}``."""
        return self.objective_over(range(len(self.clauses)))

    def objective_over(self, clauses: Sequence[int]) -> QuadraticObjective:
        """``Σ α·H`` over the sub-objectives of ``clauses`` only, adding
        their terms one at a time in sub-objective order: the values and
        dict key order of adding their dicts one by one."""
        layout = self.layout
        chosen = np.isin(layout.sub_clause, list(clauses))
        total = QuadraticObjective()
        for constant in (self.alpha * layout.offset)[chosen].tolist():
            total.add_constant(constant)
        keep = chosen[layout.sub]
        keys = layout.keys[keep].tolist()
        weights = (self.alpha[layout.sub] * layout.coeff)[keep].tolist()
        for (u, v), weight in zip(keys, weights):
            if u == v:
                total.add_linear(u, weight)
            else:
                total.add_quadratic(u, v, weight)
        return total

    def terms_over(self, clauses: Sequence[int]) -> LogicalArrays:
        """:meth:`objective_over` as :class:`LogicalArrays`: the same
        values in the same key order, summed in the frontend library
        (through the dict when no library loads)."""
        kernel = native.load_frontend_kernel()
        if kernel is None:
            return LogicalArrays.from_objective(self.objective_over(clauses))
        layout = self.layout
        chosen = np.zeros(len(self.clauses), np.uint8)
        chosen[list(clauses)] = 1
        inputs = [
            np.ascontiguousarray(layout.sub_clause, np.int64),
            np.ascontiguousarray(layout.offset, float),
            np.ascontiguousarray(self.alpha, float),
            chosen,
            np.ascontiguousarray(layout.keys, np.int64),
            np.ascontiguousarray(layout.sub, np.int64),
            np.ascontiguousarray(layout.coeff, float),
        ]
        terms = len(layout.coeff)
        ints, floats = np.empty(4 * terms + 3, np.int64), np.empty(terms + 1)
        pointers = [native.address(a) for a in inputs]
        if kernel.sum_terms(
            len(layout.sub_clause), *pointers[:4], terms, *pointers[4:],
            native.address(ints), native.address(floats),
        ):
            raise MemoryError("sum_terms could not allocate its tables")
        linear, quadratic, variables = ints[:3].tolist()
        rows = 3 + variables + linear
        return LogicalArrays(
            variables=ints[3 : 3 + variables],
            linear_index=ints[3 + variables : rows],
            linear=floats[1 : 1 + linear],
            quadratic_rows=ints[rows : rows + quadratic],
            quadratic_cols=ints[rows + quadratic : rows + 2 * quadratic],
            quadratic=floats[1 + linear : 1 + linear + quadratic],
            offset=float(floats[0]),
        )

    @cached_property
    def sub_objectives(self) -> Tuple[SubClauseObjective, ...]:
        """The individual weighted parts (ablation and Sec. IV-C input)."""
        alphas = iter(self.alpha.tolist())
        return tuple(
            replace(sub, coefficient=next(alphas))
            for k, (clause, aux) in enumerate(zip(self.clauses, self.aux_of_clause))
            for sub in encode_clause(clause, aux, clause_index=k)
        )

    def with_coefficients(
        self, alphas: Union[Mapping[Tuple[int, int], float], np.ndarray]
    ) -> "FormulaEncoding":
        """The same encoding with new α values.

        ``alphas`` is the array of every sub-objective's coefficient, or
        a mapping from ``(clause_index, part)`` to the coefficient in
        which missing keys keep their current value.
        """
        if isinstance(alphas, np.ndarray):
            if alphas.shape != self.alpha.shape:
                raise ValueError(
                    f"expected {len(self.alpha)} coefficients, got {alphas.shape}"
                )
            values = alpha = np.array(alphas, dtype=float)
        else:
            values = [
                alphas.get(key, old)
                for key, old in zip(self.sub_keys, self.alpha.tolist())
            ]
            alpha = np.array(values, dtype=float)
        bad = np.flatnonzero(alpha <= 0)
        if bad.size:
            raise ValueError(
                f"sub-clause coefficient must be positive, got {values[bad[0]]}"
            )
        return replace(self, alpha=alpha)


def encode_clause(
    clause: Clause, aux_var: Optional[int], clause_index: int = 0
) -> List[SubClauseObjective]:
    """Encode one clause into its Eq. 4 sub-objectives (α = 1).

    ``aux_var`` must be provided for 3-literal clauses and must be None
    for narrower ones.
    """
    lits = clause.lits
    if len(lits) > 3:
        raise ValueError(
            f"encode_clause expects width <= 3 (reduce with repro.sat.to_3sat), "
            f"got width {len(lits)}"
        )
    if clause.is_empty:
        raise ValueError("cannot encode the empty clause")
    if clause.is_tautology:
        raise ValueError(f"cannot encode tautological clause {clause}")

    exprs = [LinearExpr.literal(lit.var, lit.positive) for lit in lits]

    if len(lits) <= 2:
        if aux_var is not None:
            raise ValueError("width-<=2 clauses take no auxiliary variable")
        # Penalty Π (1 - H_li): 1 iff every literal is false.
        penalty = QuadraticObjective()
        one_minus = [
            LinearExpr(1.0 - e.const, {v: -c for v, c in e.terms.items()})
            for e in exprs
        ]
        if len(one_minus) == 1:
            one_minus[0].add_into(penalty)
        else:
            one_minus[0].multiply_into(one_minus[1], penalty)
        return [SubClauseObjective(clause_index, 1, penalty)]

    if aux_var is None:
        raise ValueError("3-literal clauses require an auxiliary variable")
    h1, h2, h3 = exprs
    a = LinearExpr.variable(aux_var)

    # H_{c_k,1} = a + H1 + H2 - 2 a H1 - 2 a H2 + H1 H2
    part1 = QuadraticObjective()
    a.add_into(part1)
    h1.add_into(part1)
    h2.add_into(part1)
    a.multiply_into(h1, part1, scale=-2.0)
    a.multiply_into(h2, part1, scale=-2.0)
    h1.multiply_into(h2, part1)

    # H_{c_k,2} = 1 - a - H3 + a H3
    part2 = QuadraticObjective(offset=1.0)
    a.add_into(part2, scale=-1.0)
    h3.add_into(part2, scale=-1.0)
    a.multiply_into(h3, part2)

    return [
        SubClauseObjective(clause_index, 1, part1),
        SubClauseObjective(clause_index, 2, part2),
    ]


def encode_formula(
    clauses: Union[Sequence[Clause], ClauseTable],
    num_formula_vars: int,
    first_aux_var: Optional[int] = None,
) -> FormulaEncoding:
    """Encode a clause list into the Eq. 5 formula objective (α = 1).

    ``clauses`` are width-<=3 :class:`Clause` objects or a
    ``ClauseTable`` (use :func:`repro.sat.to_3sat` first if needed),
    possibly a *subset* of a formula: HyQSAT's frontend encodes only
    the clause queue.  Auxiliary variables are numbered from
    ``first_aux_var``, by default ``num_formula_vars + 1``.
    """
    table = clauses if isinstance(clauses, ClauseTable) else ClauseTable.of(clauses)
    first = num_formula_vars + 1 if first_aux_var is None else first_aux_var
    kernel = native.load_frontend_kernel()
    if kernel is not None:
        encoding = _encode_native(kernel, table, num_formula_vars, first)
        if encoding is not None:
            return encoding
    variables = np.abs(table.lits)
    max_mentioned = int(variables.max(initial=0))
    if max_mentioned > num_formula_vars:
        raise ValueError(
            f"clause mentions variable {max_mentioned} > num_formula_vars="
            f"{num_formula_vars}"
        )
    width = np.count_nonzero(variables, axis=1)
    bad = (width == 0) | (width > 3) | table.tautological()
    if bad.any():
        encode_clause(table[int(np.argmax(bad))], None)  # raises the reason
    lits = np.ascontiguousarray(np.pad(table.lits, ((0, 0), (0, 3)))[:, :3])
    shape = (1 << width) - 2 + (lits > 0) @ np.array([1, 2, 4])
    has_aux = width == 3
    aux = np.where(has_aux, first + np.cumsum(has_aux) - 1, 0)
    layout = _gather(shape, np.column_stack([np.abs(lits), aux]))
    return FormulaEncoding(
        clauses=ClauseTable(lits),
        aux=aux,
        alpha=np.ones(len(layout.sub_clause)),
        num_formula_vars=num_formula_vars,
        layout=layout,
    )


def _encode_native(
    kernel, table: ClauseTable, num_formula_vars: int, first: int
) -> Optional[FormulaEncoding]:
    """:func:`encode_formula` in the frontend library's ``encode_run``:
    the same arrays, each a view of one of two output buffers; ``None``
    when a row is invalid (the NumPy path raises the reason) or the
    table is not int64 (the NumPy path keeps its dtype)."""
    if table.lits.dtype != np.int64:
        return None
    lits = np.ascontiguousarray(table.lits)
    n, width = lits.shape
    _, pointers, slots, most = _shape_tables()
    ints = np.empty(2 + (4 + 2 * most + 3 * slots) * n, np.int64)
    floats = np.empty((2 * most + slots) * n)
    if kernel.encode_run(
        n, width, native.address(lits), num_formula_vars, first, *pointers,
        slots, native.address(ints), native.address(floats),
    ):
        return None
    subs, terms = ints[:2].tolist()
    ends = list(accumulate([2, 3 * n, n, subs, subs, 2 * terms, terms]))
    return FormulaEncoding(
        clauses=ClauseTable(ints[ends[0] : ends[1]].reshape(n, 3)),
        aux=ints[ends[1] : ends[2]],
        alpha=np.ones(subs),
        num_formula_vars=num_formula_vars,
        layout=Layout(
            sub_clause=ints[ends[2] : ends[3]],
            sub_part=ints[ends[3] : ends[4]],
            offset=floats[:subs],
            d_value=floats[subs : 2 * subs],
            keys=ints[ends[4] : ends[5]].reshape(terms, 2),
            sub=ints[ends[5] : ends[6]],
            coeff=floats[2 * subs : 2 * subs + terms],
        ),
    )


def encode_cnf(formula: CNF) -> FormulaEncoding:
    """Encode an entire :class:`~repro.sat.cnf.CNF` formula."""
    return encode_formula(list(formula.clauses), formula.num_vars)
