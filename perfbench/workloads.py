"""Seeded inputs of the benchmark's workloads.

Every workload turns ``--seed`` into a job list and nothing else: the
program receives only DIMACS text.  Instances are held here as lists
of signed-integer clauses, the form the answer checks read.

The lists are stratified so that a run's total work depends little on
the seed (README.md, "Steadiness"):

- each ``batch-hard`` job is the median-effort one of three
  unsatisfiable draws, and the jobs go in longest first;
- ``gateway-zipf`` gives each popularity rank to a fixed family, and
  CFA a fixed mix of instances the gateway's router fails on and
  instances it solves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

Clauses = List[List[int]]

#: Clause/variable ratio of uniform random 3-SAT at the phase transition.
RATIO = 4.26

#: Candidates per batch-hard job; the median-effort one is kept.
DRAWS = 3

#: Large enough that the CDCL search is the biggest layer of a solve,
#: small enough that one worker finishes several jobs a run.
BATCH_VARS = 170

#: (benchgen family, distinct instances) of the zipf part of
#: ``gateway-zipf``; ranks are dealt round-robin in this order, with
#: the near-miss variants after IF2.  BP leads: its instances all have
#: one size, and with the top rank its reads hold the middle of the
#: latency distribution (GC1, CRY and II read faster, IF2 slower), so
#: the median is a BP read on every seed rather than whichever family
#: straddles the middle.
GATEWAY_FAMILIES = (
    ("BP", 7), ("GC1", 7), ("II", 7), ("IF2", 5), ("CRY", 1),
)
#: CFA sits outside the zipf part: this many instances with
#: tautological clauses (the gateway's router rejects those) and as
#: many without, each submitted ``CFA_SUBMISSIONS`` times.  A fixed mix
#: keeps both the failures and the CFA solve work the same every run.
CFA_EACH = 3
CFA_SUBMISSIONS = 5
#: Zipf exponent of the submission stream.
ZIPF_S = 1.0


@dataclass
class Instance:
    """One distinct formula and the answer the checks expect."""

    name: str
    num_vars: int
    clauses: Clauses
    #: Classic-CDCL status ("sat"/"unsat"), computed outside timing.
    reference: str
    #: Solver seed sent with the job (gateway-zipf).
    seed: int = 0
    #: For near-miss variants: the instance they were derived from.
    parent: Optional[str] = None
    #: Classic-CDCL propagations of the reference solve (batch-hard).
    props: int = 0

    def dimacs(self) -> str:
        lines = [f"p cnf {self.num_vars} {len(self.clauses)}"]
        lines.extend(" ".join(map(str, clause)) + " 0" for clause in self.clauses)
        return "\n".join(lines) + "\n"


@dataclass
class GatewayStream:
    items: Dict[str, Instance]
    #: Submission order, as item names; repeats are cache reads.
    order: List[str]


def _int_clauses(formula) -> Clauses:
    return [[lit.value for lit in clause] for clause in formula.clauses]


def reference(num_vars: int, clauses: Clauses) -> Tuple[str, int]:
    """(status, propagations) from the classic CDCL preset."""
    from repro.cdcl.presets import minisat_solver
    from repro.sat.cnf import CNF, Clause

    formula = CNF([Clause(c) for c in clauses], num_vars=num_vars)
    result = minisat_solver(formula, engine="fast").solve()
    return result.status.value, result.stats.propagations


def _random_3sat(num_vars: int, rng: np.random.Generator) -> Clauses:
    from repro.benchgen.random_ksat import random_3sat

    return _int_clauses(random_3sat(num_vars, round(RATIO * num_vars), rng))


def batch_hard(seed: int, jobs: int) -> List[Instance]:
    """``jobs`` unsatisfiable instances of ``BATCH_VARS`` variables.
    Each is the middle one, by classic propagations, of ``DRAWS``
    unsatisfiable draws, which trims the rare very easy or very hard
    instance.  They go in longest first, so the median completion time
    covers the longer half of the work on every seed."""
    rng = np.random.default_rng([seed, 2])
    chosen: List[Instance] = []
    for index in range(jobs):
        draws = []
        while len(draws) < DRAWS:
            clauses = _random_3sat(BATCH_VARS, rng)
            status, props = reference(BATCH_VARS, clauses)
            if status == "unsat":
                draws.append(Instance(f"uf{BATCH_VARS}-{index}", BATCH_VARS,
                                      clauses, status, props=props))
        draws.sort(key=lambda draw: draw.props)
        chosen.append(draws[DRAWS // 2])
    chosen.sort(key=lambda job: -job.props)
    return chosen


def _has_tautology(clauses: Clauses) -> bool:
    return any(-lit in clause for clause in clauses for lit in clause)


def _family_instances(family: str, count: int, seed: int, keep=None) -> List[Instance]:
    """Up to ``count`` distinct instances of a benchgen family (those
    ``keep`` accepts, when given)."""
    from repro.benchgen import BENCHMARKS

    seen = set()
    found: List[Instance] = []
    for index in range(16 * count):
        formula = BENCHMARKS[family].generate(index, seed=seed)
        clauses = _int_clauses(formula)
        key = tuple(sorted(tuple(sorted(c)) for c in clauses))
        if key in seen or (keep is not None and not keep(clauses)):
            continue
        seen.add(key)
        found.append(
            Instance(f"{family}-{index}", formula.num_vars, clauses, "")
        )
        if len(found) == count:
            break
    return found


def _drop_variant(parent: Instance, rng: np.random.Generator, k: int = 3) -> Instance:
    drop = set(rng.choice(len(parent.clauses), size=k, replace=False).tolist())
    clauses = [c for i, c in enumerate(parent.clauses) if i not in drop]
    return Instance(f"{parent.name}-drop", parent.num_vars, clauses, "",
                    parent=parent.name)


def _add_variant(parent: Instance, rng: np.random.Generator, k: int = 3) -> Instance:
    extra = []
    for _ in range(k):
        variables = rng.choice(parent.num_vars, size=3, replace=False) + 1
        signs = rng.choice((-1, 1), size=3)
        extra.append([int(v * s) for v, s in zip(variables, signs)])
    return Instance(f"{parent.name}-add", parent.num_vars,
                    parent.clauses + extra, "", parent=parent.name)


def gateway_zipf(seed: int, submissions: int) -> GatewayStream:
    """A zipf stream over every family's instances plus near-misses."""
    rng = np.random.default_rng([seed, 3])
    by_family: Dict[str, List[Instance]] = {
        family: _family_instances(family, count, seed)
        for family, count in GATEWAY_FAMILIES
    }
    # Near misses: satisfiable parents lose clauses (a subset of a SAT
    # instance), any parent gains clauses (a superset).
    variants = [
        _drop_variant(by_family[family][0], rng)
        for family in ("GC1", "BP", "II", "IF2")
    ] + [
        _add_variant(by_family[family][1 if family != "CRY" else 0], rng)
        for family in ("CRY", "GC1", "BP", "II")
    ]
    by_family["variant"] = variants
    by_family["CFA"] = _family_instances(
        "CFA", CFA_EACH, seed, _has_tautology
    ) + _family_instances(
        "CFA", CFA_EACH, seed, lambda clauses: not _has_tautology(clauses)
    )

    items: Dict[str, Instance] = {}
    for family_items in by_family.values():
        for item in family_items:
            item.reference, _ = reference(item.num_vars, item.clauses)
            items[item.name] = item

    # Deal popularity ranks round-robin over a fixed family order; the
    # seed only decides which instance of a family takes which slot.
    queues = {
        family: [family_items[i] for i in rng.permutation(len(family_items))]
        for family, family_items in by_family.items()
    }
    family_order = ["BP", "GC1", "II", "IF2", "variant", "CRY"]
    ranked: List[Instance] = []
    while any(queues[family] for family in family_order):
        for family in family_order:
            if queues[family]:
                ranked.append(queues[family].pop(0))
    weights = 1.0 / np.arange(1, len(ranked) + 1) ** ZIPF_S
    weights *= submissions / weights.sum()
    order: List[str] = []
    for item, weight in zip(ranked, weights):
        order.extend([item.name] * max(1, int(round(weight))))
    for item in queues["CFA"]:
        order.extend([item.name] * CFA_SUBMISSIONS)
    order = [order[i] for i in rng.permutation(len(order))]
    # First occurrences (solves and cache writes) go before all repeats
    # (cache reads), so a read does not share the server's interpreter
    # with a solve and the median latency is that of the read path.
    firsts: List[str] = []
    repeats: List[str] = []
    for name in order:
        (repeats if name in firsts else firsts).append(name)
    order = firsts + repeats
    for index, item in enumerate(items.values()):
        item.seed = index
    return GatewayStream(items=items, order=order)


def warmup_instance(num_vars: int, seed: int) -> Instance:
    """A small satisfiable random formula for untimed warm-up jobs."""
    from repro.benchgen.random_ksat import random_3sat

    rng = np.random.default_rng([seed, 9])
    formula = random_3sat(num_vars, round(3.3 * num_vars), rng)
    clauses = _int_clauses(formula)
    status, _ = reference(num_vars, clauses)
    return Instance(f"warmup-{num_vars}", num_vars, clauses, status)
