"""Clause queue generation (Section IV-A).

The queue decides which clauses the annealer accelerates.  The head is
drawn at random from the clauses with the :data:`TOP_K` highest
activity scores (random so repeated calls without score updates do not
re-deploy the identical queue), then the queue grows by breadth-first
traversal: for each clause in the queue, clauses sharing one of its
variables are pushed, variable by variable, until the capacity bound is
hit.  BFS over shared variables maximises variable locality, which is
what lets the embedder reuse vertical lines and couplers.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

import numpy as np

from repro.sat.cnf import CNF

#: The queue head is drawn from the clauses with the TOP_K highest
#: activity scores (Section IV-A).
TOP_K = 30


class ClauseQueueGenerator:
    """Generates activity-ordered BFS clause queues for a formula.

    The variable -> clauses index is built once per formula; queue
    generation itself is linear in the number of clauses visited.
    """

    def __init__(self, formula: CNF, seed: int = 0):
        self.formula = formula
        self._rng = np.random.default_rng(seed)
        self._clauses_of_var: Dict[int, List[int]] = formula.clause_index()
        #: Each clause's variables in literal order, from the table.
        self._vars_of_clause: List[List[int]] = [
            [abs(lit) for lit in row if lit]
            for row in formula.table.lits.tolist()
        ]

    def generate(
        self,
        activity: Sequence[float],
        capacity: int,
        candidates: Optional[Sequence[int]] = None,
    ) -> List[int]:
        """Build a clause queue of at most ``capacity`` clause indices.

        Parameters
        ----------
        activity:
            Per-clause activity scores (Section IV-A), indexed like the
            formula's clauses.
        capacity:
            Maximum queue length (the QA embedding capacity).
        candidates:
            Restrict the queue to these clause indices (the hybrid
            solver passes the currently-unsatisfied clauses).  None
            means all clauses.
        """
        if capacity < 1:
            return []
        if len(activity) != self.formula.num_clauses:
            raise ValueError(
                f"activity length {len(activity)} != num_clauses "
                f"{self.formula.num_clauses}"
            )
        pool = list(candidates) if candidates is not None else list(
            range(self.formula.num_clauses)
        )
        if not pool:
            return []
        allowed: Set[int] = set(pool)

        head = self._pick_head(activity, pool)
        queue: List[int] = [head]
        in_queue: Set[int] = {head}
        cursor = 0
        while cursor < len(queue) and len(queue) < capacity:
            variables = self._vars_of_clause[queue[cursor]]
            cursor += 1
            for var in variables:
                for other in self._clauses_of_var.get(var, ()):
                    if other in in_queue or other not in allowed:
                        continue
                    queue.append(other)
                    in_queue.add(other)
                    if len(queue) >= capacity:
                        return queue
        return queue

    def generate_random(
        self,
        capacity: int,
        candidates: Optional[Sequence[int]] = None,
    ) -> List[int]:
        """The Figure 14 baseline: a uniformly random clause queue."""
        pool = list(candidates) if candidates is not None else list(
            range(self.formula.num_clauses)
        )
        if not pool or capacity < 1:
            return []
        take = min(capacity, len(pool))
        picked = self._rng.choice(np.array(pool), size=take, replace=False)
        return [int(i) for i in picked]

    def _pick_head(self, activity: Sequence[float], pool: List[int]) -> int:
        """Random draw from the TOP_K activity clauses of the pool."""
        return int(self._rng.choice(top_k(activity, pool)))


def top_k(activity: Sequence[float], pool: Sequence[int]) -> np.ndarray:
    """The pool's TOP_K clauses by activity, highest first and ties by
    clause index: ``sorted(pool, key=lambda i: (-activity[i], i))[:TOP_K]``
    as one ``np.lexsort``."""
    indices = np.asarray(pool, dtype=np.int64)
    scores = np.asarray(activity, dtype=float)[indices]
    return indices[np.lexsort((indices, -scores))[:TOP_K]]
