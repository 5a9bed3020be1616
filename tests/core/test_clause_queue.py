"""Tests for clause queue generation (Section IV-A)."""

import numpy as np
import pytest

from repro.core.clause_queue import TOP_K, ClauseQueueGenerator, top_k
from repro.sat.cnf import CNF, Clause


@pytest.fixture
def chain_formula():
    """Clauses sharing variables in a chain: 0-1 share x2, 1-2 share x3..."""
    return CNF(
        [
            Clause([1, 2]),
            Clause([2, 3]),
            Clause([3, 4]),
            Clause([4, 5]),
            Clause([6, 7]),  # separate component
        ],
        num_vars=7,
    )


#: The BFS queue from each head of ``chain_formula``: clauses sharing a
#: variable with the head first, then theirs; clause 4 shares none.
BFS_FROM = {
    0: [0, 1, 2, 3],
    1: [1, 0, 2, 3],
    2: [2, 1, 3, 0],
    3: [3, 2, 1, 0],
    4: [4],
}


class TestActivityQueue:
    def test_head_is_drawn_from_the_top_k(self):
        """The head is always one of the TOP_K highest-activity
        clauses, and the draw among them is random."""
        num = TOP_K + 10
        formula = CNF([Clause([v]) for v in range(1, num + 1)], num_vars=num)
        gen = ClauseQueueGenerator(formula, seed=0)
        activity = [float(i) for i in range(formula.num_clauses)]
        heads = {gen.generate(activity, capacity=1)[0] for _ in range(200)}
        assert heads <= set(range(10, num))
        assert len(heads) > 1

    def test_bfs_order_follows_shared_variables(self, chain_formula):
        gen = ClauseQueueGenerator(chain_formula, seed=0)
        heads = set()
        for _ in range(40):
            queue = gen.generate([1.0] * 5, capacity=5)
            heads.add(queue[0])
            assert queue == BFS_FROM[queue[0]]
        assert len(heads) > 1

    def test_capacity_respected(self, chain_formula):
        gen = ClauseQueueGenerator(chain_formula, seed=0)
        queue = gen.generate(
            [5.0, 1, 1, 1, 1], capacity=2, candidates=[0, 1, 2, 3]
        )
        assert len(queue) == 2

    def test_candidates_restrict_queue(self, chain_formula):
        gen = ClauseQueueGenerator(chain_formula, seed=0)
        queue = gen.generate([1.0] * 5, capacity=5, candidates=[2, 3])
        assert set(queue) <= {2, 3}

    def test_empty_candidates(self, chain_formula):
        gen = ClauseQueueGenerator(chain_formula, seed=0)
        assert gen.generate([1.0] * 5, capacity=5, candidates=[]) == []

    def test_zero_capacity(self, chain_formula):
        gen = ClauseQueueGenerator(chain_formula, seed=0)
        assert gen.generate([1.0] * 5, capacity=0) == []

    def test_activity_length_validated(self, chain_formula):
        gen = ClauseQueueGenerator(chain_formula)
        with pytest.raises(ValueError):
            gen.generate([1.0], capacity=3)

    def test_random_head_varies_without_score_updates(self, chain_formula):
        """The paper randomises the head draw so repeated calls do not
        re-deploy the same queue."""
        gen = ClauseQueueGenerator(chain_formula, seed=1)
        heads = {gen.generate([1.0] * 5, capacity=1)[0] for _ in range(30)}
        assert len(heads) > 1

    def test_no_duplicates(self, chain_formula):
        gen = ClauseQueueGenerator(chain_formula, seed=2)
        queue = gen.generate([1.0] * 5, capacity=5)
        assert len(queue) == len(set(queue))


class TestRandomQueue:
    def test_respects_capacity_and_pool(self, chain_formula):
        gen = ClauseQueueGenerator(chain_formula, seed=0)
        queue = gen.generate_random(3, candidates=[0, 1, 2, 3])
        assert len(queue) == 3
        assert set(queue) <= {0, 1, 2, 3}

    def test_takes_all_when_capacity_exceeds_pool(self, chain_formula):
        gen = ClauseQueueGenerator(chain_formula, seed=0)
        queue = gen.generate_random(99)
        assert sorted(queue) == [0, 1, 2, 3, 4]

    def test_empty_pool(self, chain_formula):
        gen = ClauseQueueGenerator(chain_formula, seed=0)
        assert gen.generate_random(3, candidates=[]) == []


class TestLocality:
    def test_bfs_queue_has_higher_variable_locality_than_random(self):
        """Adjacent queue clauses should share variables far more often
        under BFS generation than random generation."""
        rng = np.random.default_rng(0)
        clauses = []
        for _ in range(120):
            vs = rng.choice(np.arange(1, 61), size=3, replace=False)
            clauses.append(Clause([int(v) for v in vs]))
        formula = CNF(clauses, num_vars=60)
        gen = ClauseQueueGenerator(formula, seed=0)

        def adjacency_share(queue):
            shares = 0
            for a, b in zip(queue, queue[1:]):
                if formula.clauses[a].variables & formula.clauses[b].variables:
                    shares += 1
            return shares / max(1, len(queue) - 1)

        bfs = gen.generate([1.0] * 120, capacity=40)
        rand = gen.generate_random(40)
        assert adjacency_share(bfs) > adjacency_share(rand)


class TestTopK:
    """``top_k`` takes the key sort's TOP_K list, in its order."""

    @staticmethod
    def _key_sort(activity, pool):
        return sorted(pool, key=lambda i: (-activity[i], i))[:TOP_K]

    @pytest.mark.parametrize("seed", range(5))
    def test_equals_the_key_sort_with_ties(self, seed):
        rng = np.random.default_rng(seed)
        num = 200
        pool = rng.permutation(num)[: int(rng.integers(1, num))].tolist()
        cases = [
            [0.0] * num,  # the first call: every activity still zero
            rng.integers(0, 4, num).astype(float).tolist(),  # heavy ties
            rng.random(num).tolist(),
            np.concatenate([rng.random(num // 2), np.zeros(num - num // 2)]),
        ]
        for activity in cases:
            assert top_k(activity, pool).tolist() == self._key_sort(activity, pool)

    def test_short_pool_keeps_every_clause(self):
        activity = [3.0, 1.0, 3.0, 2.0]
        assert top_k(activity, [3, 2, 1, 0]).tolist() == [0, 2, 3, 1]

    def test_heads_match_a_draw_from_the_key_sort(self):
        formula = CNF([Clause([v]) for v in range(1, 61)], num_vars=60)
        activity = np.random.default_rng(9).integers(0, 3, 60).astype(float)
        gen = ClauseQueueGenerator(formula, seed=4)
        replay = np.random.default_rng(4)
        for _ in range(20):
            expected = int(replay.choice(np.array(self._key_sort(activity, range(60)))))
            assert gen.generate(activity, capacity=1) == [expected]
