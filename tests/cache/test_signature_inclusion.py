"""The signature inclusion test against its set oracle.

The subsumption scans ask whether every clause signature of one
instance is among another's, on the packed, sorted 16-byte blobs the
cache DB holds: one ``sigs_subset`` call into the formula-read library
(``repro/sat/table.c``) when it loads, else
:func:`~repro.cache.signature.sigs_subset` over the unpacked lists.
Both must answer ``set(a) <= set(b)``, and a whole ``gateway-zipf``
stream's near misses must get the same answers and donors either way.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache import PersistentResultStore
from repro.cache.signature import blob_subset_test, pack_signatures
from repro.cdcl import native
from repro.sat import fingerprint
from repro.service import JobSpec

from tests.cache.conftest import record_solve

SWEEP = 3000

ZEROS = bytes(16)
ONES = b"\xff" * 16


def record(*head: int) -> bytes:
    """A 16-byte record: ``head`` then zero bytes."""
    return bytes(head) + bytes(16 - len(head))


#: Sorted, distinct records; the later ones end in zero bytes, which a
#: NumPy ``S16`` view would strip.
R = sorted([
    record(1, 7), record(3, 7, 9), record(3, 7, 9, 1), record(5),
    record(9, 0, 0, 2),
])

EDGES = {
    "both empty": ([], [], True),
    "empty smaller": ([], R, True),
    "empty larger": (R[:1], [], False),
    "equal": (R, R, True),
    "duplicates in smaller": ([R[0], R[0], R[2], R[2]], R, True),
    "duplicates in larger": (R[1:3], [R[1], R[1], R[2], R[2], R[2]], True),
    "duplicate of a missing record": ([R[1], R[4], R[4]], R[:4], False),
    "missing at start": (R, R[1:], False),
    "missing in middle": (R, R[:2] + R[3:], False),
    "missing at end": (R, R[:-1], False),
    "below every record": ([record(0, 1)], R, False),
    "above every record": ([ONES], R, False),
    "all-0x00 record": ([ZEROS], [ZEROS, R[0], ONES], True),
    "all-0xFF record": ([ONES], [ZEROS, R[0], ONES], True),
    "all-0x00 record missing": ([ZEROS], R + [ONES], False),
    "all-0xFF record missing": ([ONES], [ZEROS] + R, False),
    "trailing zero bytes differ": ([record(5)], [record(5, 0, 1)], False),
    "trailing zero bytes match": (
        [record(3, 7, 9)], [record(3, 7, 9, 0)], True
    ),
    "last byte differs": (
        [ZEROS[:15] + b"\x01"], [ZEROS, ZEROS[:15] + b"\x02"], False
    ),
}


def pool_record(rng: np.random.Generator, base: bytes) -> bytes:
    """One byte off ``base`` (long shared prefixes), a short head then
    zero bytes, or 16 random bytes."""
    kind = int(rng.integers(0, 3))
    if kind == 0:
        changed = bytearray(base)
        changed[int(rng.integers(0, 16))] = int(rng.integers(0, 256))
        return bytes(changed)
    if kind == 1:
        return record(*rng.integers(0, 256, size=int(rng.integers(0, 4))))
    return bytes(rng.integers(0, 256, size=16, dtype=np.uint8))


def sweep_pairs():
    """Seeded sorted signature lists over a small pool, so repeats,
    subsets and near subsets all occur."""
    rng = np.random.default_rng(2805)
    for _ in range(SWEEP):
        base = bytes(rng.integers(0, 256, size=16, dtype=np.uint8))
        pool = sorted(
            {pool_record(rng, base) for _ in range(int(rng.integers(1, 12)))}
        )
        larger = sorted(rng.choice(len(pool), size=int(rng.integers(0, 12))))
        # Half the time draw the smaller side from the larger one.
        source = larger if larger and rng.random() < 0.5 else len(pool)
        smaller = sorted(rng.choice(source, size=int(rng.integers(0, 6))))
        yield [pool[i] for i in smaller], [pool[i] for i in larger]


def test_sweep_matches_set_inclusion(read_paths):
    pairs = list(sweep_pairs())
    assert any(set(a) <= set(b) for a, b in pairs)
    assert any(not set(a) <= set(b) for a, b in pairs)
    for path in read_paths():
        view, subset = blob_subset_test()
        for smaller, larger in pairs:
            expected = set(smaller) <= set(larger)
            a, b = view(pack_signatures(smaller)), view(pack_signatures(larger))
            assert subset(a, b) == expected, (path, smaller, larger)


@pytest.mark.parametrize("name", sorted(EDGES))
def test_edge_cases(name, read_paths):
    smaller, larger, expected = EDGES[name]
    assert (set(smaller) <= set(larger)) == expected
    for path in read_paths():
        view, subset = blob_subset_test()
        a, b = view(pack_signatures(smaller)), view(pack_signatures(larger))
        assert subset(a, b) == expected, path


def test_blob_length_not_a_multiple_of_16_matches_nothing():
    """The C walk refuses a malformed blob on either side, even against
    itself.  (The unpacked path reads the short tail as a record of its
    own, which no 16-byte signature equals; the cache never writes such
    a blob.)"""
    if native.load_table_kernel() is None:
        pytest.skip("the formula-read library does not build here")
    _, subset = blob_subset_test()
    good = pack_signatures(R)
    for bad in (good + b"\x00", good[:-1], b"\x01", R[0] + ZEROS[:15]):
        assert not subset(bad, good)
        assert not subset(good, bad)
        assert not subset(bad, bad)
        assert not subset(b"", bad)


def test_a_corrupt_blob_is_skipped(tmp_path, read_paths):
    """A candidate whose stored blob was cut short answers nothing, and
    the scan goes on to the next candidate."""
    for path in read_paths():
        with PersistentResultStore(str(tmp_path / f"{path}.sqlite")) as store:
            _, core, _ = record_solve(store, "p cnf 1 2\n1 0\n-1 0\n", "unsat")
            query = JobSpec(
                job_id="q", dimacs="p cnf 2 4\n1 0\n-1 0\n2 0\n-2 1 0\n"
            )
            formula = query.load_formula()
            key = query.solve_key(fingerprint(formula))
            store._db.execute(
                "UPDATE instances SET sigs = substr(sigs, 1, 20) "
                "WHERE fingerprint = ?",
                (JobSpec.fingerprint_of(core),),
            )
            assert store.lookup(key, query, formula) is None, path
            record_solve(store, "p cnf 2 3\n1 0\n-1 0\n-2 1 0\n", "unsat")
            hit = store.lookup(key, query, formula)
            assert hit is not None and hit.cache_kind == "unsat", path


def test_gateway_zipf_variants_answer_alike(tmp_path, read_paths):
    """Every near miss of a ``gateway-zipf`` stream (perfbench), against
    a store holding the stream's other instances with their classic
    models: the same lookup kind, status and model, and the same
    clause-bank donor, with the library loaded and blocked."""
    from perfbench.workloads import gateway_zipf
    from repro.cdcl import minisat_solver

    items = gateway_zipf(32, 929).items.values()
    parents = [item for item in items if item.parent is None]
    variants = [item for item in items if item.parent is not None]
    answers = {}
    for path in read_paths():
        with PersistentResultStore(str(tmp_path / f"{path}.sqlite")) as store:
            for item in parents:
                spec = JobSpec(job_id=item.name, dimacs=item.dimacs())
                result = minisat_solver(spec.load_formula()).solve()
                model = (
                    [lit.value for lit in result.model.as_literals()]
                    if result.model is not None
                    else None
                )
                record_solve(
                    store, item.dimacs(), result.status.value, model,
                    learned=[[1, -2]],
                )
            seen = []
            for item in variants:
                spec = JobSpec(job_id=item.name, dimacs=item.dimacs())
                formula = spec.load_formula()
                key = spec.solve_key(fingerprint(formula))
                hit = store.lookup(key, spec, formula)
                warm = store.warm_clauses(formula, key)
                seen.append((
                    item.name,
                    hit and (hit.cache_kind, hit.status, hit.model),
                    warm and (warm.donor_fingerprint, warm.clauses),
                ))
            answers[path] = seen
    kinds = {hit[0] if hit else "miss" for _, hit, _ in answers["blocked"]}
    assert kinds == {"model", "unsat", "miss"}, kinds
    assert any(warm for _, _, warm in answers["blocked"])
    assert answers.get("loaded", answers["blocked"]) == answers["blocked"]
