"""Golden cache and dedup keys.

Fingerprints (the dedup key and every cache DB row's key) and packed
clause signatures (the cache DB's subsumption index) are persisted, so
a change to how they are computed would silently orphan every cache
written before it.  These values were computed by the per-``Clause``
implementations the table code replaced; any change to the key format
fails here, with the formula-read library loaded and blocked.  For the benchgen families the signature column holds the
SHA-256 of the packed blob (the blobs run to ~10 KB each); for the
small hand-written instances it holds the blob itself, in hex.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.benchgen import BENCHMARKS
from repro.cache.signature import clause_signatures, pack_signatures
from repro.sat.cnf import CNF, fingerprint
from repro.sat.dimacs import parse_dimacs, to_dimacs

#: Family -> (fingerprint, SHA-256 of the packed signatures) of
#: ``BENCHMARKS[family].generate(0, seed=11)``.
FAMILIES = {
    "AI1": (
        "5ac5dcc30308a78dced0c45e8ed68c05374bb3e50a360c028cf04cc577971869",
        "b3149849b5eacef891f86c8108cc595e5fd80ee7043dff2f422c91d7ac7c3d5f",
    ),
    "AI2": (
        "984f7bbb96c64c2bff5c447cbf80037aa5a5667010dee8dc8e02690288f02ec2",
        "69606aee0428732fde38e2380f3ad335c92b4ba36562507a35e407cace67d2a4",
    ),
    "AI3": (
        "9bfa6d97b8fecfb34390ab5285dd8373fde931878084095df25f62b2b204748d",
        "ed993313db78912220ab36224e057eb2c743397e62f562c6c82a577711cc757e",
    ),
    "AI4": (
        "a3a25d5f7c6f1379dad7c03650352b316e851947dba7130206ae6d7b8db5353d",
        "eb9ccf7d58f73b5ccef1ae397a2fb83c8c69717acc067d82465ee9b65297ba63",
    ),
    "AI5": (
        "bcb0add4a82f7bcee931c9e287dcc1dabb8829a8a19330b2973cc0f9c80d6a88",
        "64f6d1e3366630936de8ece27a610ecb4cfec92d9ccb8e186d3dfaa17d94ecd3",
    ),
    "BP": (
        "cfc99f8350498471a7fd25c9bd0cf4348806851fda97d02dd7095dec3bfd07a9",
        "49946a06301cad681a9b55a47f15c2916bd7d4a27774c0173db98a0583bda715",
    ),
    "CFA": (
        "8d0a70ec155a0643586ab74cafbe3c938eafc70d14000896dad52f9dd6b064b8",
        "21d98a137c0c88196306f66f185fe14d1e2a0b983eaee8033637a20cc696b749",
    ),
    "CRY": (
        "ed3dc6b7932024132103f786cf00c00485c0f6116db47bf15d2b635bf3845cd2",
        "afd1f4cd8c496e04a2c3f90be17403372cec8de10c4a072e7c7f4e4391331c7c",
    ),
    "GC1": (
        "fda8b7a46e6f552cd02888f0523229af324799a27735444dedda1fd3e21d251e",
        "84fd4570ce6ef3a44d2af28c94b6c1965379e3eb626382a0513359637d765b8a",
    ),
    "GC2": (
        "252cc2fcffb6dd44f1ee516c2cc01af2772b513915f0101e5b82d5bed04f463a",
        "fbaae3bb1cf880cf7db071dbee21c8b6cb1ab35191cbd56c65264b9a5886aabc",
    ),
    "GC3": (
        "4414a32102f22e989668ccd0175a64a1b3567b9b24c1ea9c79df7a39fab0e2ba",
        "b049d8cc670679d9e8422978a18383e9efe03d01aa2e13688e8cb39088ef23e4",
    ),
    "IF1": (
        "a67d16ab9dfe48ebee084eb578f9f9321d5d06851e32ae1adaa765b3119be107",
        "aee05083f4d5a623461a137edda8918ad7f7b35127aed1e3079fc55cdfc6c9ea",
    ),
    "IF2": (
        "c4426c83df9feeddee1e9bbc27799209dcfc647f2d1cc59b0d0dc8c98aedbffe",
        "9305f96b87b254655a4c0313dcacba38b5d272f76bfe6abf1d5e7b1119ee8c00",
    ),
    "II": (
        "0a326d37783724a6c844ecf4acf866c507bb5655de2e673f2f8320af48a0ca67",
        "2817b488ffe451c1d5cad109a5b1aba73680209bc46b776c494e261510f65f32",
    ),
}

#: Hand-written edge cases: (num_vars, clauses as written).
ROWS = {
    "empty-clause": (2, [[1, 2], []]),
    "duplicate-literals": (3, [[1, 1, -2], [3, 3, 3]]),
    "tautology": (3, [[1, -1, 2], [-3, 3]]),
    "unsorted-literals": (4, [[3, -1, 2], [-2, -3, 1]]),
    "empty-formula": (0, []),
}

#: Edge case -> (fingerprint, packed signatures in hex).
EDGES = {
    "empty-clause": (
        "81f984ecf7754f95d81eb9ca8664f48b732f512adc14063098560d990738827b",
        "5a0a67fbc5c5cd0a2cbdc8ea37efbd57cae66941d9efbd404e4d88758ea67670",
    ),
    "duplicate-literals": (
        "e923fdc2261636927059bfc8ba0d540e98b54896198d75431d407c1069ca455f",
        "66ba0ec4cc7227ce4adecabca770b24bc3585b60b755fb13e6e65a16d20f1230",
    ),
    "tautology": (
        "1061bdb32dd8ace67a73a708abd2057ba9c43ac2728e226be976d6aeec465b16",
        "039f6aa4e0705b1f42e099cafd1b4b970f2be2f952f8f79bf8474c9486e0b095",
    ),
    "unsorted-literals": (
        "74572cb6ad2e5ea96918c1b44808f9b1fe5675601b602c19c17c038c6c8f18c6",
        "3c088159ee6e1472f5865dd01df509a4d99e71232987649e2e401365128213f7",
    ),
    "empty-formula": (
        "e160232d0ce8816f12ecdcdc7bb0e939b55fb5ca43414ae6077dfa3989655732",
        "",
    ),
}


def keys(formula: CNF):
    return fingerprint(formula), pack_signatures(clause_signatures(formula))


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_family_keys(family, read_paths):
    generated = BENCHMARKS[family].generate(0, seed=11)
    for path in read_paths():
        # Parsed, as jobs arrive, and built from Clause objects.
        for formula in (parse_dimacs(to_dimacs(generated)), generated):
            fp, blob = keys(formula)
            assert (fp, hashlib.sha256(blob).hexdigest()) == FAMILIES[family], path


@pytest.mark.parametrize("name", sorted(EDGES))
def test_edge_case_keys(name, read_paths):
    num_vars, rows = ROWS[name]
    text = f"p cnf {num_vars} {len(rows)}\n" + "".join(
        " ".join(map(str, row + [0])) + "\n" for row in rows
    )
    for path in read_paths():
        for formula in (parse_dimacs(text), CNF(rows, num_vars=num_vars)):
            fp, blob = keys(formula)
            assert (fp, blob.hex()) == EDGES[name], path
