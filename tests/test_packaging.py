"""The declared dependencies match what ``import repro`` loads."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: Run in a fresh interpreter: record the top-level name of every
#: import a ``repro`` module makes while ``repro`` and ``repro.cli``
#: load, then report those and everything left in ``sys.modules``.
PROBE = """
import builtins, json, sys

direct = set()
real_import = builtins.__import__

def spy(name, globals=None, locals=None, fromlist=(), level=0):
    importer = (globals or {}).get("__name__") or ""
    if level == 0 and importer.partition(".")[0] == "repro":
        direct.add(name.partition(".")[0])
    return real_import(name, globals, locals, fromlist, level)

builtins.__import__ = spy
import repro, repro.cli
builtins.__import__ = real_import
print(json.dumps({
    "direct": sorted(direct),
    "loaded": sorted({name.partition(".")[0] for name in sys.modules}),
}))
"""


@pytest.mark.skipif(sys.version_info < (3, 11), reason="needs tomllib")
def test_import_loads_only_declared_dependencies():
    import tomllib

    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {
        re.match(r"[A-Za-z0-9_.-]+", spec).group(0).lower().replace("-", "_")
        for spec in project["dependencies"]
    }
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True, text=True, env=env, check=True,
    )
    report = json.loads(run.stdout.splitlines()[-1])
    third_party = {
        name
        for name in report["direct"]
        if name not in sys.stdlib_module_names and name != "repro"
    }
    assert third_party, "the probe saw no third-party import"
    assert third_party <= declared, sorted(third_party - declared)
    assert "networkx" not in declared
    assert "networkx" not in report["loaded"]
    # scipy is declared for the NumPy fallbacks, which import it when
    # they run; importing the package does not.
    assert "scipy" in declared
    assert "scipy" not in report["loaded"]


#: A native hybrid solve in a fresh interpreter: prints "skip" when a
#: library cannot load, else the QA call count and whether scipy loaded.
SOLVE_PROBE = """
import json, sys
import numpy as np
from repro.benchgen import random_3sat
from repro.cdcl import native
from repro.core import HyQSatSolver

loaders = (native.load_kernel, native.load_sweep_kernel, native.load_frontend_kernel)
if any(load() is None for load in loaders):
    print("skip")
    raise SystemExit
result = HyQSatSolver(random_3sat(50, 213, np.random.default_rng(1))).solve()
print(json.dumps({
    "qa_calls": result.hybrid.qa_calls,
    "scipy": any(name.partition(".")[0] == "scipy" for name in sys.modules),
}))
"""


def test_native_hybrid_solve_leaves_scipy_unloaded():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, "-c", SOLVE_PROBE],
        capture_output=True, text=True, env=env, check=True,
    )
    last = run.stdout.splitlines()[-1]
    if last == "skip":
        pytest.skip("the native libraries cannot load")
    report = json.loads(last)
    assert report["qa_calls"] > 0
    assert report["scipy"] is False
