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
