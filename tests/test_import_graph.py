"""Start-up guard: importing the package loads no scipy.

``scipy.stats`` alone costs most of a second to import, and every CLI
command and benchmark process pays whatever ``import repro`` pulls in.
scipy is therefore imported inside the functions that use it; these
tests fail if a module-level import brings it back.
"""

from __future__ import annotations

import ast
import json
import os
import pathlib
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parents[1]
SRC = REPO / "src"

_PROBE = """
import json, sys
import repro, repro.cli, repro.api
after_import = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
from repro.config import SimulationConfig
from repro.sim.system import build_trial_system
build_trial_system(SimulationConfig())
after_build = sorted(m for m in sys.modules if m.startswith("scipy.stats"))
print(json.dumps({"after_import": after_import, "after_build": after_build}))
"""


def test_import_and_system_build_skip_scipy_stats():
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE],
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.strip().splitlines()[-1])
    assert loaded["after_import"] == []
    assert loaded["after_build"] == []


def _module_level_imports(tree: ast.Module):
    """Import statements outside any function or class body."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def test_no_module_level_scipy_import_under_src():
    offenders = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in _module_level_imports(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                names = [node.module or ""]
            if any(name.split(".")[0] == "scipy" for name in names):
                offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert offenders == []
