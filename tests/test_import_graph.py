"""Import-graph guards: start-up loads no scipy, and the layers stay put.

``scipy.stats`` alone costs most of a second to import, and every CLI
command and benchmark process pays whatever ``import repro`` pulls in.
scipy is therefore imported inside the functions that use it; these
tests fail if a module-level import brings it back.

``repro.stoch`` (the pmf algebra) sits below ``repro.perf`` (the kernel
cache that memoizes it): the cache is passed in as an argument, so no
stoch module imports perf, not even inside a function.
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


def _imported_modules(node: ast.Import | ast.ImportFrom, package: str):
    """Absolute names an import statement can bind, relative ones resolved."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    base = package.split(".")
    if node.level:
        base = base[: len(base) - node.level + 1]
        module = ".".join(base + ([node.module] if node.module else []))
    else:
        module = node.module or ""
    return [module] + [f"{module}.{alias.name}" for alias in node.names]


def test_stoch_never_imports_perf():
    offenders = []
    for path in sorted((SRC / "repro" / "stoch").rglob("*.py")):
        package = ".".join(path.relative_to(SRC).parts[:-1])
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            names = _imported_modules(node, package)
            if any(name == "repro.perf" or name.startswith("repro.perf.") for name in names):
                offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert offenders == []
