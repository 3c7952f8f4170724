"""Import-graph guards: start-up loads no scipy, and the layers stay put.

``scipy.stats`` alone costs most of a second to import, and every CLI
command and benchmark process pays whatever ``import repro`` pulls in.
scipy is therefore imported inside the functions that use it; these
tests fail if a module-level import brings it back.

``repro.stoch`` (the pmf algebra) sits below ``repro.perf`` (the kernel
cache that memoizes it): the cache is passed in as an argument, so no
stoch module imports perf, not even inside a function.

Every module under ``src/repro`` is imported by some program — the
package itself, a benchmark, an example, a script or perfbench — so a
module that only its tests reach is deleted rather than kept.
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


#: Program code outside ``src/`` whose imports keep a module alive.
PROGRAM_DIRS = ("benchmarks", "examples", "scripts", "perfbench")

#: Modules no program imports, and why each stays.
NO_PROGRAM_IMPORTER = {
    "repro.__main__": "the `python -m repro` entry point",
    "repro.validation": "test oracle: the golden digests are checked against it",
    "repro.robustness.robustness": "test oracle: the scalar reference for Eqs. 3-4",
    "repro.stoch.samplers": "test oracle: the Monte Carlo checks of Section IV draw with it",
}


def _module_name(path: pathlib.Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _package_of(path: pathlib.Path) -> str:
    """The package relative imports in ``path`` resolve against."""
    if not path.is_relative_to(SRC):
        return ""
    name = _module_name(path)
    return name if path.name == "__init__.py" else name.rpartition(".")[0]


def _reexports(modules: dict[str, pathlib.Path]) -> dict[str, str]:
    """``"pkg.name"`` -> the module a package ``__init__`` re-exports it from."""
    found = {}
    for module, path in modules.items():
        if path.name != "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ImportFrom):
                source = _imported_modules(node, module)[0]
                for alias in node.names:
                    found[f"{module}.{alias.asname or alias.name}"] = source
    return found


def test_every_module_has_a_program_importer():
    modules = {_module_name(path): path for path in (SRC / "repro").rglob("*.py")}
    reexports = _reexports(modules)
    importers = [*SRC.rglob("*.py")]
    for directory in PROGRAM_DIRS:
        importers.extend((REPO / directory).rglob("*.py"))
    imported_by: dict[pathlib.Path, set[str]] = {}
    for path in importers:
        names = imported_by.setdefault(path, set())
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for name in _imported_modules(node, _package_of(path)):
                    while name not in names:  # follow package re-exports
                        names.add(name)
                        name = reexports.get(name, name)
    orphans = []
    for module, path in sorted(modules.items()):
        own = {path, path.parent / "__init__.py"}
        if not any(
            name == module or name.startswith(f"{module}.")
            for importer, names in imported_by.items()
            if importer not in own
            for name in names
        ):
            orphans.append(module)
    assert set(NO_PROGRAM_IMPORTER) <= set(modules)
    assert [m for m in orphans if m not in NO_PROGRAM_IMPORTER] == []
