"""The dependencies in pyproject.toml cover what the package and its tests import.

The package imports exactly its runtime dependencies; the tests import only
those, the test extras and the ``perfbench/`` modules, which
``test_perfbench_contract.py`` imports by path.  numpy is used only by the
quadrature module's array helpers, and ``import gkmalg`` loads no module
beyond what its standard-library imports load.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11

ROOT = Path(__file__).resolve().parents[1]


def _imported_top_level_modules(package: Path) -> set[str]:
    names = set()
    for path in package.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.partition(".")[0])
    return names


def _third_party(package: Path) -> set[str]:
    return _imported_top_level_modules(package) - set(sys.stdlib_module_names) - {"gkmalg"}


def _declared(requirements: list[str]) -> set[str]:
    return {re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in requirements}


PROJECT = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]


def test_declared_runtime_dependencies_are_the_imported_ones():
    assert _third_party(ROOT / "src" / "gkmalg") == _declared(PROJECT["dependencies"])


def test_tests_import_only_declared_packages():
    allowed = _declared(PROJECT["dependencies"] + PROJECT["optional-dependencies"]["test"])
    allowed |= {path.stem for path in (ROOT / "perfbench").glob("*.py")}
    assert _third_party(ROOT / "tests") <= allowed


# -- where numpy may appear, and what `import gkmalg` loads ---------------------

PACKAGE = ROOT / "src" / "gkmalg"
ARRAY_HELPERS = {"weights", "nodes", "integrate", "mode_values", "apply_invariant_operator"}


def _is_numpy(node: ast.AST) -> bool:
    if isinstance(node, ast.Name):
        return node.id in ("np", "numpy")
    if isinstance(node, ast.Import):
        return any(alias.name.partition(".")[0] == "numpy" for alias in node.names)
    return isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "numpy"


def _numpy_uses(path: Path) -> list[tuple[str | None, int]]:
    """(innermost enclosing function or None, line) of each numpy import or np/numpy name."""
    uses = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if _is_numpy(node):
            uses.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return uses


def test_numpy_appears_only_in_the_array_helpers():
    uses = _numpy_uses(PACKAGE / "quadrature.py")
    assert uses and {function for function, _ in uses} <= ARRAY_HELPERS, uses
    assert _numpy_uses(PACKAGE / "verify.py") == []


# The standard-library modules the package imported at module level before its
# quadrature oracle stopped using numpy; `import gkmalg` may load only what they load.
STDLIB_AT_IMPORT = (
    "__future__", "argparse", "bisect", "contextlib", "dataclasses", "datetime", "decimal",
    "fractions", "functools", "gc", "itertools", "json", "math", "os", "pathlib", "random",
    "re", "shlex", "sys", "time", "traceback", "types", "typing", "weakref",
)

_LOADED = "import sys; before = set(sys.modules); import {}; print(*set(sys.modules) - before)"


def _loaded_by(modules: str) -> set[str]:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    command = [sys.executable, "-c", _LOADED.format(modules)]
    proc = subprocess.run(command, env=env, capture_output=True, text=True, check=True)
    return set(proc.stdout.split())


def test_importing_the_package_loads_no_new_module():
    baseline = _loaded_by(", ".join(STDLIB_AT_IMPORT))
    loaded = {m for m in _loaded_by("gkmalg") if m.partition(".")[0] != "gkmalg"}
    assert loaded <= baseline, sorted(loaded - baseline)
