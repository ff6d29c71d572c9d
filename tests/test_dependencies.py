"""The dependencies in pyproject.toml cover what the package and its tests import.

The package imports exactly its runtime dependencies; the tests import only
those, the test extras and the ``perfbench/`` modules, which
``test_perfbench_contract.py`` imports by path.
"""

import ast
import re
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
