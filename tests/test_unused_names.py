"""Every module-level name of the package is exported or read somewhere.

A name defined at the top of a module under ``src/gkmalg/`` (a ``def``, a
``class`` or an assignment) must be in ``gkmalg.__all__`` or occur, as a
whole word, at least twice across the Python files of ``src/``, ``tests/``,
``perfbench/`` and ``demos/``: once where it is defined and once where it
is used.  A name that is only defined is dead code.  Dunder names (such as
``__all__``) are read by Python and by tools, so they are exempt.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import gkmalg

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gkmalg"


def _module_level_names(path: Path) -> list[str]:
    names = []
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.extend(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return names


def _word_counts() -> Counter:
    counts: Counter = Counter()
    for folder in ("src", "tests", "perfbench", "demos"):
        for path in (ROOT / folder).rglob("*.py"):
            counts.update(re.findall(r"\w+", path.read_text(encoding="utf-8")))
    return counts


def test_every_module_level_name_is_exported_or_read():
    counts = _word_counts()
    exported = set(gkmalg.__all__)
    unused = [
        f"{path.name}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in _module_level_names(path)
        if name not in exported and counts[name] < 2 and not name.startswith("__")
    ]
    assert not unused, f"defined but never read: {unused}"
