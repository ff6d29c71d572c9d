"""Start-up: no command loads numpy, and ``python -m`` runs the CLI.

Each test runs a fresh interpreter, so what the package imports is seen as a
new process sees it.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _python(*args: str, cwd=None) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONIOENCODING": "utf-8"}
    return subprocess.run(
        [sys.executable, *args], env=env, cwd=cwd, capture_output=True, encoding="utf-8"
    )


def test_importing_the_package_leaves_numpy_unloaded():
    proc = _python("-c", 'import sys, gkmalg; assert "numpy" not in sys.modules')
    assert proc.returncode == 0, proc.stderr


_CLI_WITHOUT_NUMPY = """
import contextlib, io, sys
from gkmalg.cli import main
commands = [
    "build --algebra su2 --manifold s2 --cutoff 2 --charges 1 --out a.json",
    "wigner --3j 1 1 0 1 -1 0",
    "roots a.json --alpha +a --n 0",
    "verify a.json --suite jacobi",
]
for command in commands:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(command.split())
    assert code == 0, (command, code)
    assert "numpy" not in sys.modules, command
"""


def test_build_wigner_roots_and_exact_verify_leave_numpy_unloaded(tmp_path):
    proc = _python("-c", _CLI_WITHOUT_NUMPY, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr


_VERIFY_WITHOUT_NUMPY = """
import contextlib, io, sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
from gkmalg.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main("build --algebra su2 --manifold s2 --cutoff 2 --charges 1 --out a.json".split()) == 0
    for suite in ("all", "oracle"):
        assert main(f"verify a.json --suite {suite}".split()) == 0, suite
        assert sys.modules["numpy"] is None, suite
"""


def test_verify_all_and_the_oracle_run_without_numpy(tmp_path):
    proc = _python("-c", _VERIFY_WITHOUT_NUMPY, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr


_EXACT_LAYERS_WITHOUT_NUMPY = """
import sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
from gkmalg.algebra import build_algebra
from gkmalg.serialize import dump_algebra, load_algebra
from gkmalg.verify import run_suites
for manifold, cutoff, charges in (("s2", 2, [1]), ("s3", 1, [1, 1])):
    alg = load_algebra(dump_algebra(build_algebra("su2", manifold, cutoff, charges)))
    for suite in ("jacobi", "cocycle", "grading", "invariance"):
        report = run_suites(alg, suite)
        assert report.passed and report.checks, (manifold, cutoff, suite)
"""


def test_build_dump_load_and_the_exact_suites_run_without_numpy():
    proc = _python("-c", _EXACT_LAYERS_WITHOUT_NUMPY)
    assert proc.returncode == 0, proc.stderr


def test_python_dash_m_runs_the_cli():
    for module in ("gkmalg", "gkmalg.cli"):
        proc = _python("-m", module, "wigner", "--3j", "1", "1", "0", "1", "-1", "0")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("(1/3)√3"), (module, proc.stdout)
    proc = _python("-m", "gkmalg")
    assert proc.returncode == 2, proc.stderr
