"""gkmalg benchmark: time to a built and verified algebra, end to end and by layer.

    python3 perfbench/run.py --workload verify-sampled --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a source checkout.  Each workload runs in a fresh
worker process (see worker.py) with single-threaded numeric libraries and
no persisted 3j cache.  Human-readable metric lines go to stdout; the last
line is one JSON object with the keys correct, attempted, failed and
metrics.  The exit code is 0 only when every job passed the correctness
gate; a failed gate posts no metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROBES = 5  # fresh processes timing `import gkmalg`; setup_s takes their median
DEADLINE_S = 170.0  # one workload must finish within this


def child_env() -> dict:
    env = dict(os.environ)
    env.update(
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
    )
    env.pop("GKMALG_WIGNER_CACHE", None)
    return env


def run_worker(args: list[str], timeout: float) -> dict:
    """Run worker.py in a fresh process and return its JSON result line."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        text=True,
        timeout=max(timeout, 1.0),
        check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: int, trace: bool, tamper: bool) -> dict:
    deadline = monotonic() + DEADLINE_S
    imports = []
    if not trace:
        for _ in range(PROBES):
            imports.append(run_worker(["--probe"], deadline - monotonic())["import_s"])
    args = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    args += ["--trace", str(int(trace))] + (["--tamper"] if tamper else [])
    result = run_worker(args, deadline - monotonic())
    if result["correct"] and not trace:
        result["metrics"]["setup_s"] = {
            "value": statistics.median(imports) + result["prep_s"],
            "unit": "s",
        }
    return result


def describe(name: str, result: dict) -> None:
    attempted, failed = result["attempted"], result["failed"]
    print(
        f"workload {name}: {result['passes']} timed + {result['traced_passes']} traced passes"
        f" after a {result['warmup_s']:.3f} s warm-up; unscaled median pass {result['raw_wall_s']:.3f} s"
    )
    for metric, m in result["metrics"].items():
        print(f"  {metric:40} {m['value']:.6g} {m['unit']}")
    print(f"  {'error_rate':40} {failed / attempted:.6g} ({failed} of {attempted} jobs failed)")
    for error in result.get("errors", []):
        print(f"  gate: {error}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tamper",
        action="store_true",
        help="corrupt one product coefficient in every pass: the gate must fail the run",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gkmalg" / "__init__.py").is_file():
        print(f"error: {ROOT} is not a gkmalg source checkout", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), args.tamper)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
            print(f"error: workload {name}: {exc}", file=sys.stderr)
            return 1
        describe(name, results[name])
    correct = all(r["correct"] for r in results.values())
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()}
    summary = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics if correct else {},
    }
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
