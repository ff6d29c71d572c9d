"""Self-test of the benchmark's correctness gate.

    python3 perfbench/selftest.py

1. A dump with one stored product coefficient changed makes the benchmark
   count that job as failed, post no metrics and exit non-zero.
2. Two other seeds both pass the gate with identical item counts, so a later
   claim can be confirmed on a seed held out while the change was written.

Exits 0 when both hold.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

import worker
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def tampered_run_fails() -> bool:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "verify-exhaustive"]
        + ["--seed", "3", "--seconds", "1", "--tamper"],
        cwd=HERE.parent,
        stdout=subprocess.PIPE,
        text=True,
        timeout=170,
        check=False,
    )
    print(proc.stdout, end="")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return (
        proc.returncode != 0
        and result["correct"] is False
        and result["failed"] >= 1
        and result["metrics"] == {}
    )


def seeds_agree(seeds=(101, 202)) -> bool:
    worker.import_gkmalg()
    expected = json.loads(worker.EXPECTED.read_text(encoding="utf-8"))
    ok = True
    for wl in WORKLOADS.values():
        counts = []
        for seed in seeds:
            done = worker.run_pass(wl, random.Random(seed), expected[wl.name])
            for error in done.errors:
                print(f"{wl.name} seed {seed}: {error}")
            ok &= not done.errors
            counts.append(done.items())
        same = counts[0] == counts[1]
        print(f"{wl.name}: seeds {seeds} pass the gate, item counts {'agree' if same else 'DIFFER'}")
        ok &= same
    return ok


def main() -> int:
    results = {
        "tampered dump fails the run": tampered_run_fails(),
        "two seeds pass with the same item counts": seeds_agree(),
    }
    for name, ok in results.items():
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
    return 0 if all(results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
