"""End-to-end workflow: build, persist, reload, verify, and break things.

The same flow is available from the shell:

    gkmalg build --algebra su2 --manifold s2 --cutoff 2 --charges 1 --out a.json
    gkmalg verify a.json --suite all
    gkmalg roots a.json --alpha +a --n 0
    gkmalg wigner --3j 1 1 0 0 0 0

Exit codes: 0 ok, 1 unreadable dump, 2 usage error, 3 verification failure.
"""

import json
import tempfile
from pathlib import Path

from gkmalg import build_algebra, load_algebra, run_suites, save_algebra
from gkmalg.scalars import SurdScalar

with tempfile.TemporaryDirectory(prefix="gkmalg-demo-") as tmp:
    workdir = Path(tmp)
    dump_path = workdir / "su2_s2_c2.json"

    print("=== build and persist ===")
    alg = build_algebra("su2", "s2", cutoff=2, charges=[1])
    save_algebra(alg, dump_path, build_params={"algebra": "su2", "manifold": "s2", "cutoff": 2})
    print(f"wrote {dump_path} ({dump_path.stat().st_size} bytes)")

    print()
    print("=== reload and run the full verification suite ===")
    loaded = load_algebra(dump_path)
    report = run_suites(loaded, suite="all", seed=0)
    print(report.render_text())
    assert report.passed

    print()
    print("=== now sabotage one eta phase and watch the witness appear ===")
    data = json.loads(dump_path.read_text())
    for entry in data["modes"]["eta"]:
        if entry[0] == [1, 1]:
            entry[2] = -entry[2]
    tampered_path = workdir / "tampered.json"
    tampered_path.write_text(json.dumps(data))
    bad_report = run_suites(load_algebra(tampered_path), suite="cocycle", seed=0)
    for check in bad_report.checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"{status}: {check.name}")
        if check.witness:
            print(f"   witness: {check.witness}")
    assert not bad_report.passed

    print()
    print("=== exact scalars survive the JSON round trip ===")
    reloaded_value = SurdScalar.from_records(
        json.loads(dump_path.read_text())["modes"]["products"][40][2][0][1]
    )
    print(f"a stored product coefficient deserialises to the exact value {reloaded_value}")
