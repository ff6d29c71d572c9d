"""The benchmark's contract with the package, checked without timing anything.

The per-layer tracer of ``perfbench/`` patches gkmalg functions by name: a
rename in the package must fail here instead of silently emptying a traced
benchmark run (``perfbench/run.py --trace 1``).  And every benchmark case
must pass the correctness gate against ``perfbench/expected.json``, so a
changed dump digest, regime or item count fails here, not only in a
benchmark run.
"""

import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracer  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from gkmalg.algebra import GKMAlgebra, build_algebra  # noqa: E402
from gkmalg.modes import parse_manifold  # noqa: E402
from gkmalg.verify import (  # noqa: E402
    antisymmetry_check,
    grading_check,
    jacobi_check_gkm,
    killing_table_check,
    oracle_agreement_check,
    run_suites,
)
from gkmalg import wigner  # noqa: E402

PATCHED = [(owner, attr) for owner, attr, _ in tracer._SPANNED + tracer._COUNTED] + [
    (GKMAlgebra, "bracket"),
    (GKMAlgebra, "bracket_generators"),
]


def test_tracer_patches_and_restores_every_attribute():
    originals = [owner.__dict__[attr] for owner, attr in PATCHED]
    t = tracer.Tracer()
    t.install()
    try:
        patched = [owner.__dict__[attr] for owner, attr in PATCHED]
    finally:
        t.uninstall()
    assert all(p is not o for p, o in zip(patched, originals))
    assert all(owner.__dict__[attr] is o for (owner, attr), o in zip(PATCHED, originals))


def test_tracer_sees_every_bracket_row_built():
    with tracer.installed(tracer.Tracer()) as t:
        alg = build_algebra("su2", "t1", 1, charges=[1])
        assert jacobi_check_gkm(alg).passed
    built = sum(map(len, alg._pair_cache.values()))
    assert t.summarise()["calls"]["algebra.bracket_gens"] == built > 0


def test_tracer_sees_every_bracket_row_a_full_suite_builds():
    # sampled Jacobi and out-of-cutoff rows: every row goes through _bracket_gens; a passing
    # antisymmetry check is decided on its factors and builds none
    with tracer.installed(tracer.Tracer()) as t:
        alg = build_algebra("su2", "s3", 2, charges=[1, 1])
        report = run_suites(alg, "all", budget=500)
    assert t.summarise()["calls"]["algebra.bracket_gens"] == report.stats["bracket_rows"] == 2235
    # one ordering of a product missing from the table is not decided, so the walk builds
    # both rows of every generator pair, through _bracket_gens too
    with tracer.installed(tracer.Tracer()) as t:
        alg = build_algebra("su2", "s3", 2, charges=[1, 1])
        del alg.modes.products[(1, -1, -1), (1, 1, 1)]
        result = antisymmetry_check(alg)
    rows = sum(map(len, alg._pair_cache.values()))
    assert result.passed and result.details["pairs"] == 1081
    assert t.summarise()["calls"]["algebra.bracket_gens"] == rows == 46 * 46


def test_tracer_sees_coupling_misses_inside_the_product_rules():
    wigner.clear_cache()
    with tracer.installed(tracer.Tracer()) as t:
        build_algebra("su2", "s3", 2, charges=[1, 1])
        build_algebra("su2", "s2", 2, charges=[1])
    # every memo miss, and only a miss, goes through the patched names
    calls = t.summarise()["calls"]
    assert calls["wigner.clebsch_gordan"] == len(wigner._CG)
    assert calls["wigner.gaunt_normalized"] == len(wigner._GAUNTS)
    parents = {"wigner.clebsch_gordan": [], "wigner.gaunt_normalized": []}
    for name_id, parent in zip(t.span_name, t.parents):
        name = t.names[name_id]
        if name in parents:
            parents[name].append(t.names[t.span_name[parent]] if parent >= 0 else None)
    for name, seen in parents.items():
        assert seen, name
        assert set(seen) == {"modes.geometry_product"}, name


def test_tracer_sees_every_oracle_quantity():
    alg = build_algebra("su2", "s2", 2, charges=[1])
    with tracer.installed(tracer.Tracer()) as t:
        result = oracle_agreement_check(alg, samples=40, seed=1)
    assert result.passed
    calls = t.summarise()["calls"]
    assert calls["quadrature.make_grid"] == 1
    assert calls["quadrature.numeric"] == result.details["samples"] == 40


def test_every_benchmark_case_passes_the_gate():
    expected = json.loads(worker.EXPECTED.read_text(encoding="utf-8"))
    errors = []
    for wl in WORKLOADS.values():
        rng = random.Random(0)  # the seeds `worker.py --record` draws
        for case in wl.cases:
            job = worker.run_job(wl, case, rng.randrange(2**31))
            errors += worker.gate(job, expected[wl.name][case.id])
    assert errors == []


def test_pairing_table_and_grading_keep_their_pinned_counts():
    # counted without walking on a pass, so a wrong count formula must fail here first
    expected = json.loads(worker.EXPECTED.read_text(encoding="utf-8"))
    for name in ("verify-sampled", "verify-exhaustive"):
        for case in WORKLOADS[name].cases:
            charges = [1] * parse_manifold(case.manifold).r
            alg = build_algebra(case.algebra, case.manifold, case.cutoff, charges)
            pinned = expected[name][case.id]["checks"]
            for check, key in (
                (killing_table_check(alg), "pairs"),
                (grading_check(alg), "bracket_pairs"),
            ):
                where = (case.id, check.name)
                assert check.passed, where
                assert [check.regime, check.details[key]] == pinned[check.name], where
