"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Exact checks carry zero tolerance; oracle comparisons use 1e-10.
"""

import json
import time
from fractions import Fraction

from gkmalg.algebra import build_algebra
from gkmalg.cli import main
from gkmalg.modes import Sphere2Geometry, Sphere3Geometry, TorusGeometry, make_mode_system
from gkmalg.scalars import ComplexSurd, SurdScalar
from gkmalg.verify import (
    associativity_check,
    cocycle_antisymmetry_check,
    commutativity_check,
    eigen_additivity_check,
    grading_check,
    invariance_check,
    jacobi_check_gkm,
    killing_table_check,
    oracle_agreement_check,
    torus_hierarchy_check,
)
from gkmalg.wigner import SpinTriple, gaunt_normalized, wigner3j

_LEVI_CIVITA = {
    (1, 2): (3, 1), (2, 3): (1, 1), (3, 1): (2, 1),
    (2, 1): (3, -1), (3, 2): (1, -1), (1, 3): (2, -1),
}


def _report(number, name, ok, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:>2} {name}: {status} ({elapsed:.2f}s, budget {budget:.0f}s)")


def test_criterion_1_affine_reproduction():
    t0 = time.perf_counter()
    charge = Fraction(3, 2)
    alg = build_algebra("su2", "t1", 8, charges=[charge])
    ok = True
    for a in range(1, 4):
        for b in range(1, 4):
            for m in range(-8, 9):
                for n in range(-8, 9):
                    got = alg.bracket_generators(("T", a, (m,)), ("T", b, (n,)))
                    want = {}
                    if a != b:
                        c, sign = _LEVI_CIVITA[(a, b)]
                        want[("T", c, (m + n,))] = ComplexSurd(0, sign)
                    if a == b and m + n == 0 and m != 0:
                        want[("k", 1)] = ComplexSurd.rational(2 * m)
                    if got.coeffs != want:
                        ok = False
                    # folding the formal central generator against the charge
                    # reproduces the textbook scalar 2 k m delta_{ab}
                    expected_fold = 2 * charge * m if (a == b and m + n == 0) else 0
                    if got.fold_charges() != ComplexSurd.rational(expected_fold):
                        ok = False
    elapsed = time.perf_counter() - t0
    _report(1, "affine bracket table on the circle", ok, elapsed, 10)
    assert ok
    assert elapsed < 10


def test_criterion_2_jacobi_with_central_terms():
    t0 = time.perf_counter()
    alg = build_algebra("su2", "s2", 2, charges=[1])
    gens = alg.generators()
    assert len(gens) == 29
    result = jacobi_check_gkm(alg, sample="all")
    elapsed = time.perf_counter() - t0
    ok = result.passed and result.regime == "exhaustive"
    ok = ok and result.details["triples"] == 29 * 28 * 27 // 6
    _report(2, "exhaustive Jacobi incl. central terms (su2, S2, cutoff 2)", ok, elapsed, 60)
    assert ok, result.witness
    assert elapsed < 60


SYSTEMS_C3 = [
    ("s2 cutoff 3", Sphere2Geometry(), 3),
    ("s3 cutoff 3 (half-integers)", Sphere3Geometry(half_integer=True), 3),
    ("t2 cutoff 3", TorusGeometry(2), 3),
]


def test_criterion_3_function_algebra_axioms():
    t0 = time.perf_counter()
    ok = True
    for label, geometry, cutoff in SYSTEMS_C3:
        ms = make_mode_system(geometry, cutoff)
        comm = commutativity_check(ms)
        assoc = associativity_check(ms)
        if not (comm.passed and assoc.passed and assoc.regime == "exhaustive"):
            ok = False
    elapsed = time.perf_counter() - t0
    _report(3, "product commutativity + associativity, three manifolds", ok, elapsed, 120)
    assert ok
    assert elapsed < 120


def test_criterion_4_cocycle_antisymmetry_and_additivity():
    t0 = time.perf_counter()
    ok = True
    for label, geometry, cutoff in SYSTEMS_C3:
        charges = [1] * geometry.r
        alg = build_algebra("su2", geometry, cutoff, charges=charges)
        if not cocycle_antisymmetry_check(alg).passed:
            ok = False
        if not eigen_additivity_check(alg.modes).passed:
            ok = False
    elapsed = time.perf_counter() - t0
    _report(4, "cocycle antisymmetry + eigenvalue additivity", ok, elapsed, 120)
    assert ok
    assert elapsed < 120


def test_criterion_5_killing_form_contract():
    t0 = time.perf_counter()
    ok = True
    for manifold, cutoff in (("t1", 3), ("s2", 2)):
        alg = build_algebra("su2", manifold, cutoff, charges=[1])
        if not killing_table_check(alg).passed:
            ok = False
        inv = invariance_check(alg, sample="all")
        if not (inv.passed and inv.regime == "exhaustive"):
            ok = False
    elapsed = time.perf_counter() - t0
    _report(5, "invariant-form table and ad-invariance", ok, elapsed, 120)
    assert ok


def test_criterion_6_oracle_agreement():
    t0 = time.perf_counter()
    total = 0
    ok = True
    for base, manifold, cutoff in (("su2", "t2", 2), ("su2", "s2", 2), ("su2", "s3", 2)):
        geometry = manifold
        r = 2 if manifold in ("t2", "s3") else 1
        alg = build_algebra(base, geometry, cutoff, charges=[1] * r)
        res = oracle_agreement_check(alg, samples=200, seed=2026, tol=1e-10)
        total += res.details.get("samples", 0)
        if not res.passed:
            ok = False
    ok = ok and total >= 500
    elapsed = time.perf_counter() - t0
    _report(6, f"oracle agreement on {total} sampled quantities", ok, elapsed, 60)
    assert ok
    assert total >= 500
    assert elapsed < 60


def test_criterion_7_root_structure():
    t0 = time.perf_counter()
    ok = True
    t_alg = build_algebra("su2", "t1", 6, charges=[1])
    plus = (Fraction(1),)
    for n in range(-5, 6):
        if len(t_alg.root_space(plus, (Fraction(n),))) != 1:
            ok = False
    s_alg = build_algebra("su2", "s2", 2, charges=[1])
    for m in range(-2, 3):
        if len(s_alg.root_space(plus, (Fraction(m),))) != 2 + 1 - abs(m):
            ok = False
    grading = grading_check(s_alg)
    ok = ok and grading.passed and grading.regime == "exhaustive"
    elapsed = time.perf_counter() - t0
    _report(7, "root-space dimensions and exhaustive grading", ok, elapsed, 120)
    assert ok


def test_criterion_8_torus_hierarchy():
    t0 = time.perf_counter()
    r2 = torus_hierarchy_check(build_algebra("su2", "t2", 2, charges=[1, 1]))
    r3 = torus_hierarchy_check(build_algebra("su2", "t3", 2, charges=[1, 1, 1]))
    ok = r2.passed and r3.passed
    elapsed = time.perf_counter() - t0
    _report(8, "torus hierarchy embeddings n=2,3", ok, elapsed, 120)
    assert ok


def test_criterion_9_spot_values():
    t0 = time.perf_counter()
    ok = wigner3j(SpinTriple(2, 2, 0, 0, 0, 0)) == SurdScalar.sqrt(3, Fraction(-1, 3))
    ok = ok and gaunt_normalized(1, 0, 1, 0, 2, 0) == SurdScalar.sqrt(5, Fraction(2, 5))
    elapsed = time.perf_counter() - t0
    _report(9, "spot values 3j(1,1,0;0,0,0) and gaunt(1,0,1,0,2,0)", ok, elapsed, 10)
    assert ok


def test_criterion_10_fault_injection(tmp_path, capsys):
    t0 = time.perf_counter()
    dump = tmp_path / "a.json"
    assert (
        main(
            ["build", "--algebra", "su2", "--manifold", "s2", "--cutoff", "2",
             "--charges", "1", "--out", str(dump)]
        )
        == 0
    )
    capsys.readouterr()

    def tampered(mutate, name):
        data = json.loads(dump.read_text())
        mutate(data)
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return path

    def flip_eta(d):
        for e in d["modes"]["eta"]:
            if e[0] == [1, 1]:
                e[2] = -e[2]

    def bogus_product_mode(d):
        for e in d["modes"]["products"]:
            if e[0] == [1, 0] and e[1] == [1, 0]:
                e[2].append([[1, 1], [{"radicand": 1, "num": "1", "den": "1"}]])

    def scale_f(d):
        for e in d["base"]["f"]:
            if e[:3] == [1, 2, 3]:
                e[3] = [{"radicand": 1, "num": "2", "den": "1"}]

    def scale_product_value(d):
        for e in d["modes"]["products"]:
            if e[0] == [1, 0] and e[1] == [1, 0]:
                for entry in e[2]:
                    if entry[0] == [2, 0]:
                        entry[1] = [{"radicand": 5, "num": "4", "den": "5"}]

    cases = [
        ("jacobi", bogus_product_mode),
        ("cocycle", flip_eta),
        ("grading", bogus_product_mode),
        ("invariance", scale_f),
        ("oracle", scale_product_value),
        ("all", flip_eta),
    ]
    ok = True
    for suite, mutate in cases:
        path = tampered(mutate, f"tampered_{suite}.json")
        code = main(["verify", str(path), "--suite", suite, "--seed", "0"])
        payload = json.loads(capsys.readouterr().out)
        failing = [c for c in payload["checks"] if not c["passed"]]
        if code != 3 or not failing:
            ok = False
        if failing and "replay" not in failing[0].get("witness", {}):
            ok = False
    elapsed = time.perf_counter() - t0
    _report(10, "fault injection fails every suite with witness + exit 3", ok, elapsed, 120)
    assert ok
