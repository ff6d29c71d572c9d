import hashlib
import inspect
import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import gkmalg.modes
from gkmalg.algebra import build_algebra
from gkmalg.modes import (
    Sphere2Geometry,
    Sphere3Geometry,
    TorusGeometry,
    make_mode_system,
    parse_manifold,
)
from gkmalg.scalars import SURD_ZERO, SurdScalar, int_row
from gkmalg.serialize import dump_algebra
from gkmalg.verify import (
    associativity_check,
    commutativity_check,
    eta_involution_check,
    eta_trace_check,
    mode_axiom_checks,
)
from gkmalg.wigner import (
    SpinTriple,
    clear_cache,
    clebsch_gordan,
    d_product_norm,
    gaunt_normalized,
    wigner3j,
)


def test_enumeration_counts():
    assert len(TorusGeometry(1).enumerate_modes(2)) == 5
    assert TorusGeometry(1).enumerate_modes(2) == [(-2,), (-1,), (0,), (1,), (2,)]
    assert len(Sphere2Geometry().enumerate_modes(2)) == 9
    s3 = Sphere3Geometry()
    assert s3.enumerate_modes(1) == [(0, 0, 0), (1, -1, -1), (1, -1, 1), (1, 1, -1), (1, 1, 1)]
    assert len(Sphere3Geometry(half_integer=False).enumerate_modes(2)) == 1 + 9
    assert len(TorusGeometry(2).enumerate_modes(1)) == 9


@pytest.mark.parametrize(
    "geometry",
    [TorusGeometry(1), TorusGeometry(3), Sphere2Geometry(), Sphere3Geometry(), Sphere3Geometry(False)],
    ids=["t1", "t3", "s2", "s3", "s3-integer"],
)
def test_mode_count_is_the_length_of_the_enumeration(geometry):
    for cutoff in range(8):
        # the loader refuses a cutoff above the stored count uncounted: there are at least that many
        assert geometry.mode_count(cutoff) == len(geometry.enumerate_modes(cutoff)) >= cutoff


def test_parse_manifold():
    assert parse_manifold("s1").n == 1
    assert parse_manifold("t3").n == 3
    assert parse_manifold("s2").kind == "sphere2"
    assert parse_manifold("s3").half_integer
    assert not parse_manifold("s3-integer").half_integer
    with pytest.raises(ValueError):
        parse_manifold("s5")


def test_torus_products_and_eta():
    t2 = TorusGeometry(2)
    assert t2.product((1, -2), (3, 1)) == {(4, -1): SurdScalar.rational(1)}
    assert t2.eta((3, -1)) == ((-3, 1), 1)
    assert t2.eigen((3, -1)) == (Fraction(3), Fraction(-1))


def test_sphere2_product_example():
    s2 = Sphere2Geometry()
    expected = {
        (0, 0): SurdScalar.rational(1),
        (2, 0): SurdScalar.sqrt(5, Fraction(2, 5)),
    }
    assert s2.product((1, 0), (1, 0)) == expected


def test_sphere2_eta_and_eigen():
    s2 = Sphere2Geometry()
    assert s2.eta((2, 1)) == ((2, -1), -1)
    assert s2.eta((3, 0)) == ((3, 0), 1)
    assert s2.eigen((5, -2)) == (Fraction(-2),)


def test_sphere3_product_example():
    s3 = Sphere3Geometry()
    got = s3.product((1, 1, 1), (1, -1, -1))
    # j=0 and j=1 survive, with CG-product coefficients
    cg0 = clebsch_gordan(SpinTriple(1, 1, 0, 1, -1, 0))
    cg1 = clebsch_gordan(SpinTriple(1, 1, 2, 1, -1, 0))
    expected = {
        (0, 0, 0): SurdScalar.sqrt(4) * cg0 * cg0,
        (2, 0, 0): SurdScalar.sqrt(4 * 3, Fraction(1, 3)) * cg1 * cg1,
    }
    assert got == expected


def test_sphere3_eta_and_eigen():
    s3 = Sphere3Geometry()
    assert s3.eta((2, 2, 0)) == ((2, -2, 0), -1)
    assert s3.eta((1, 1, -1)) == ((1, -1, 1), -1)
    assert s3.eta((2, 2, -2)) == ((2, -2, 2), 1)
    assert s3.eigen((2, 2, 0)) == (Fraction(1), Fraction(0))
    assert s3.eigen((1, 1, -1)) == (Fraction(1, 2), Fraction(-1, 2))


def test_label_validation():
    with pytest.raises(ValueError):
        Sphere2Geometry().validate((1, 2))
    with pytest.raises(ValueError):
        Sphere3Geometry().validate((1, 1, 0))  # parity mismatch
    with pytest.raises(ValueError):
        Sphere3Geometry(half_integer=False).validate((1, 1, 1))
    with pytest.raises(ValueError):
        TorusGeometry(2).validate((1,))
    # a JSON true or 1.0 equals 1 but is not an integer label component
    for geo, label in ((TorusGeometry(1), (True,)), (Sphere2Geometry(), (True, 1)),
                       (Sphere2Geometry(), (1.0, -1)), (Sphere3Geometry(), (2, 2, False))):
        with pytest.raises(ValueError):
            geo.validate(label)


def test_cocycle_pairing_values():
    t1 = make_mode_system(TorusGeometry(1), 3)
    for m in range(-3, 4):
        assert t1.cocycle_pairing(1, (m,), (-m,)) == SurdScalar.rational(m)
        assert t1.cocycle_pairing(1, (m,), (m + 1,)).is_zero
    s2 = make_mode_system(Sphere2Geometry(), 2)
    for l in range(3):
        for m in range(-l, l + 1):
            expected = Fraction(m) * (-1 if m % 2 else 1)
            assert s2.cocycle_pairing(1, (l, m), (l, -m)) == SurdScalar.rational(expected)
    s3 = make_mode_system(Sphere3Geometry(), 2)
    val = s3.cocycle_pairing(2, (2, 2, 0), (2, -2, 0))
    assert val == SurdScalar.rational(0)
    val = s3.cocycle_pairing(1, (2, 2, 0), (2, -2, 0))
    assert val == SurdScalar.rational(-1)  # eigenvalue 1 times eta phase -1
    with pytest.raises(ValueError):
        s3.cocycle_pairing(3, (2, 2, 0), (2, -2, 0))


def test_hermiticity_check_and_fault():
    ms = make_mode_system(Sphere2Geometry(), 2)
    assert ms.hermiticity_check(1).passed
    ms.eigen_table[(1, 1)] = (Fraction(2),)  # corrupt one eigenvalue
    result = ms.hermiticity_check(1)
    assert not result.passed and result.witness["mode"] in ([1, 1], [1, -1])


@pytest.mark.parametrize(
    "geometry,cutoff",
    [
        (TorusGeometry(1), 3),
        (TorusGeometry(2), 2),
        (Sphere2Geometry(), 2),
        (Sphere3Geometry(), 2),
        (Sphere3Geometry(half_integer=False), 4),
    ],
)
def test_mode_axioms(geometry, cutoff):
    ms = make_mode_system(geometry, cutoff)
    hermiticity = [ms.hermiticity_check(j) for j in range(1, ms.r + 1)]
    for check in mode_axiom_checks(ms) + hermiticity:
        assert check.passed, (check.name, check.witness)


@pytest.mark.parametrize(
    "geometry,cutoff,mode,pairs",
    [
        (Sphere2Geometry(), 4, (0, 0), 325),
        (Sphere2Geometry(), 2, (2, 0), 45),
        (Sphere3Geometry(), 4, (2, 0, 0), 1540),
    ],
)
def test_eta_trace_catches_a_self_conjugate_phase_flip(geometry, cutoff, mode, pairs):
    ms = make_mode_system(geometry, cutoff)
    clean = eta_trace_check(ms)
    assert (clean.passed, clean.regime, clean.details["pairs"]) == (True, "exhaustive", pairs)
    partner, phase = ms.eta(mode)
    assert partner == mode
    ms.eta_table[mode] = (mode, -phase)
    assert eta_involution_check(ms).passed  # a flipped self-conjugate phase is still an involution
    result = eta_trace_check(ms)
    assert not result.passed
    assert result.witness == {
        "modes": [list(mode), list(mode)],
        "unit_coefficient": str(phase),
        "expected": str(-phase),
    }


def test_products_extend_beyond_cutoff():
    ms = make_mode_system(Sphere2Geometry(), 1)
    table = ms.product((3, 0), (2, 0))  # both beyond the cutoff
    assert (5, 0) in table and (1, 0) in table
    assert ms.product((1, 0), (1, 0))[(2, 0)] == SurdScalar.sqrt(5, Fraction(2, 5))


@pytest.mark.parametrize(
    "geometry,I,J",
    [
        (TorusGeometry(2), (2, 1), (-3, 0)),
        (Sphere2Geometry(), (3, 0), (2, 1)),
        (Sphere3Geometry(), (4, 0, 2), (3, 1, -1)),
    ],
    ids=["t2", "s2", "s3"],
)
def test_an_out_of_cutoff_product_is_the_rule_and_is_not_memoised(geometry, I, J):
    ms = make_mode_system(geometry, 1)
    assert (I, J) not in ms.products
    table, rule = ms.product(I, J), geometry.product(I, J)
    assert table == rule and list(table) == list(rule) and table
    assert ms._ext_products == {}  # so stats.ext_products counts only what the checks ask for


@pytest.mark.parametrize("half_integer", [True, False])
def test_s3_rows_beyond_the_cutoff_are_the_rule_products(half_integer):
    # built straight from the int CG terms, they must be the int rows of the SurdScalar rule
    geometry = Sphere3Geometry(half_integer)
    ms = make_mode_system(geometry, 0)
    labels = geometry.enumerate_modes(6)
    for I, J in itertools.product(labels, labels):
        if (I, J) not in ms.products:
            assert ms.product_row(I, J) == int_row(geometry.product(I, J).items()), (I, J)
    assert len(ms._ext_products) == len(labels) ** 2 - 1


@pytest.mark.parametrize(
    "manifold,cutoff,digest",
    [
        ("t2", 2, "811341e3f7bdc7c48c4e471590efd7d0c77618fcf2b2c92b6dae43c25336eb27"),
        ("s2", 4, "0c7be29006d571cdc4d1add6b46051adc97d0b9ded9cddf4146c59eb910beb36"),
        ("s3", 3, "ad1006bda4e12de489d05e865040bdb84a20a80e5e225931bf7acd32ba8c9612"),
        ("s3-integer", 4, "c82731ddec9800cd000ed7956a036985c9c5ddcbae574d3a4359c18d680a756c"),
    ],
)
def test_mirrored_table_build_is_unchanged(manifold, cutoff, digest):
    # digests of the dumps (provenance dropped) when every ordered pair was
    # computed from the geometry on its own
    alg = build_algebra("su2", manifold, cutoff, charges=[1] * parse_manifold(manifold).r)
    ms = alg.modes
    for (I, J), table in ms.products.items():
        assert table == ms.geometry.product(I, J)
        if I != J:
            assert table is not ms.products[(J, I)]
    body = {k: v for k, v in dump_algebra(alg).items() if k != "provenance"}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("ordering", ["computed", "mirrored"])
def test_tampering_one_ordering_breaks_commutativity(ordering):
    ms = make_mode_system(Sphere2Geometry(), 2)
    I, J = (1, 0), (2, 1)  # I comes first, so (J, I) is the mirrored copy
    table = ms.products[(I, J) if ordering == "computed" else (J, I)]
    table[(3, 1)] = table[(3, 1)] + 1
    result = commutativity_check(ms)
    assert not result.passed
    assert result.witness == {"modes": [list(I), list(J)]}


@pytest.mark.parametrize("bump", [1, 1 + SurdScalar.sqrt(2)], ids=["rational", "surd"])
def test_tampered_product_breaks_associativity(bump):
    ms = make_mode_system(Sphere2Geometry(), 2)
    for key in (((1, 0), (1, 1)), ((1, 1), (1, 0))):
        ms.products[key][(2, 1)] = ms.products[key][(2, 1)] + bump
    assert commutativity_check(ms).passed
    result = associativity_check(ms)
    assert not result.passed
    assert result.regime == "exhaustive" and result.details["triples"] == 55
    assert result.witness == {"modes": [[1, -1], [1, 0], [1, 1]]}


# The product rules as they were before their m-dependent factors were
# memoised: the reference the memoised rules must reproduce exactly.


def _gaunt_reference(l1, m1, l2, m2, l3, m3):
    norm = SurdScalar.sqrt((2 * l1 + 1) * (2 * l2 + 1) * (2 * l3 + 1))
    factor = norm * wigner3j(SpinTriple(2 * l1, 2 * l2, 2 * l3, 0, 0, 0))
    if factor.is_zero:
        return SURD_ZERO
    m3j = wigner3j(SpinTriple(2 * l1, 2 * l2, 2 * l3, 2 * m1, 2 * m2, -2 * m3))
    if m3j.is_zero:
        return SURD_ZERO
    c = factor * m3j
    return -c if m3 % 2 else c


def _sphere2_product_reference(I, J):
    l1, m1 = I
    l2, m2 = J
    m3 = m1 + m2
    out = {}
    for l3 in range(abs(l1 - l2), l1 + l2 + 1, 2):
        if abs(m3) > l3:
            continue
        c = _gaunt_reference(l1, m1, l2, m2, l3, m3)
        if not c.is_zero:
            out[(l3, m3)] = c
    return out


def _sphere3_product_reference(I, J):
    tj1, tm1, tmp1 = I
    tj2, tm2, tmp2 = J
    tm3 = tm1 + tm2
    tmp3 = tmp1 + tmp2
    out = {}
    for tj3 in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
        if abs(tm3) > tj3 or abs(tmp3) > tj3:
            continue
        left = clebsch_gordan(SpinTriple(tj1, tj2, tj3, tm1, tm2, tm3))
        if left.is_zero:
            continue
        right = clebsch_gordan(SpinTriple(tj1, tj2, tj3, tmp1, tmp2, tmp3))
        if right.is_zero:
            continue
        out[(tj3, tm3, tmp3)] = d_product_norm(tj1, tj2, tj3) * left * right
    return out


@pytest.mark.parametrize(
    "geometry,degree,reference",
    [
        (Sphere2Geometry(), 6, _sphere2_product_reference),
        (Sphere3Geometry(), 4, _sphere3_product_reference),
    ],
    ids=["s2", "s3"],
)
def test_memoised_product_rules_match_the_reference(geometry, degree, reference):
    modes = geometry.enumerate_modes(degree)
    pairs = list(itertools.product(modes, modes))
    clear_cache()
    cold = [list(geometry.product(I, J).items()) for I, J in pairs]
    warm = [list(geometry.product(I, J).items()) for I, J in pairs]
    expected = [list(reference(I, J).items()) for I, J in pairs]
    assert cold == expected
    assert warm == expected


def test_gaunt_is_equal_under_negating_every_m():
    labels = Sphere2Geometry().enumerate_modes(6)
    clear_cache()
    nonzero = 0
    for (l1, m1), (l2, m2), (l3, m3) in itertools.product(labels, repeat=3):
        c = gaunt_normalized(l1, m1, l2, m2, l3, m3)
        assert gaunt_normalized(l1, -m1, l2, -m2, l3, -m3) == c
        if m1 + m2 != m3:
            assert c.is_zero
            continue
        expected = _gaunt_reference(l1, m1, l2, m2, l3, m3)
        assert c == expected == _gaunt_reference(l1, -m1, l2, -m2, l3, -m3)
        nonzero += not c.is_zero
    assert nonzero > 0


def _memo_sizes() -> dict:
    """The size of every memo of gkmalg.wigner: each module-level dict and lru_cache."""
    from gkmalg import wigner

    sizes = {}
    for name, value in vars(wigner).items():
        if name.startswith("__"):
            continue
        if isinstance(value, dict):
            sizes[name] = len(value)
        elif hasattr(value, "cache_info"):
            sizes[name] = value.cache_info().currsize
    return sizes


def _assert_a_rebuild_is_as_cold_as_a_fresh_process(monkeypatch, rule, build):
    """After ``clear_cache``, ``build_algebra(*build)`` misses as a fresh process does.

    ``rule`` names the coupling function the product rule calls on a memo
    miss; its calls and every memo's size are compared with a fresh process.
    """
    code = (
        "import json\n"
        "import gkmalg.modes\n"
        "from gkmalg.algebra import build_algebra\n"
        + inspect.getsource(_memo_sizes)
        + "calls = []\n"
        f"rule = gkmalg.modes.{rule}\n"
        f"gkmalg.modes.{rule} = lambda *a: calls.append(a) or rule(*a)\n"
        f"build_algebra(*{build!r})\n"
        "print(json.dumps([len(calls), _memo_sizes()]))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    fresh = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    fresh_calls, fresh_sizes = json.loads(fresh.stdout)
    calls = []
    original = getattr(gkmalg.modes, rule)
    monkeypatch.setattr(gkmalg.modes, rule, lambda *a: calls.append(a) or original(*a))
    build_algebra(*build)
    calls.clear()
    build_algebra(*build)
    assert calls == []  # a warm build only looks its factors up
    clear_cache()
    assert not any(_memo_sizes().values())
    build_algebra(*build)
    assert len(calls) == fresh_calls > 0
    assert _memo_sizes() == fresh_sizes


def test_a_rebuild_after_clear_cache_is_as_cold_as_a_fresh_process(monkeypatch):
    _assert_a_rebuild_is_as_cold_as_a_fresh_process(
        monkeypatch, "clebsch_gordan", ("su2", "s3", 2, [1, 1])
    )


def test_an_s2_rebuild_after_clear_cache_is_as_cold_as_a_fresh_process(monkeypatch):
    _assert_a_rebuild_is_as_cold_as_a_fresh_process(
        monkeypatch, "gaunt_normalized", ("su2", "s2", 3, [1])
    )


def test_bad_labels_raise_on_a_warm_memo():
    make_mode_system(Sphere2Geometry(), 2)
    make_mode_system(Sphere3Geometry(), 2)
    with pytest.raises(ValueError):
        gaunt_normalized(1, 2, 1, 0, 2, 0)  # |m1| > l1
    with pytest.raises(ValueError):
        gaunt_normalized(-1, 0, 1, 0, 2, 0)  # negative l1
    with pytest.raises(ValueError):
        Sphere3Geometry().product((1, 3, 1), (1, -1, 1))  # |2m| > 2j
