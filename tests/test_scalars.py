import decimal
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkmalg.algebra import build_algebra
from gkmalg.scalars import (
    CSURD_I,
    SURD_ONE,
    SURD_ZERO,
    ComplexSurd,
    SurdScalar,
    contract,
    int_row,
    squarefree_split,
    surd_product,
)


def test_squarefree_split():
    assert squarefree_split(1) == (1, 1)
    assert squarefree_split(8) == (2, 2)
    assert squarefree_split(45) == (3, 5)
    assert squarefree_split(49) == (7, 1)
    with pytest.raises(ValueError):
        squarefree_split(0)


def test_normalisation_examples():
    assert SurdScalar.sqrt(8) == SurdScalar({2: 2})
    assert SurdScalar.sqrt(1, Fraction(3, 5)) == SurdScalar.rational(Fraction(3, 5))
    assert SurdScalar.sqrt(45, Fraction(2, 15)) == SurdScalar({5: Fraction(2, 5)})


def test_add_merges_radicands():
    r2 = SurdScalar.sqrt(2)
    assert r2 + r2 == SurdScalar({2: 2})
    assert (SurdScalar.sqrt(3, Fraction(1, 3)) * SurdScalar.sqrt(3)) == SURD_ONE
    two_terms = SurdScalar.sqrt(2) + SurdScalar.sqrt(3)
    assert two_terms.terms == {2: Fraction(1), 3: Fraction(1)}


def test_zero_detection():
    assert (SurdScalar.sqrt(8) - SurdScalar.sqrt(2, 2)).is_zero
    assert not (SurdScalar.sqrt(2) - SurdScalar.sqrt(3)).is_zero
    inv_sqrt5 = SurdScalar.sqrt(5, Fraction(1, 5))
    assert (SurdScalar.sqrt(5, Fraction(2, 5)) - 2 * inv_sqrt5).is_zero


def test_float_examples():
    assert float(SurdScalar.sqrt(5, Fraction(2, 5))) == pytest.approx(
        0.8944271909999159, abs=1e-15
    )
    assert float(SURD_ZERO) == 0.0
    assert float(SurdScalar.sqrt(3, Fraction(-1, 3))) == pytest.approx(
        -0.5773502691896258, abs=1e-15
    )


def test_evalf_precision():
    assert str(SurdScalar.sqrt(2).evalf(40)) == "1.414213562373095048801688724209698078570"
    with decimal.localcontext() as ctx:  # the caller's context does not apply
        ctx.rounding, ctx.traps[decimal.Inexact] = decimal.ROUND_FLOOR, True
        assert str(SurdScalar.sqrt(2).evalf(7)) == "1.414214"
        assert str(SurdScalar.sqrt(5, Fraction(2, 3)).evalf(4)) == "1.491"
    with pytest.raises(ValueError):
        SURD_ONE.evalf(0)


def test_division():
    r3 = SurdScalar.sqrt(3)
    assert (SURD_ONE / r3) * r3 == SURD_ONE
    assert SurdScalar.sqrt(6) / SurdScalar.sqrt(2) == SurdScalar.sqrt(3)
    with pytest.raises(ValueError):
        SURD_ONE / (SurdScalar.sqrt(2) + SurdScalar.sqrt(3))
    with pytest.raises(ZeroDivisionError):
        SURD_ONE / SURD_ZERO


def test_sqrt_rational():
    assert SurdScalar.sqrt_rational(Fraction(4, 9)) == SurdScalar.rational(Fraction(2, 3))
    assert SurdScalar.sqrt_rational(Fraction(2, 15)) == SurdScalar({30: Fraction(1, 15)})


def test_records_round_trip():
    value = SurdScalar({2: Fraction(-3, 7), 1: Fraction(5, 2), 30: Fraction(11)})
    assert SurdScalar.from_records(value.to_records()) == value
    assert value.to_records()[0]["num"] == "5"


def test_from_records_canonicalises_each_radicand():
    # (2/4) sqrt 8 = sqrt 2, which cancels the second record
    records = [{"radicand": 8, "num": "2", "den": "4"}, {"radicand": 2, "num": "-1", "den": "1"}]
    assert SurdScalar.from_records(records) == SURD_ZERO
    assert SurdScalar.from_records([{"radicand": 45, "num": "1", "den": "3"}]) == SurdScalar({5: 1})


def test_str_forms():
    assert str(SURD_ZERO) == "0"
    assert str(SurdScalar.sqrt(3, Fraction(-1, 3))) == "-(1/3)√3"
    assert str(SurdScalar.sqrt(2, 2) + 1) == "1 + 2√2"


_squarefree = st.sampled_from([1, 2, 3, 5, 6, 7, 10, 11, 13, 15])
_coeff = st.builds(
    Fraction, st.integers(min_value=-40, max_value=40), st.integers(min_value=1, max_value=12)
)


@st.composite
def surds(draw):
    n = draw(st.integers(min_value=0, max_value=4))
    terms = {draw(_squarefree): draw(_coeff) for _ in range(n)}
    return SurdScalar(terms)


@given(surds(), surds(), surds())
@settings(max_examples=150, deadline=None)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@given(surds())
@settings(max_examples=100, deadline=None)
def test_self_difference_is_zero(a):
    assert (a - a).is_zero
    assert (a + (-a)).is_zero


@given(surds(), surds())
@settings(max_examples=100, deadline=None)
def test_float_homomorphism(a, b):
    fa, fb, fab = float(a), float(b), float(a * b)
    assert fab == pytest.approx(fa * fb, rel=1e-12, abs=1e-12)
    assert float(a + b) == pytest.approx(fa + fb, rel=1e-12, abs=1e-12)


@given(surds())
@settings(max_examples=60, deadline=None)
def test_hash_consistent_with_eq(a):
    clone = SurdScalar(a.terms)
    assert clone == a
    assert hash(clone) == hash(a)


@given(surds(), surds())
@settings(max_examples=60, deadline=None)
def test_complex_hash_consistent_with_eq(a, b):
    clone_a, clone_b = SurdScalar(a.terms), SurdScalar(b.terms)
    for z, w in (
        (ComplexSurd.real(a), a),
        (ComplexSurd.real(a), ComplexSurd.real(clone_a)),
        (ComplexSurd.imaginary(b), ComplexSurd.imaginary(clone_b)),
        (ComplexSurd(a, b), ComplexSurd(clone_a, clone_b)),
    ):
        assert z == w
        assert hash(z) == hash(w)


def test_a_real_complex_surd_finds_the_key_it_equals():
    assert {1: "a"}.get(ComplexSurd.rational(1)) == "a"
    assert {SURD_ONE: "a"}.get(ComplexSurd.rational(1)) == "a"
    root = ComplexSurd.real(SurdScalar.sqrt(8, Fraction(1, 2)))
    assert {SurdScalar.sqrt(2): "b"}.get(root) == "b"


def test_pairs_with_a_repeated_radicand_are_summed():
    assert SurdScalar([(2, 1), (2, 1)]) == SurdScalar.sqrt(2, 2)
    assert SurdScalar([(3, 1), (3, -1)]) == SURD_ZERO
    assert SurdScalar([(2, 1), (8, 1), (5, 0)]) == SurdScalar.sqrt(2, 3)
    # a mapping gives one coefficient per key; keys equal after splitting still merge
    assert SurdScalar({2: 1, 8: 1}) == SurdScalar.sqrt(2, 3)
    assert SurdScalar({3: 1, 12: Fraction(-1, 2)}) == SURD_ZERO


_radicand = st.integers(min_value=1, max_value=60)


@st.composite
def pair_lists(draw, undo=()):
    """``(radicand, coefficient)`` pairs, some of which cancel each other or those of ``undo``."""
    pairs = draw(st.lists(st.tuples(_radicand, _coeff), max_size=5))
    if pairs or undo:
        for rad, q in draw(st.lists(st.sampled_from([*pairs, *undo]), max_size=3)):
            # the same radicand, or one a square factor 4 larger
            pairs.append((4 * rad, -q / 2) if draw(st.booleans()) else (rad, -q))
    return pairs


def _reference(pairs) -> dict:
    """The canonical map of ``sum q sqrt(rad)`` on a plain Fraction dict."""
    ref: dict[int, Fraction] = {}
    for rad, q in pairs:
        s = max(k for k in range(1, math.isqrt(rad) + 1) if rad % (k * k) == 0)
        d = rad // (s * s)
        ref[d] = ref.get(d, Fraction(0)) + Fraction(q) * s
    return {d: q for d, q in ref.items() if q}


def _assert_canonical(x: SurdScalar, pairs) -> None:
    for d, q in x.terms.items():
        assert all(d % (p * p) for p in range(2, math.isqrt(d) + 1)), d
        assert type(q) is Fraction and q
    assert dict(x.terms) == _reference(pairs)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_every_operation_returns_the_canonical_map(data):
    pa = data.draw(pair_lists())
    pb = data.draw(pair_lists(undo=pa))
    a, b = SurdScalar(pa), SurdScalar(pb)
    _assert_canonical(a, pa)
    _assert_canonical(b, pb)
    mapping = dict(pa)
    _assert_canonical(SurdScalar(mapping), mapping.items())
    neg_b = [(rad, -q) for rad, q in pb]
    _assert_canonical(a + b, pa + pb)
    _assert_canonical(a - b, pa + neg_b)
    _assert_canonical(-b, neg_b)
    _assert_canonical(a - a, [])
    _assert_canonical(a * b, [(r1 * r2, q1 * q2) for r1, q1 in pa for r2, q2 in pb])


def test_complex_surd_arithmetic():
    i = CSURD_I
    assert i * i == ComplexSurd.rational(-1)
    z = ComplexSurd(SurdScalar.sqrt(2), SurdScalar.rational(1))
    assert z.conjugate().im == SurdScalar.rational(-1)
    assert z.times_i() == i * z
    norm = z * z.conjugate()
    assert norm.im.is_zero and norm.re == SurdScalar.rational(3)
    assert (z / z) == ComplexSurd.rational(1)
    assert z.to_complex() == pytest.approx(complex(2**0.5, 1.0))


def test_complex_surd_records_round_trip():
    z = ComplexSurd(SurdScalar.sqrt(3, Fraction(2, 5)), SurdScalar.rational(-2))
    assert ComplexSurd.from_records(z.to_records()) == z


def test_immutability():
    z = ComplexSurd.rational(1)
    with pytest.raises(AttributeError):
        z.re = SURD_ZERO


def _exponent(x: Fraction) -> int:
    """floor(log10 |x|) of a nonzero rational, exactly."""
    x = abs(x)
    e = len(str(x.numerator)) - len(str(x.denominator))
    while Fraction(10) ** e > x:
        e -= 1
    while Fraction(10) ** (e + 1) <= x:
        e += 1
    return e


def _enclosure(x: SurdScalar, digits: int) -> tuple[Fraction, Fraction]:
    """Rationals ``lo <= x <= hi`` that agree to ``digits`` significant digits.

    Each ``q*sqrt(d)`` is enclosed by ``s <= sqrt(d)*10**k < s + 1`` with
    ``s = isqrt(d*10**(2k))``; k doubles until the enclosure is narrow enough.
    """
    k = digits
    while True:
        lo = hi = Fraction(0)
        for d, q in x.terms.items():
            if d == 1:
                a = b = q
            else:
                s = math.isqrt(d * 10 ** (2 * k))
                a, b = q * Fraction(s, 10**k), q * Fraction(s + 1, 10**k)
            lo, hi = lo + min(a, b), hi + max(a, b)
        if lo == hi or lo * hi > 0 and hi - lo < Fraction(10) ** (_exponent(lo) - digits + 1):
            return lo, hi
        k *= 2


_BIG = SurdScalar({1: Fraction(10**40 + 1, 3**50), 9699690: Fraction(-(7**45), 10**30)})


@given(surds(), st.integers(min_value=1, max_value=40))
@settings(max_examples=200, deadline=None)
def test_evalf_is_within_half_a_unit_of_an_exact_enclosure(a, precision):
    for x in (a, _BIG, a * _BIG):
        value = x.evalf(precision)
        assert len(value.as_tuple().digits) <= precision
        lo, hi = _enclosure(x, precision + 20)
        if lo == hi == 0:
            assert value == 0
            continue
        half_unit = Fraction(10) ** (_exponent(hi) - precision + 1) / 2
        assert lo - half_unit <= Fraction(value) <= hi + half_unit


# at c4, 23 of the 284 distinct coefficients would round wrong from 17 digits
@pytest.mark.parametrize("cutoff", [2, 4])
def test_float_of_every_stored_coefficient_is_the_correctly_rounded_double(cutoff):
    alg = build_algebra("su2", "s3", cutoff, charges=[1, 1])
    coeffs = {c for table in alg.modes.products.values() for c in table.values()}
    assert any(len(c.terms) > 1 or 1 not in c.terms for c in coeffs)  # some carry a surd
    for c in coeffs:
        lo, hi = _enclosure(c, 40)
        # int / int is correctly rounded, so the enclosure's double is float(lo)
        assert float(c) == float(lo) == float(hi), c


_WITHOUT_MPMATH = """
import sys
sys.modules["mpmath"] = None  # any import of mpmath now raises ImportError
from gkmalg import SurdScalar
from gkmalg.algebra import build_algebra
from gkmalg.verify import oracle_agreement_check
print(SurdScalar.sqrt(2).evalf(40))
for manifold, charges in (("s2", [1]), ("s3", [1, 1])):
    result = oracle_agreement_check(build_algebra("su2", manifold, 2, charges), samples=10**6)
    assert result.passed and result.regime == "exhaustive", (manifold, result)
"""


def test_scalars_convert_and_the_oracle_runs_without_mpmath():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_MPMATH], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "1.414213562373095048801688724209698078570\n"


# -- integer rows and the contraction --------------------------------------------

# coprime small denominators and large primes (2**61 - 1, 2**31 - 1), so the scale must grow
_DENS = st.sampled_from([1, 2, 3, 5, 7, 12, 35, 2**31 - 1, 2**61 - 1]) | st.integers(1, 60)
_RADICANDS = st.sampled_from([1, 2, 3, 5, 6, 10, 15, 30])


def _rows(keys):
    term = st.tuples(keys, _RADICANDS, st.integers(-(10**20), 10**20))
    return st.tuples(_DENS, st.lists(term, max_size=4))


def _outer_rows():
    """An outer row over keys 0..3, with each term sometimes followed by its negation."""
    term = st.tuples(st.integers(0, 3), _RADICANDS, st.integers(-(10**6), 10**6))
    terms = st.lists(st.tuples(term, st.booleans()), max_size=4).map(
        lambda ts: [t for t, cancel in ts for t in ([t, (t[0], t[1], -t[2])] if cancel else [t])]
    )
    return st.tuples(_DENS, terms)


def _fraction_contraction(total: dict, row, rows) -> None:
    """The reference: ``contract`` term by term with ``Fraction`` coefficients."""
    den, terms = row
    for w, d1, n1 in terms:
        rden, rterms = rows[w]
        for u, d2, n2 in rterms:
            d, q = surd_product(d1, Fraction(n1, den), d2, Fraction(n2, rden))
            total[u, d] = total.get((u, d), 0) + q


@given(
    st.lists(_outer_rows(), min_size=1, max_size=3),
    st.lists(_rows(st.integers(0, 5)), min_size=4, max_size=4),
)
@settings(max_examples=300, deadline=None)
def test_contract_agrees_with_fraction_sums(outers, inner):
    acc, scale, total, steps = {}, 1, {}, [1]
    for row in outers:
        scale = contract(acc, scale, row, inner.__getitem__)
        _fraction_contraction(total, row, inner)
        steps += [row[0] * inner[w][0] for w, _, _ in row[1] if inner[w][1]]
    # the running scale is the lcm of the denominators that reached the sum
    assert scale == math.lcm(*steps)
    exact = {k: q for k, q in total.items() if q}
    assert {k: Fraction(n, scale) for k, n in acc.items() if n} == exact
    # a row contracted again with the opposite sign cancels exactly
    for den, terms in outers:
        scale = contract(acc, scale, (den, [(w, d, -n) for w, d, n in terms]), inner.__getitem__)
    assert not any(acc.values())


@given(st.lists(st.tuples(st.integers(0, 5), surds()), max_size=5), st.sampled_from([1, -1, 2, -6]))
@settings(max_examples=200, deadline=None)
def test_int_row_is_the_canonical_row_of_its_value(entries, factor):
    entries = list(dict(entries).items())  # distinct keys
    den, terms = int_row(entries, factor)
    assert den >= 1 and math.gcd(den, *[n for _, _, n in terms]) == 1
    assert all(n for _, _, n in terms)
    values = {}
    for key, d, n in terms:
        values.setdefault(key, {})[d] = Fraction(n, den)
    assert values == {key: {d: q * factor for d, q in x.terms.items()} for key, x in entries if x}
