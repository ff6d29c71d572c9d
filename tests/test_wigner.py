"""Coupling coefficients against two independent oracles.

The squared-coefficient oracle below evaluates |CG|^2 with its sign from
the classic summation formula over plain Fractions, independently of the
package's surd pipeline; the triple-product coefficients are checked
against a product of two such CGs, and the quadrature grid gives them a
second opinion.
"""

import itertools
from fractions import Fraction
from math import factorial

import pytest

from gkmalg.scalars import SURD_ZERO, SurdScalar
from gkmalg.wigner import (
    SpinTriple,
    _canonical_key,
    _racah_sum,
    cache_size,
    clear_cache,
    clebsch_gordan,
    gaunt_normalized,
    wigner3j,
)


def _cg_squared_oracle(tj1, tm1, tj2, tm2, tj3, tm3):
    """(sign, CG^2) as exact Fractions; classic CG summation formula."""
    if tm1 + tm2 != tm3 or (tj1 + tj2 + tj3) % 2:
        return 0, Fraction(0)
    if not abs(tj1 - tj2) <= tj3 <= tj1 + tj2:
        return 0, Fraction(0)
    kmin = max(0, -(tj3 - tj2 + tm1) // 2, -(tj3 - tj1 - tm2) // 2)
    kmax = min((tj1 + tj2 - tj3) // 2, (tj1 - tm1) // 2, (tj2 + tm2) // 2)
    if kmax < kmin:
        return 0, Fraction(0)
    total = Fraction(0)
    for k in range(kmin, kmax + 1):
        den = (
            factorial(k)
            * factorial((tj1 + tj2 - tj3) // 2 - k)
            * factorial((tj1 - tm1) // 2 - k)
            * factorial((tj2 + tm2) // 2 - k)
            * factorial((tj3 - tj2 + tm1) // 2 + k)
            * factorial((tj3 - tj1 - tm2) // 2 + k)
        )
        total += Fraction((-1) ** k, den)
    if not total:
        return 0, Fraction(0)
    norm = Fraction(
        (tj3 + 1)
        * factorial((tj1 + tj2 - tj3) // 2)
        * factorial((tj1 - tj2 + tj3) // 2)
        * factorial((-tj1 + tj2 + tj3) // 2),
        factorial((tj1 + tj2 + tj3) // 2 + 1),
    )
    for tj, tm in ((tj1, tm1), (tj2, tm2), (tj3, tm3)):
        norm *= factorial((tj + tm) // 2) * factorial((tj - tm) // 2)
    sign = 1 if total > 0 else -1
    return sign, total * total * norm


def _gaunt_squared_oracle(l1, m1, l2, m2, l3, m3):
    """(sign, c^2) of the triple-product coefficient as exact Fractions.

    c = sqrt((2l1+1)(2l2+1)/(2l3+1)) <l1 0; l2 0 | l3 0> <l1 m1; l2 m2 | l3 m3>,
    each Clebsch-Gordan coefficient from the classic summation formula above.
    """
    zero_sign, zero_sq = _cg_squared_oracle(2 * l1, 0, 2 * l2, 0, 2 * l3, 0)
    m_sign, m_sq = _cg_squared_oracle(2 * l1, 2 * m1, 2 * l2, 2 * m2, 2 * l3, 2 * m3)
    norm = Fraction((2 * l1 + 1) * (2 * l2 + 1), 2 * l3 + 1)
    return zero_sign * m_sign, norm * zero_sq * m_sq


def _surd_squared(value: SurdScalar):
    sq = value * value
    assert sq.is_rational
    return sq.as_fraction()


def _all_labels(max_tj):
    for tj1 in range(max_tj + 1):
        for tj2 in range(max_tj + 1):
            for tj3 in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
                for tm1 in range(-tj1, tj1 + 1, 2):
                    for tm2 in range(-tj2, tj2 + 1, 2):
                        tm3 = tm1 + tm2
                        if abs(tm3) <= tj3:
                            yield tj1, tm1, tj2, tm2, tj3, tm3


def test_cg_matches_independent_squared_oracle():
    checked = 0
    for tj1, tm1, tj2, tm2, tj3, tm3 in _all_labels(7):
        value = clebsch_gordan(SpinTriple(tj1, tj2, tj3, tm1, tm2, tm3))
        sign, squared = _cg_squared_oracle(tj1, tm1, tj2, tm2, tj3, tm3)
        assert _surd_squared(value) == squared, (tj1, tm1, tj2, tm2, tj3, tm3)
        if squared:
            got_sign = 1 if float(value) > 0 else -1
            assert got_sign == sign, (tj1, tm1, tj2, tm2, tj3, tm3)
        checked += 1
    assert checked > 500


def test_gaunt_matches_independent_squared_oracle():
    labels = [(l, m) for l in range(6) for m in range(-l, l + 1)]
    clear_cache()
    nonzero = 0
    for (l1, m1), (l2, m2), (l3, m3) in itertools.product(labels, repeat=3):
        value = gaunt_normalized(l1, m1, l2, m2, l3, m3)
        sign, squared = _gaunt_squared_oracle(l1, m1, l2, m2, l3, m3)
        assert _surd_squared(value) == squared, (l1, m1, l2, m2, l3, m3)
        if squared:
            assert (1 if float(value) > 0 else -1) == sign, (l1, m1, l2, m2, l3, m3)
            nonzero += 1
    assert nonzero == 1905


def test_spot_values():
    assert wigner3j(SpinTriple(2, 2, 0, 0, 0, 0)) == SurdScalar.sqrt(3, Fraction(-1, 3))
    assert wigner3j(SpinTriple(2, 2, 2, 0, 0, 0)).is_zero
    assert wigner3j(SpinTriple(2, 4, 8, 0, 0, 0)).is_zero
    # coupling to the trivial representation is trivial
    for tj, tm in ((4, 2), (3, -1), (0, 0)):
        assert clebsch_gordan(SpinTriple(tj, 0, tj, tm, 0, tm)) == SurdScalar.rational(1)
    assert clebsch_gordan(SpinTriple(1, 1, 2, 1, -1, 0)) == SurdScalar.sqrt(2, Fraction(1, 2))
    # selection rule m1 + m2 != m3
    assert clebsch_gordan(SpinTriple(2, 2, 2, 2, 0, 0)).is_zero


def test_malformed_labels_rejected():
    with pytest.raises(ValueError):
        SpinTriple(2, 2, 2, 4, 0, 0)  # |m| > j
    with pytest.raises(ValueError):
        SpinTriple(2, 2, 2, 1, 0, 0)  # parity mismatch
    with pytest.raises(ValueError):
        SpinTriple(-2, 2, 2, 0, 0, 0)
    with pytest.raises(ValueError):
        SpinTriple.of(1, 1, 1, Fraction(1, 3), 0, 0)
    with pytest.raises(ValueError):
        SpinTriple(True, True, 0, True, -1, 0)  # a bool is not a doubled integer


def test_3j_orthogonality_exact():
    # sum_{m1,m2} (2j3+1) 3j(m1,m2,m3) 3j(m1,m2,m3') = delta_{j3 j3'} delta_{m3 m3'}
    tj1, tj2 = 3, 4
    for tj3 in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
        for tj3p in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
            for tm3 in range(-tj3, tj3 + 1, 2):
                for tm3p in range(-tj3p, tj3p + 1, 2):
                    acc = SURD_ZERO
                    for tm1 in range(-tj1, tj1 + 1, 2):
                        tm2 = -tm3 - tm1
                        if abs(tm2) > tj2:
                            continue
                        left = wigner3j(SpinTriple(tj1, tj2, tj3, tm1, tm2, tm3))
                        right = wigner3j(SpinTriple(tj1, tj2, tj3p, tm1, tm2, tm3p))
                        acc = acc + left * right * (tj3 + 1)
                    expected = 1 if (tj3 == tj3p and tm3 == tm3p) else 0
                    assert acc == SurdScalar.rational(expected)


def test_column_permutation_symmetry():
    for tj1, tm1, tj2, tm2, tj3, tm3 in _all_labels(4):
        base = wigner3j(SpinTriple(tj1, tj2, tj3, tm1, tm2, tm3))
        jsum = (tj1 + tj2 + tj3) // 2
        sign = -1 if jsum % 2 else 1
        cyclic = wigner3j(SpinTriple(tj2, tj3, tj1, tm2, tm3, tm1))
        swapped = wigner3j(SpinTriple(tj2, tj1, tj3, tm2, tm1, tm3))
        negated = wigner3j(SpinTriple(tj1, tj2, tj3, -tm1, -tm2, -tm3))
        assert cyclic == base
        assert swapped == (base if sign == 1 else -base)
        assert negated == (base if sign == 1 else -base)


def test_gaunt_examples_and_symmetry():
    assert gaunt_normalized(1, 0, 1, 0, 2, 0) == SurdScalar.sqrt(5, Fraction(2, 5))
    for l, m in ((0, 0), (2, 1), (3, -2)):
        assert gaunt_normalized(0, 0, l, m, l, m) == SurdScalar.rational(1)
    assert gaunt_normalized(1, 0, 1, 0, 3, 0).is_zero  # parity
    for l1, l2, l3 in itertools.product(range(4), range(4), range(4)):
        for m1 in range(-l1, l1 + 1):
            for m2 in range(-l2, l2 + 1):
                m3 = m1 + m2
                if abs(m3) > l3:
                    continue
                assert gaunt_normalized(l1, m1, l2, m2, l3, m3) == gaunt_normalized(
                    l2, m2, l1, m1, l3, m3
                )


def test_gaunt_rejects_bad_labels():
    with pytest.raises(ValueError):
        gaunt_normalized(1, 2, 1, 0, 2, 0)
    with pytest.raises(ValueError):
        gaunt_normalized(-1, 0, 1, 0, 2, 0)
    for labels in ((True, 0, 1, 0, 2, 0), (1, False, 1, 0, 2, 0), (1, 0, 1, 0, 2.0, 0)):
        with pytest.raises(ValueError):
            gaunt_normalized(*labels)


def test_cache_determinism():
    clear_cache()
    first = wigner3j(SpinTriple(6, 6, 4, 2, -4, 2))
    size_after_first = cache_size()
    again = wigner3j(SpinTriple(6, 6, 4, 2, -4, 2))
    permuted = wigner3j(SpinTriple(6, 4, 6, 2, 2, -4))
    assert first == again
    assert cache_size() == size_after_first  # symmetry variants reuse the entry
    assert permuted == first  # even permutation


def _symbols(max_tj: int):
    """Every symbol with all 2j <= max_tj that obeys the selection rules."""
    for tj1, tj2, tj3 in itertools.product(range(max_tj + 1), repeat=3):
        if (tj1 + tj2 + tj3) % 2 or not abs(tj1 - tj2) <= tj3 <= tj1 + tj2:
            continue
        for tm1 in range(-tj1, tj1 + 1, 2):
            for tm2 in range(-tj2, tj2 + 1, 2):
                tm3 = -tm1 - tm2
                if abs(tm3) <= tj3:
                    yield SpinTriple(tj1, tj2, tj3, tm1, tm2, tm3)


def test_canonical_key_is_its_own_key():
    # negating the m's can unsort the columns: (2 1 1; -1 1 0) has the key
    # (2 1 1; 1 0 -1), which must map to itself with phase +1
    count = 0
    for t in _symbols(8):
        key, _ = _canonical_key(t)
        assert _canonical_key(SpinTriple(*key[0::2], *key[1::2])) == (key, 1), t
        count += 1
    assert count == 4451


def _orbit(t: SpinTriple) -> frozenset:
    """Every column permutation of the symbol and of its m-negation."""
    out = set()
    for perm in itertools.permutations(t.columns()):
        for sign in (1, -1):
            out.add(tuple(tj for tj, _ in perm) + tuple(sign * tm for _, tm in perm))
    return frozenset(out)


def test_canonical_key_folds_each_symmetry_orbit_onto_one_key():
    # (3 3 2; 1 -2 1) and its m-negation (3 3 2; -1 2 -1) share an orbit but
    # sort to different columns; both must land on one key
    keys, orbits = set(), set()
    for t in _symbols(8):
        keys.add(_canonical_key(t)[0])
        orbits.add(_orbit(t))
        assert wigner3j(t) == _racah_sum(t.tj1, t.tj2, t.tj3, t.tm1, t.tm2, t.tm3), t
    assert len(keys) == len(orbits) == 449


@pytest.mark.parametrize(
    "labels", [(4, 2, 2, -2, 2, 0), (6, 6, 4, 2, -4, 2), (3, 5, 4, 1, -3, 2), (8, 4, 6, 0, 2, -2)]
)
def test_wigner3j_is_equal_across_symmetry_variants(labels):
    """Column permutations and m-negation change the symbol by (-1)^(j1+j2+j3) at most."""
    t = SpinTriple(*labels)
    value = wigner3j(t)
    assert not value.is_zero
    jsum_odd = ((t.tj1 + t.tj2 + t.tj3) // 2) % 2
    cols = t.columns()
    for perm in itertools.permutations(range(3)):
        odd = sum(perm[i] > perm[k] for i in range(3) for k in range(i + 1, 3)) % 2
        tjs = [cols[i][0] for i in perm]
        for negate in (False, True):
            tms = [-cols[i][1] if negate else cols[i][1] for i in perm]
            sign = -1 if jsum_odd and (odd + negate) % 2 else 1
            got = wigner3j(SpinTriple(*tjs, *tms))
            assert got == value * sign == _racah_sum(*tjs, *tms), (tjs, tms)
