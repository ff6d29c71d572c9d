"""Exact angular-momentum coupling coefficients.

3j symbols are evaluated with the single-sum factorial formula over big
integers: the alternating sum is an exact rational and the prefactor is the
square root of an exact rational, so every symbol is a single surd term.
Radicands built from factorials are never factorised directly; their prime
exponents come from Legendre's formula.

Labels are doubled half-integers throughout (tj = 2j, tm = 2m), the usual
trick for keeping half-integer spins in integer arithmetic.

Every coefficient is memoised in-process under plain int tuples: 3j
symbols in ``_CACHE`` by ``_canonical_key`` (the only memo ``cache_size``
counts), the prime exponents of n! by n, the m-independent product factors
by (l1, l2, l3), ``gaunt_normalized`` by the sign-canonical ``_gaunt_key``,
and the SU(2) product rule's ``d_product_norm * CG`` and bare CG factors by
(tj1, tj2, tj3, tm1, tm2).  ``clear_cache`` empties every one of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from math import factorial, lcm

from .scalars import SURD_ZERO, SurdScalar


@dataclass(frozen=True)
class SpinTriple:
    """Three (j, m) pairs as doubled integers; validated on construction."""

    tj1: int
    tj2: int
    tj3: int
    tm1: int
    tm2: int
    tm3: int

    def __post_init__(self):
        for tj, tm in self.columns():
            if not isinstance(tj, int) or not isinstance(tm, int):
                raise ValueError("spin labels must be doubled integers")
            if tj < 0:
                raise ValueError(f"negative angular momentum 2j={tj}")
            if abs(tm) > tj:
                raise ValueError(f"|m| > j in column (2j={tj}, 2m={tm})")
            if (tj - tm) % 2:
                raise ValueError(f"j and m differ by a non-integer (2j={tj}, 2m={tm})")

    def columns(self):
        return ((self.tj1, self.tm1), (self.tj2, self.tm2), (self.tj3, self.tm3))

    @classmethod
    def of(cls, j1, j2, j3, m1, m2, m3) -> "SpinTriple":
        """Build from plain (half-)integer values, e.g. Fractions."""
        doubled = []
        for x in (j1, j2, j3, m1, m2, m3):
            t = Fraction(x) * 2
            if t.denominator != 1:
                raise ValueError(f"label {x} is not an integer or half-integer")
            doubled.append(int(t))
        return cls(*doubled)


@lru_cache(maxsize=None)
def _primes_upto(n: int) -> tuple[int, ...]:
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\x00\x00"
    for p in range(2, int(n**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = b"\x00" * len(sieve[p * p :: p])
    return tuple(i for i in range(n + 1) if sieve[i])


@lru_cache(maxsize=None)
def _factorial_exponents(n: int) -> tuple[int, ...]:
    """Exponent in n! of each prime p <= n, by Legendre's formula: the sum of n // p^i."""
    return tuple(sum(n // p**i for i in range(1, n.bit_length() + 1)) for p in _primes_upto(n))


def _sqrt_factorial_ratio(numerators: list[int], denominators: list[int]) -> SurdScalar:
    """Exact sqrt of prod(n_i!) / prod(d_i!) as a single surd term."""
    exps = [_factorial_exponents(n) for n in numerators]
    exps += [tuple(-e for e in _factorial_exponents(d)) for d in denominators]
    totals = [sum(col) for col in zip_longest(*exps, fillvalue=0)]
    num = den = radicand = 1
    for p, e in zip(_primes_upto(max(*numerators, *denominators)), totals):
        half, odd = divmod(e, 2)
        if half > 0:
            num *= p**half
        elif half < 0:
            den *= p**-half
        if odd:
            radicand *= p
    return SurdScalar._raw({radicand: Fraction(num, den)})


def _selection_ok(t: SpinTriple) -> bool:
    if t.tm1 + t.tm2 + t.tm3 != 0:
        return False
    if (t.tj1 + t.tj2 + t.tj3) % 2:
        return False
    return abs(t.tj1 - t.tj2) <= t.tj3 <= t.tj1 + t.tj2


def _sort_columns(cols: list[tuple[int, int]]) -> int:
    """Sort three columns into descending order in place; returns the swaps made."""
    swaps = 0
    for i in range(2):
        for k in range(2 - i):
            if cols[k] < cols[k + 1]:
                cols[k], cols[k + 1] = cols[k + 1], cols[k]
                swaps += 1
    return swaps


def _canonical_key(t: SpinTriple) -> tuple[tuple[int, ...], int]:
    """Symmetry-reduced cache key and the phase restoring the original symbol.

    Column permutations and global m-negation change a 3j symbol by at most
    (-1)^(j1+j2+j3).  The key is the larger of the column-sorted symbol and
    its column-sorted m-negation, so every symmetry variant has one key and
    a key is its own key.
    """
    cols = list(t.columns())
    negated = [(tj, -tm) for tj, tm in cols]
    flips = _sort_columns(cols)
    negated_flips = 1 + _sort_columns(negated)
    if negated > cols:
        cols, flips = negated, negated_flips
    jsum = (t.tj1 + t.tj2 + t.tj3) // 2
    phase = -1 if (jsum % 2 and flips % 2) else 1
    key = tuple(x for col in cols for x in col)
    return key, phase


_CACHE: dict[tuple[int, ...], SurdScalar] = {}


def _racah_sum(tj1, tj2, tj3, tm1, tm2, tm3) -> SurdScalar:
    kmin = max(0, (tj2 - tj3 - tm1) // 2, (tj1 - tj3 + tm2) // 2)
    kmax = min((tj1 + tj2 - tj3) // 2, (tj1 - tm1) // 2, (tj2 + tm2) // 2)
    if kmax < kmin:
        return SURD_ZERO
    den_k = [
        factorial(k)
        * factorial((tj1 + tj2 - tj3) // 2 - k)
        * factorial((tj1 - tm1) // 2 - k)
        * factorial((tj2 + tm2) // 2 - k)
        * factorial((tj3 - tj2 + tm1) // 2 + k)
        * factorial((tj3 - tj1 - tm2) // 2 + k)
        for k in range(kmin, kmax + 1)
    ]
    # the alternating sum of 1/den over one common denominator
    common = lcm(*den_k)
    total = Fraction(
        sum(-(common // d) if k % 2 else common // d for k, d in enumerate(den_k, kmin)), common
    )
    if not total:
        return SURD_ZERO
    nums = [
        (tj1 + tj2 - tj3) // 2,
        (tj1 - tj2 + tj3) // 2,
        (-tj1 + tj2 + tj3) // 2,
        (tj1 + tm1) // 2,
        (tj1 - tm1) // 2,
        (tj2 + tm2) // 2,
        (tj2 - tm2) // 2,
        (tj3 + tm3) // 2,
        (tj3 - tm3) // 2,
    ]
    dens = [(tj1 + tj2 + tj3) // 2 + 1]
    prefactor = _sqrt_factorial_ratio(nums, dens)
    sign = -1 if ((tj1 - tj2 - tm3) // 2) % 2 else 1
    return prefactor * (total * sign)


def wigner3j(t: SpinTriple) -> SurdScalar:
    """Exact 3j symbol; zero outside the triangle and m-selection rules.

    Results are memoised under the symmetry-reduced key, so the cache stays
    small even when product tables hammer permuted variants of one symbol.
    The cache only ever maps a key to one canonical value, hence lookups
    are race-free under concurrent use.
    """
    if not _selection_ok(t):
        return SURD_ZERO
    key, phase = _canonical_key(t)
    value = _CACHE.get(key)
    if value is None:
        value = _racah_sum(*key[0::2], *key[1::2])
        _CACHE[key] = value
    return value if phase == 1 else -value


def clebsch_gordan(t: SpinTriple) -> SurdScalar:
    """Exact <j1 m1; j2 m2 | j3 m3> via the 3j reduction."""
    base = wigner3j(SpinTriple(t.tj1, t.tj2, t.tj3, t.tm1, t.tm2, -t.tm3))
    if base.is_zero:
        return SURD_ZERO
    sign = -1 if ((t.tj1 - t.tj2 + t.tm3) // 2) % 2 else 1
    return SurdScalar.sqrt(t.tj3 + 1, sign) * base


# m-independent factor of the S^2 products, one per (l1, l2, l3)
_GAUNT_FACTORS: dict[tuple[int, int, int], SurdScalar] = {}


def _gaunt_factor(l1: int, l2: int, l3: int) -> SurdScalar:
    """sqrt((2l1+1)(2l2+1)(2l3+1)) (l1 l2 l3; 0 0 0), memoised."""
    factor = _GAUNT_FACTORS.get((l1, l2, l3))
    if factor is None:
        zero3j = wigner3j(SpinTriple(2 * l1, 2 * l2, 2 * l3, 0, 0, 0))
        norm = SurdScalar.sqrt((2 * l1 + 1) * (2 * l2 + 1) * (2 * l3 + 1))
        factor = _GAUNT_FACTORS[(l1, l2, l3)] = norm * zero3j
    return factor


def d_product_norm(tj1: int, tj2: int, tj3: int) -> SurdScalar:
    """sqrt((2j1+1)(2j2+1)/(2j3+1)) = sqrt((2j1+1)(2j2+1)(2j3+1)) / (2j3+1).

    The factor in front of the two Clebsch-Gordan coefficients of the
    product rule for unit-normalised SU(2) modes (doubled labels).
    """
    return SurdScalar.sqrt((tj1 + 1) * (tj2 + 1) * (tj3 + 1), Fraction(1, tj3 + 1))


_GAUNTS: dict[tuple[int, ...], SurdScalar] = {}


def _gaunt_key(l1: int, m1: int, l2: int, m2: int, l3: int, m3: int) -> tuple[int, ...]:
    """Memo key: the labels or their m-negation, whichever is larger.

    Negating every m scales the 3j symbol by (-1)^(l1+l2+l3), and
    ``gaunt_normalized`` is 0 unless that sum is even.
    """
    if (m1, m2, m3) < (-m1, -m2, -m3):
        return l1, -m1, l2, -m2, l3, -m3
    return l1, m1, l2, m2, l3, m3


def gaunt_normalized(l1: int, m1: int, l2: int, m2: int, l3: int, m3: int) -> SurdScalar:
    """Triple-product coefficient for unit-normalised spherical modes.

    With rho_lm = sqrt(4 pi) Y_lm on the unit-measure sphere,
    rho_{l1 m1} rho_{l2 m2} = sum_{l3 m3} c rho_{l3 m3} and this returns c.
    """
    for l, m in ((l1, m1), (l2, m2), (l3, m3)):
        if not isinstance(l, int) or not isinstance(m, int) or l < 0 or abs(m) > l:
            raise ValueError(f"bad spherical label (l={l}, m={m})")
    key = _gaunt_key(l1, m1, l2, m2, l3, m3)
    c = _GAUNTS.get(key)
    if c is None:
        c = _gaunt_factor(l1, l2, l3)
        if not c.is_zero:
            c *= wigner3j(SpinTriple(2 * l1, 2 * l2, 2 * l3, 2 * m1, 2 * m2, -2 * m3))
        c = _GAUNTS[key] = -c if m3 % 2 else c
    return c


_NORMED_CG: dict[tuple[int, ...], SurdScalar] = {}
_CG: dict[tuple[int, ...], SurdScalar] = {}


# -- cache maintenance --------------------------------------------------------


def cache_size() -> int:
    return len(_CACHE)


def clear_cache() -> None:
    """Empty the 3j memo and every memo derived from it."""
    for memo in (_CACHE, _GAUNT_FACTORS, _GAUNTS, _NORMED_CG, _CG):
        memo.clear()
    _factorial_exponents.cache_clear()

