"""Exact angular-momentum coupling coefficients.

Every 3j symbol and 2-sphere product coefficient is one surd term
``sign * p/q * sqrt(d)``, computed on Python ints and made a
:class:`SurdScalar` once, at the end; no surd or ``Fraction`` product is
taken along the way.  A Clebsch-Gordan coefficient takes one
:class:`SurdScalar` product more, its 3j symbol times ``+-sqrt(2j3+1)``;
the S^3 product rule then keeps it as an int term (:func:`_as_term`).

* The alternating sum of the single-sum (Racah) formula is taken by
  Horner's rule on the integer ratio of consecutive terms, over the
  running product of their denominators (:func:`_alternating_sum`).
* A square root of a ratio of factorial products has its squarefree d from
  one merge of the memoised squarefree parts of each n!, read off the prime
  exponents of Legendre's formula; the rest of the ratio is then a square,
  whose root is exact (:func:`_sqrt_factorial_ratio`).

The triple-product coefficient of the 2-sphere fuses its two 3j symbols
into one such evaluation.  With 2g = l1 + l2 + l3 even and the triangle
coefficient Delta = (l1+l2-l3)! (l1-l2+l3)! (-l1+l2+l3)! / (2g+1)!,

    (l1 l2 l3; 0 0 0) = (-1)^g sqrt(Delta) g! / ((g-l1)! (g-l2)! (g-l3)!)

(Edmonds 3.7.17), and (l1 l2 l3; m1 m2 -m3) carries the same sqrt(Delta),
so ``gaunt_normalized`` is

    (-1)^(g+l1+l2) Delta g! / ((g-l1)! (g-l2)! (g-l3)!) S
        sqrt((2l1+1)(2l2+1)(2l3+1) (l1+m1)! (l1-m1)! (l2+m2)! ... (l3-m3)!)

with S the one Racah sum of the m-dependent symbol.

SU(2) labels are doubled half-integers (tj = 2j, tm = 2m), the usual trick
for keeping half-integer spins in integer arithmetic; the 2-sphere uses
plain integers (l, m).

Memos, all in-process under plain int keys: 3j symbols in ``_CACHE`` by
``_canonical_key`` (the only memo ``cache_size`` counts, which the
2-sphere never reads); ``gaunt_normalized`` in ``_GAUNTS`` by the
sign-canonical ``_gaunt_key``; both Clebsch-Gordan factors of the SU(2)
product rule in the one memo ``_CG``, as ``(d, num, den)`` int terms by
(tj1, tj2, tj3, tm1, tm2), the rule folding ``d_product_norm`` into one
squarefree split per term;
the squarefree part of n! by n; and the two m-free pieces of
``gaunt_normalized``, the root ``sqrt((2l+1) (l+m)! (l-m)!)`` of each
column by (l, m) and the signed triangle factor by (l1, l2, l3).
``clear_cache`` empties every one of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, isqrt, prod

from .scalars import SURD_ZERO, SurdScalar, surd_product


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
            if type(tj) is not int or type(tm) is not int:
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


def _primes_upto(n: int) -> tuple[int, ...]:
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\x00\x00"
    for p in range(2, int(n**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = b"\x00" * len(sieve[p * p :: p])
    return tuple(i for i in range(n + 1) if sieve[i])


@lru_cache(maxsize=None)
def _factorial_radicand(n: int) -> int:
    """The squarefree part of n!: the product of the primes with an odd exponent in it.

    The exponent of p in n! is the sum of n // p^i (Legendre's formula).
    """
    return prod(
        p for p in _primes_upto(n) if sum(n // p**i for i in range(1, n.bit_length() + 1)) % 2
    )


def _sqrt_factorial_ratio(numerators, denominators) -> tuple[int, int, int]:
    """``(num, den, d)`` with ``num/den sqrt(d) = sqrt(prod n_i! / prod d_i!)``, d squarefree.

    d is the product of the primes with an odd exponent in the ratio, one
    merge of the memoised squarefree parts of the factorials; the rest of
    the ratio is then a square, and num and den its exact square roots.
    """
    radicand = 1
    for n in (*numerators, *denominators):
        part = _factorial_radicand(n)
        g = gcd(radicand, part)
        radicand = (radicand // g) * (part // g)
    top = prod(map(factorial, numerators))
    bottom = radicand * prod(map(factorial, denominators))
    g = gcd(top, bottom)
    return isqrt(top // g), isqrt(bottom // g), radicand


def _alternating_sum(a: int, b: int, c: int, d: int, e: int) -> tuple[int, int]:
    """The Racah sum over k of ``(-1)^k / (k! (a-k)! (b-k)! (c-k)! (d+k)! (e+k)!)``.

    Returned as ``(numerator, positive denominator)``, not reduced.  Each
    term is the one before times ``-(a-k)(b-k)(c-k) / ((k+1)(d+k+1)(e+k+1))``,
    so Horner's rule from the last term sums them over the running product
    of those integer denominators.
    """
    kmin = max(0, -d, -e)
    kmax = min(a, b, c)
    if kmax < kmin:
        return 0, 1
    num = den = 1
    for k in range(kmax - 1, kmin - 1, -1):
        step = (k + 1) * (d + k + 1) * (e + k + 1)
        num, den = den * step - (a - k) * (b - k) * (c - k) * num, den * step
    den *= (
        factorial(kmin)
        * factorial(a - kmin)
        * factorial(b - kmin)
        * factorial(c - kmin)
        * factorial(d + kmin)
        * factorial(e + kmin)
    )
    return (-num if kmin % 2 else num), den


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
    """The 3j symbol by the single-sum formula, for labels obeying the selection rules."""
    total, common = _alternating_sum(
        (tj1 + tj2 - tj3) // 2,
        (tj1 - tm1) // 2,
        (tj2 + tm2) // 2,
        (tj3 - tj2 + tm1) // 2,
        (tj3 - tj1 - tm2) // 2,
    )
    if not total:
        return SURD_ZERO
    nums = (
        (tj1 + tj2 - tj3) // 2,
        (tj1 - tj2 + tj3) // 2,
        (-tj1 + tj2 + tj3) // 2,
        (tj1 + tm1) // 2,
        (tj1 - tm1) // 2,
        (tj2 + tm2) // 2,
        (tj2 - tm2) // 2,
        (tj3 + tm3) // 2,
        (tj3 - tm3) // 2,
    )
    num, den, radicand = _sqrt_factorial_ratio(nums, ((tj1 + tj2 + tj3) // 2 + 1,))
    if ((tj1 - tj2 - tm3) // 2) % 2:
        total = -total
    return SurdScalar._raw({radicand: Fraction(total * num, common * den)})


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


def _as_term(x: SurdScalar) -> tuple[int, int, int]:
    """``x`` as a ``(d, num, den)`` int term ``num/den sqrt(d)``, d squarefree.

    x is zero or a single surd term; zero is ``(1, 0, 1)``.
    """
    if x.is_zero:
        return 1, 0, 1
    ((d, q),) = x._terms.items()
    return d, q.numerator, q.denominator


def clebsch_gordan(t: SpinTriple) -> SurdScalar:
    """Exact <j1 m1; j2 m2 | j3 m3> via the 3j reduction (Edmonds 1957, §3.7).

    The 3j symbol times sqrt(2j3+1), with the phase (-1)^(j1-j2+m3) as its sign.
    """
    flipped = object.__new__(SpinTriple)  # t with m3 negated: still valid, so not checked again
    flipped.__dict__.update(vars(t), tm3=-t.tm3)
    base = wigner3j(flipped)
    if base.is_zero:
        return SURD_ZERO
    return base * SurdScalar.sqrt(t.tj3 + 1, -1 if ((t.tj1 - t.tj2 + t.tm3) // 2) % 2 else 1)


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


@lru_cache(maxsize=None)
def _column_root(l: int, m: int) -> tuple[int, int]:
    """``(d, s)`` with ``s sqrt(d) = sqrt((2l+1) (l+m)! (l-m)!)``, d squarefree."""
    s, _, d = _sqrt_factorial_ratio((l + m, l - m, 2 * l + 1), (2 * l,))  # an integer: den 1
    return d, s


@lru_cache(maxsize=None)
def _triangle_factor(l1: int, l2: int, l3: int) -> Fraction:
    """``(-1)^(g+l1+l2) Delta g! / ((g-l1)! (g-l2)! (g-l3)!)`` of the module docstring."""
    g = (l1 + l2 + l3) // 2
    # Delta's numerator, where l1 + l2 - l3 = 2(g - l3) and so on
    num = factorial(2 * (g - l1)) * factorial(2 * (g - l2)) * factorial(2 * (g - l3))
    num *= factorial(g)
    den = factorial(2 * g + 1) * factorial(g - l1) * factorial(g - l2) * factorial(g - l3)
    return Fraction(-num if (g + l1 + l2) % 2 else num, den)


def _gaunt(l1: int, m1: int, l2: int, m2: int, l3: int, m3: int) -> SurdScalar:
    """The fused triple-product coefficient of the module docstring.

    Only the Racah sum S is computed per call; the root of each column and
    the m-free triangle factor are memoised.
    """
    if (l1 + l2 + l3) % 2 or m1 + m2 != m3 or not abs(l1 - l2) <= l3 <= l1 + l2:
        return SURD_ZERO
    total, common = _alternating_sum(l1 + l2 - l3, l1 - m1, l2 + m2, l3 - l2 + m1, l3 - l1 - m2)
    if not total:
        return SURD_ZERO
    d, s = surd_product(*_column_root(l1, m1), *_column_root(l2, m2))
    d, s = surd_product(d, s, *_column_root(l3, m3))
    t = _triangle_factor(l1, l2, l3)
    return SurdScalar._raw({d: Fraction(total * s * t.numerator, common * t.denominator)})


def gaunt_normalized(l1: int, m1: int, l2: int, m2: int, l3: int, m3: int) -> SurdScalar:
    """Triple-product coefficient for unit-normalised spherical modes.

    With rho_lm = sqrt(4 pi) Y_lm on the unit-measure sphere,
    rho_{l1 m1} rho_{l2 m2} = sum_{l3 m3} c rho_{l3 m3} and this returns c,
    which is (-1)^m3 sqrt((2l1+1)(2l2+1)(2l3+1)) (l1 l2 l3; 0 0 0) (l1 l2 l3; m1 m2 -m3).
    """
    for l, m in ((l1, m1), (l2, m2), (l3, m3)):
        if type(l) is not int or type(m) is not int or l < 0 or abs(m) > l:
            raise ValueError(f"bad spherical label (l={l}, m={m})")
    key = _gaunt_key(l1, m1, l2, m2, l3, m3)
    c = _GAUNTS.get(key)
    if c is None:
        c = _GAUNTS[key] = _gaunt(l1, m1, l2, m2, l3, m3)
    return c


_CG: dict[tuple[int, ...], tuple[int, int, int]] = {}


# -- cache maintenance --------------------------------------------------------


def cache_size() -> int:
    return len(_CACHE)


def clear_cache() -> None:
    """Empty the 3j memo and every other coupling memo."""
    for memo in (_CACHE, _GAUNTS, _CG):
        memo.clear()
    for memo in (_factorial_radicand, _column_root, _triangle_factor):
        memo.cache_clear()
