"""Exact scalars: rationals, surd combinations, and complex values over them.

Every coefficient produced by the coupling and mode-expansion machinery in
this package is a finite Q-linear combination ``sum_d q_d * sqrt(d)`` with
rational q_d and squarefree d >= 1.  That set is a ring, contains the
inverses of its single-term members, and admits an exact zero test: the
sqrt(d) over distinct squarefree d are linearly independent over Q, so a
value is zero iff its canonical term map is empty.  Every such map is built
by :func:`_fold`, the one rule that sums equal radicands and drops zero
sums: constructing a :class:`SurdScalar`, ``+`` and ``*`` all return through it.

Every product reduces to :func:`surd_product` on two terms, with int or
Fraction coefficients: :meth:`SurdScalar.__mul__` is built on it, and so
are the block rows of the bracket-row builder and :func:`contract`, the one
rule the exact checks sum with (both inline its radicand-1 case).  Both run
on integer rows ``(den, ((key, d, n), ...))``: integer numerators n over
one positive denominator, in lowest terms and with zero terms dropped
(:func:`int_row`, :func:`lowest_row`), so equal rows are equal tuples and
a sum is zero exactly when every numerator is.

Values are immutable after construction and safe to share between workers.
Floats enter only at the oracle boundary via :meth:`SurdScalar.evalf`.
"""

from __future__ import annotations

from decimal import Context, Decimal, localcontext
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from types import MappingProxyType

# Rational scalars are plain stdlib fractions: normalised (gcd 1, positive
# denominator) and big-integer backed, which is exactly the contract needed.
Rational = Fraction


@lru_cache(maxsize=4096, typed=True)
def squarefree_split(n: int) -> tuple[int, int]:
    """Write ``n = s*s*d`` with d squarefree; return ``(s, d)``.

    Trial division, memoised; meant for the few moderate radicands of user
    input, loaded tables and normalisation factors.  The coupling-coefficient
    code never calls this on large factorials (it tracks prime exponents).
    """
    if n <= 0:
        raise ValueError(f"radicand must be a positive integer, got {n}")
    s, d, m = 1, 1, n
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            s *= p ** (e // 2)
            if e % 2:
                d *= p
        p += 1 if p == 2 else 2
    return s, d * m


def surd_product(d1: int, q1, d2: int, q2):
    """``(d, q)`` with ``q sqrt(d) = q1 sqrt(d1) * q2 sqrt(d2)``, for squarefree d1, d2.

    The coefficients are ints or Fractions; q has the type of ``q1 * q2``.
    """
    if d1 == 1:
        return d2, q1 * q2
    if d2 == 1:
        return d1, q1 * q2
    if d1 == d2:
        return 1, q1 * q2 * d1
    # both squarefree, so d1*d2 = g^2 * (d1/g)(d2/g)
    g = gcd(d1, d2)
    if g == 1:
        return d1 * d2, q1 * q2
    return (d1 // g) * (d2 // g), q1 * q2 * g


def lowest_row(scale: int, terms: list) -> tuple:
    """The row of nonzero ``(key, d, n)`` terms over ``scale``, divided by their gcd."""
    g = gcd(scale, *[n for _, _, n in terms])
    if g == 1:
        return scale, tuple(terms)
    return scale // g, tuple([(key, d, n // g) for key, d, n in terms])


def int_row(entries, factor: int = 1) -> tuple:
    """The integer row of ``factor * sum x_key * key`` over ``(key, SurdScalar x)`` entries.

    ``factor`` is a nonzero int, and the keys are distinct.
    """
    terms = [(key, d, q) for key, x in entries for d, q in x._terms.items()]
    scale = lcm(*[q.denominator for _, _, q in terms])
    return lowest_row(
        scale, [(key, d, factor * q.numerator * (scale // q.denominator)) for key, d, q in terms]
    )


def contract(acc: dict, scale: int, row: tuple, rows) -> int:
    """Add each term ``(w, d, n)`` of ``row``, as ``n/den sqrt(d) rows(w)``, to ``acc``.

    ``acc`` maps ``(u, d)`` to integer numerators over ``scale``, and each
    row is ``(den, ((key, d, n), ...))``; the new scale is returned.  It is
    the lcm of the denominators seen so far: when a new product of
    denominators does not divide it, it grows to their lcm and ``acc`` is
    rescaled in place.  Every product of two surd terms is :func:`surd_product`,
    except that a term of radicand 1 scales the numerators of ``rows(w)`` directly.
    """
    den, terms = row
    get = acc.get
    for w, d1, n1 in terms:
        rden, rterms = rows(w)
        if not rterms:
            continue
        step = den * rden
        if scale % step:
            grow = step // gcd(scale, step)
            scale *= grow
            for key in acc:
                acc[key] *= grow
        m = scale // step * n1
        if d1 == 1:  # surd_product's first case, without the call
            for u, d2, n2 in rterms:
                key = (u, d2)
                acc[key] = get(key, 0) + m * n2
            continue
        for u, d2, n2 in rterms:
            d, n = surd_product(d1, m, d2, n2)
            key = (u, d)
            acc[key] = get(key, 0) + n
    return scale


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an int or Fraction, got {type(x).__name__}")


def _fold(canon: dict, pairs) -> dict:
    """Fold ``(d, q)`` pairs, d squarefree and q nonzero, into the canonical map ``canon``.

    Equal radicands are summed in the order they come, a radicand whose sum
    is zero is dropped (and goes to the end if it comes again), and ``canon``
    is returned.  It adds no ``Fraction`` operation beyond those sums.
    """
    for d, q in pairs:
        acc = canon.get(d)
        if acc is None:
            canon[d] = q
        else:
            total = acc + q
            if total:
                canon[d] = total
            else:
                del canon[d]
    return canon


class SurdScalar:
    """Immutable Q-linear combination of square roots of squarefree integers.

    The canonical form maps each squarefree radicand to a nonzero rational
    coefficient; the empty map is zero and the radicand 1 carries the
    rational part.  Equality and hashing are structural on that form.
    """

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms=None):
        pairs = []
        if terms:
            for rad, coeff in terms.items() if hasattr(terms, "items") else terms:
                q = _as_fraction(coeff)
                if q:
                    s, d = squarefree_split(rad)
                    pairs.append((d, q * s if s != 1 else q))
        self._terms = _fold({}, pairs)
        self._hash = None

    # -- construction ------------------------------------------------------

    @classmethod
    def _raw(cls, canon: dict[int, Fraction]) -> "SurdScalar":
        # internal: caller guarantees canonical form
        obj = object.__new__(cls)
        obj._terms = canon
        obj._hash = None
        return obj

    @classmethod
    def rational(cls, q) -> "SurdScalar":
        q = _as_fraction(q)
        return cls._raw({1: q} if q else {})

    @classmethod
    def sqrt(cls, radicand: int, coeff=1) -> "SurdScalar":
        """``coeff * sqrt(radicand)`` with square factors absorbed."""
        q = _as_fraction(coeff)
        if not q:
            return SURD_ZERO
        s, d = squarefree_split(radicand)
        return cls._raw({d: q * s if s != 1 else q})

    @classmethod
    def sqrt_rational(cls, value) -> "SurdScalar":
        """Exact square root of a nonnegative rational: sqrt(p/q) = sqrt(pq)/q."""
        v = _as_fraction(value)
        if v < 0:
            raise ValueError("square root of a negative rational")
        if not v:
            return SURD_ZERO
        return cls.sqrt(v.numerator * v.denominator, Fraction(1, v.denominator))

    # -- predicates and views ----------------------------------------------

    @property
    def terms(self) -> MappingProxyType:
        """The canonical ``radicand -> coefficient`` map, read-only."""
        return MappingProxyType(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_rational(self) -> bool:
        return not self._terms or (len(self._terms) == 1 and 1 in self._terms)

    def as_fraction(self) -> Fraction:
        if not self._terms:
            return Fraction(0)
        if self.is_rational:
            return self._terms[1]
        raise ValueError(f"{self} is not rational")

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other._terms:
            return self
        if not self._terms:
            return other
        return SurdScalar._raw(_fold(dict(self._terms), other._terms.items()))

    __radd__ = __add__

    def __neg__(self):
        return SurdScalar._raw({d: -q for d, q in self._terms.items()})

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, SurdScalar):
            pairs = [
                surd_product(d1, q1, d2, q2)
                for d1, q1 in self._terms.items()
                for d2, q2 in other._terms.items()
            ]
            return SurdScalar._raw(_fold({}, pairs))
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        if not other:
            return SURD_ZERO
        return SurdScalar._raw({d: q * other for d, q in self._terms.items()})

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                raise ZeroDivisionError("division by zero")
            return self * (Fraction(1) / _as_fraction(other))
        if not isinstance(other, SurdScalar):
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("division by zero")
        if len(other._terms) > 1:
            raise ValueError("division is only defined by single-term surds")
        (d, q), = other._terms.items()
        # (q sqrt(d))^-1 = sqrt(d) / (q d)
        return self * SurdScalar._raw({d: Fraction(1, 1) / (q * d)})

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = SurdScalar.rational(other)
        if not isinstance(other, SurdScalar):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        if self._hash is None:
            if self.is_rational:
                self._hash = hash(self._terms.get(1, Fraction(0)))
            else:
                self._hash = hash(tuple(sorted(self._terms.items())))
        return self._hash

    def __bool__(self):
        return bool(self._terms)

    # -- numeric conversion --------------------------------------------------

    def evalf(self, precision: int = 17) -> Decimal:
        """Value as a :class:`decimal.Decimal` correct to ``precision`` significant digits.

        Each term ``q*sqrt(d)`` and the running sum are rounded at ten extra
        digits, and the sum then to ``precision`` digits; ``decimal``
        rounds division, square root and addition correctly at any precision.
        """
        if precision < 1:
            raise ValueError("precision must be >= 1")
        # a fresh context, so a caller's rounding mode or traps do not apply
        with localcontext(Context(prec=precision + 10)) as ctx:
            total = Decimal(0)
            for d, q in self._terms.items():
                term = Decimal(q.numerator) / q.denominator
                if d != 1:
                    term *= Decimal(d).sqrt()
                total += term
            ctx.prec = precision
            return +total

    def __float__(self):
        # 20 digits, not 17: at 17 the second rounding, to a double, misses the
        # nearest double for some stored product coefficients
        return float(self.evalf(20))

    # -- presentation and persistence ---------------------------------------

    def __repr__(self):
        return f"SurdScalar({self!s})"

    def __str__(self):
        if not self._terms:
            return "0"
        pieces = []
        for d in sorted(self._terms):
            q = self._terms[d]
            neg = q < 0
            q = -q if neg else q
            if d == 1:
                body = str(q)
            elif q == 1:
                body = f"√{d}"
            elif q.denominator == 1:
                body = f"{q.numerator}√{d}"
            else:
                body = f"({q})√{d}"
            if not pieces:
                pieces.append(("-" if neg else "") + body)
            else:
                pieces.append((" - " if neg else " + ") + body)
        return "".join(pieces)

    def to_records(self) -> list[dict[str, object]]:
        """JSON-safe form: integer strings avoid 64-bit readers overflowing."""
        return [
            {"radicand": d, "num": str(q.numerator), "den": str(q.denominator)}
            for d, q in sorted(self._terms.items())
        ]

    @classmethod
    def from_records(cls, records) -> "SurdScalar":
        terms: dict[int, Fraction] = {}
        for rec in records:
            d, num, den = rec["radicand"], rec["num"], rec["den"]
            if type(d) is not int or type(num) is not str or type(den) is not str:
                raise ValueError(f"a surd record needs an int radicand and string num, den: {rec}")
            if d in terms:
                raise ValueError(f"repeated radicand {d} in surd records {records}")
            terms[d] = Fraction(int(num), int(den))
        return cls(terms)


def _coerce(x):
    if isinstance(x, SurdScalar):
        return x
    if isinstance(x, (int, Fraction)):
        return SurdScalar.rational(x)
    return NotImplemented


SURD_ZERO = SurdScalar()
SURD_ONE = SurdScalar.rational(1)


class ComplexSurd:
    """Complex value with exact surd real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=SURD_ZERO, im=SURD_ZERO):
        re_c = _coerce(re)
        im_c = _coerce(im)
        if re_c is NotImplemented or im_c is NotImplemented:
            raise TypeError("ComplexSurd components must be surd or rational values")
        object.__setattr__(self, "re", re_c)
        object.__setattr__(self, "im", im_c)

    def __setattr__(self, *args):
        raise AttributeError("ComplexSurd is immutable")

    @classmethod
    def rational(cls, q) -> "ComplexSurd":
        return cls(SurdScalar.rational(q), SURD_ZERO)

    @classmethod
    def real(cls, s) -> "ComplexSurd":
        return cls(s, SURD_ZERO)

    @classmethod
    def imaginary(cls, s) -> "ComplexSurd":
        return cls(SURD_ZERO, s)

    @property
    def is_zero(self) -> bool:
        return self.re.is_zero and self.im.is_zero

    def conjugate(self) -> "ComplexSurd":
        return ComplexSurd(self.re, -self.im)

    def times_i(self) -> "ComplexSurd":
        return ComplexSurd(-self.im, self.re)

    def __add__(self, other):
        other = _coerce_complex(other)
        if other is NotImplemented:
            return NotImplemented
        return ComplexSurd(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return ComplexSurd(-self.re, -self.im)

    def __sub__(self, other):
        other = _coerce_complex(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce_complex(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, SurdScalar)):
            return ComplexSurd(self.re * other, self.im * other)
        if not isinstance(other, ComplexSurd):
            return NotImplemented
        return ComplexSurd(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce_complex(other)
        if other is NotImplemented:
            return NotImplemented
        # |w|^2 is rational whenever each component is a single surd term,
        # which covers every divisor used by the span solvers.
        norm = other.re * other.re + other.im * other.im
        if norm.is_zero:
            raise ZeroDivisionError("division by zero")
        num = self * other.conjugate()
        return ComplexSurd(num.re / norm, num.im / norm)

    def __eq__(self, other):
        other = _coerce_complex(other)
        if other is NotImplemented:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        # a real value equals its real part, so it hashes as one
        return hash(self.re) if self.im.is_zero else hash((self.re, self.im))

    def __bool__(self):
        return not self.is_zero

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"ComplexSurd({self.re!s}, {self.im!s})"

    def __str__(self):
        if self.im.is_zero:
            return str(self.re)
        if self.re.is_zero:
            return f"({self.im})i"
        return f"({self.re}) + ({self.im})i"

    def to_records(self) -> dict[str, object]:
        return {"re": self.re.to_records(), "im": self.im.to_records()}

    @classmethod
    def from_records(cls, rec) -> "ComplexSurd":
        return cls(SurdScalar.from_records(rec["re"]), SurdScalar.from_records(rec["im"]))


def _coerce_complex(x):
    if isinstance(x, ComplexSurd):
        return x
    if isinstance(x, (int, Fraction, SurdScalar)):
        return ComplexSurd(x, SURD_ZERO)
    return NotImplemented


CSURD_ZERO = ComplexSurd()
CSURD_I = ComplexSurd(SURD_ZERO, SURD_ONE)
