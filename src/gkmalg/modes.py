"""Orthonormal mode systems on tori, the 2-sphere, and SU(2).

Bases, all with unit total measure so the constant mode is the
multiplicative identity:

* torus T^n:   rho_m = exp(i m.phi),                 m in Z^n
* 2-sphere:    rho_lm = sqrt(4 pi) Y_lm
* SU(2) (~S^3): rho^j_{m m'} = sqrt(2j+1) D^j_{m m'}  (Euler angles, Haar)

Complex conjugation acts on each basis as a signed permutation eta, and the
commuting invariant derivatives act diagonally with rational eigenvalues.
Sphere labels use doubled integers (2j, 2m, 2m') so half-integer modes stay
in integer arithmetic.

A :class:`ModeSystem` materialises the product/eta/eigenvalue tables for
all labels within a cutoff (those tables are what gets serialised, and what
the verification suites interrogate) while products involving labels beyond
the cutoff are computed on demand, so bracket and associativity checks stay
exact with no truncation error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from .report import CheckFailed, CheckResult, checking
from .scalars import SURD_ONE, SURD_ZERO, SurdScalar, int_row, lowest_row, squarefree_split
from .wigner import _CG, _GAUNTS, SpinTriple, _as_term, _gaunt_key, clebsch_gordan
from .wigner import gaunt_normalized

ModeLabel = tuple[int, ...]
Eigen = tuple[Fraction, ...]


class TorusGeometry:
    """T^n with plane-wave modes labelled by integer vectors."""

    kind = "torus"
    eigen_den = 1  # every eigenvalue of the rule is a multiple of 1/eigen_den

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("torus dimension must be >= 1")
        self.n = n
        self.r = n

    @property
    def name(self) -> str:
        return f"t{self.n}"

    @property
    def unit(self) -> ModeLabel:
        return (0,) * self.n

    def validate(self, label: ModeLabel) -> None:
        if len(label) != self.n or not all(type(m) is int for m in label):
            raise ValueError(f"bad torus mode {label!r}")

    def enumerate_modes(self, cutoff: int) -> list[ModeLabel]:
        if cutoff < 0:
            raise ValueError("cutoff must be >= 0")
        rng = range(-cutoff, cutoff + 1)
        modes = [()]
        for _ in range(self.n):
            modes = [m + (k,) for m in modes for k in rng]
        return sorted(modes)

    def mode_count(self, cutoff: int) -> int:
        """``len(enumerate_modes(cutoff))`` for cutoff >= 0, without enumerating."""
        return (2 * cutoff + 1) ** self.n

    def degree(self, label: ModeLabel) -> int:
        return max((abs(m) for m in label), default=0)

    def product(self, I: ModeLabel, J: ModeLabel) -> dict[ModeLabel, SurdScalar]:
        return {tuple(a + b for a, b in zip(I, J)): SURD_ONE}

    def eta(self, I: ModeLabel) -> tuple[ModeLabel, int]:
        return tuple(-m for m in I), 1

    def eigen(self, I: ModeLabel) -> Eigen:
        return tuple(Fraction(m) for m in I)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "n": self.n}


class Sphere2Geometry:
    """Unit 2-sphere with sqrt(4 pi) Y_lm modes, labels (l, m)."""

    kind = "sphere2"
    r = 1
    eigen_den = 1

    name = "s2"
    unit: ModeLabel = (0, 0)

    def validate(self, label: ModeLabel) -> None:
        if len(label) != 2:
            raise ValueError(f"bad sphere mode {label!r}")
        l, m = label
        if type(l) is not int or type(m) is not int or l < 0 or abs(m) > l:
            raise ValueError(f"bad sphere mode {label!r}")

    def enumerate_modes(self, cutoff: int) -> list[ModeLabel]:
        if cutoff < 0:
            raise ValueError("cutoff must be >= 0")
        return [(l, m) for l in range(cutoff + 1) for m in range(-l, l + 1)]

    def mode_count(self, cutoff: int) -> int:
        """``len(enumerate_modes(cutoff))`` for cutoff >= 0, without enumerating."""
        return (cutoff + 1) ** 2

    def degree(self, label: ModeLabel) -> int:
        return label[0]

    def product(self, I: ModeLabel, J: ModeLabel) -> dict[ModeLabel, SurdScalar]:
        l1, m1 = I
        l2, m2 = J
        m3 = m1 + m2
        out: dict[ModeLabel, SurdScalar] = {}
        # (l1 l2 l3; 0 0 0) vanishes for odd l1 + l2 + l3
        for l3 in range(abs(l1 - l2), l1 + l2 + 1, 2):
            if abs(m3) > l3:
                continue
            c = _GAUNTS.get(_gaunt_key(l1, m1, l2, m2, l3, m3))
            if c is None:
                c = gaunt_normalized(l1, m1, l2, m2, l3, m3)
            if not c.is_zero:
                out[(l3, m3)] = c
        return out

    def eta(self, I: ModeLabel) -> tuple[ModeLabel, int]:
        l, m = I
        return (l, -m), (-1 if m % 2 else 1)

    def eigen(self, I: ModeLabel) -> Eigen:
        return (Fraction(I[1]),)

    def to_dict(self) -> dict:
        return {"kind": self.kind}


class Sphere3Geometry:
    """SU(2) (round 3-sphere) with sqrt(2j+1) D^j_{mm'} modes.

    Labels are doubled: (2j, 2m, 2m').  The full Peter-Weyl basis includes
    half-integer j; ``half_integer=False`` keeps only integer j (functions
    on SO(3), i.e. the two-sided quotient picture).
    """

    kind = "sphere3"
    r = 2
    eigen_den = 2

    unit: ModeLabel = (0, 0, 0)

    def __init__(self, half_integer: bool = True):
        self.half_integer = bool(half_integer)

    @property
    def name(self) -> str:
        return "s3" if self.half_integer else "s3-integer"

    def validate(self, label: ModeLabel) -> None:
        if len(label) != 3:
            raise ValueError(f"bad SU(2) mode {label!r}")
        tj, tm, tmp = label
        ok = (
            all(type(x) is int for x in label)
            and tj >= 0
            and abs(tm) <= tj
            and abs(tmp) <= tj
            and (tj - tm) % 2 == 0
            and (tj - tmp) % 2 == 0
        )
        if not ok:
            raise ValueError(f"bad SU(2) mode {label!r}")
        if not self.half_integer and tj % 2:
            raise ValueError(f"half-integer mode {label!r} in integer-only basis")

    def enumerate_modes(self, cutoff: int) -> list[ModeLabel]:
        if cutoff < 0:
            raise ValueError("cutoff must be >= 0")
        step = 1 if self.half_integer else 2
        out = []
        for tj in range(0, cutoff + 1, step):
            for tm in range(-tj, tj + 1, 2):
                for tmp in range(-tj, tj + 1, 2):
                    out.append((tj, tm, tmp))
        return out

    def mode_count(self, cutoff: int) -> int:
        """``len(enumerate_modes(cutoff))`` for cutoff >= 0: a sum of (2j+1)^2, without enumerating."""
        if self.half_integer:
            return (cutoff + 1) * (cutoff + 2) * (2 * cutoff + 3) // 6
        k = cutoff // 2  # 2j = 0, 2, ..., 2k
        return (k + 1) * (2 * k + 1) * (2 * k + 3) // 3

    def degree(self, label: ModeLabel) -> int:
        return label[0]

    def product(self, I: ModeLabel, J: ModeLabel) -> dict[ModeLabel, SurdScalar]:
        return {K: SurdScalar._raw({d: Fraction(n, q)}) for K, d, n, q in self._product_terms(I, J)}

    def _product_terms(self, I: ModeLabel, J: ModeLabel) -> list[tuple]:
        """The nonzero terms ``(K, d, n, q)`` of rho_I rho_J, each ``n/q sqrt(d)`` on ints."""
        tj1, tm1, tmp1 = I
        tj2, tm2, tmp2 = J
        tm3 = tm1 + tm2
        tmp3 = tmp1 + tmp2
        out = []
        # a term is d_product_norm = sqrt((2j1+1)(2j2+1)(2j3+1)) / (2j3+1) times the memoised
        # CG terms n1/q1 sqrt(d1) and n2/q2 sqrt(d2) of the m and the m' column, so its radicand
        # is the squarefree part e of (2j1+1)(2j2+1)(2j3+1) d1 d2 = s^2 e, and its numerator s n1 n2
        dims = (tj1 + 1) * (tj2 + 1)
        for tj3 in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
            if abs(tm3) > tj3 or abs(tmp3) > tj3:
                continue
            d1, n1, q1 = _CG.get((tj1, tj2, tj3, tm1, tm2)) or _cg_miss(tj1, tj2, tj3, tm1, tm2)
            if not n1:
                continue
            d2, n2, q2 = _CG.get((tj1, tj2, tj3, tmp1, tmp2)) or _cg_miss(tj1, tj2, tj3, tmp1, tmp2)
            if not n2:
                continue
            s, e = squarefree_split(dims * (tj3 + 1) * d1 * d2)
            out.append(((tj3, tm3, tmp3), e, s * n1 * n2, q1 * q2 * (tj3 + 1)))
        return out

    def eta(self, I: ModeLabel) -> tuple[ModeLabel, int]:
        tj, tm, tmp = I
        phase = -1 if ((tm - tmp) // 2) % 2 else 1
        return (tj, -tm, -tmp), phase

    def eigen(self, I: ModeLabel) -> Eigen:
        return (Fraction(I[1], 2), Fraction(I[2], 2))

    def to_dict(self) -> dict:
        return {"kind": self.kind, "half_integer": self.half_integer}


def _cg_miss(tj1: int, tj2: int, tj3: int, tm1: int, tm2: int) -> tuple[int, int, int]:
    """Memoise <j1 m1; j2 m2 | j3 m1+m2> in ``wigner._CG`` as a ``(d, num, den)`` term.

    The one call of :func:`clebsch_gordan` (which validates the labels) on a miss.
    """
    cg = clebsch_gordan(SpinTriple(tj1, tj2, tj3, tm1, tm2, tm1 + tm2))
    _CG[tj1, tj2, tj3, tm1, tm2] = term = _as_term(cg)
    return term


Geometry = TorusGeometry | Sphere2Geometry | Sphere3Geometry

_MANIFOLD_DOC = "t<n> (torus, e.g. t1/t2), s1 (= t1), s2, s3, s3-integer"


def parse_manifold(token: str) -> Geometry:
    """Geometry from a short manifold id; raises ValueError when unsupported."""
    token = token.strip().lower()
    if token == "s2":
        return Sphere2Geometry()
    if token == "s3":
        return Sphere3Geometry(half_integer=True)
    if token == "s3-integer":
        return Sphere3Geometry(half_integer=False)
    if token == "s1":
        return TorusGeometry(1)
    if token.startswith("t") and token[1:].isdigit():
        return TorusGeometry(int(token[1:]))
    raise ValueError(f"unsupported manifold {token!r}; expected one of: {_MANIFOLD_DOC}")


def geometry_from_dict(data: dict) -> Geometry:
    kind = data.get("kind")
    if kind == "torus" and type(data["n"]) is int:
        return TorusGeometry(data["n"])
    if kind == "sphere2":
        return Sphere2Geometry()
    if kind == "sphere3" and type(data.get("half_integer")) is bool:
        return Sphere3Geometry(half_integer=data["half_integer"])
    raise ValueError(f"unsupported manifold record {data!r}")


@dataclass
class ModeSystem:
    """Materialised mode tables for one manifold at a fixed cutoff.

    ``products``/``eta_table``/``eigen_table`` are the authoritative data
    for labels within the cutoff: verification reads them (so a tampered
    dump is caught), and serialisation round-trips them.  Labels beyond the
    cutoff fall back to the geometry rules.  :meth:`product_row` memoises
    each product it is asked for as one integer row: in ``_table_rows`` when
    read off ``products``, in ``_ext_products`` when computed by the geometry.
    """

    geometry: Geometry
    cutoff: int
    modes: list[ModeLabel]
    products: dict[tuple[ModeLabel, ModeLabel], dict[ModeLabel, SurdScalar]]
    eta_table: dict[ModeLabel, tuple[ModeLabel, int]]
    eigen_table: dict[ModeLabel, Eigen]
    _table_rows: dict = field(default_factory=dict, init=False, repr=False)  # (I, J) -> row
    _ext_products: dict = field(default_factory=dict, init=False, repr=False)  # (I, J) -> row
    _rule_eigen: dict = field(default_factory=dict, init=False, repr=False)  # K -> int labels

    @property
    def r(self) -> int:
        return self.geometry.r

    @property
    def unit(self) -> ModeLabel:
        return self.geometry.unit

    def __contains__(self, label: ModeLabel) -> bool:
        return label in self.eigen_table

    def product(self, I: ModeLabel, J: ModeLabel) -> dict[ModeLabel, SurdScalar]:
        table = self.products.get((I, J))
        return table if table is not None else self.geometry.product(I, J)

    def product_row(self, I: ModeLabel, J: ModeLabel) -> tuple:
        """rho_I rho_J as the memoised integer row ``(den, ((K, d, n), ...))``; beyond the
        cutoff it is the geometry's rule, on S^3 built straight from its int CG terms."""
        key = (I, J)
        row = self._table_rows.get(key) or self._ext_products.get(key)
        if row is None:
            table = self.products.get(key)
            if table is not None:
                row = self._table_rows[key] = int_row(table.items())
            elif isinstance(self.geometry, Sphere3Geometry):  # one lcm over the int CG terms
                terms = self.geometry._product_terms(I, J)
                scale = lcm(*[t[3] for t in terms])
                row = lowest_row(scale, [(K, d, n * (scale // q)) for K, d, n, q in terms])
                self._ext_products[key] = row
            else:
                row = self._ext_products[key] = int_row(self.geometry.product(I, J).items())
        return row

    def eta(self, I: ModeLabel) -> tuple[ModeLabel, int]:
        hit = self.eta_table.get(I)
        return hit if hit is not None else self.geometry.eta(I)

    def eigen(self, I: ModeLabel) -> Eigen:
        hit = self.eigen_table.get(I)
        return hit if hit is not None else self.geometry.eigen(I)

    def rule_eigen(self, K: ModeLabel) -> tuple[int, ...]:
        """The geometry's eigenvalues of mode K as ints over ``geometry.eigen_den``, memoised.

        The rule's labels, never ``eigen_table``'s, so no edit of the table makes one stale.
        """
        hit = self._rule_eigen.get(K)
        if hit is None:
            den = self.geometry.eigen_den
            values = self.geometry.eigen(K)
            hit = self._rule_eigen[K] = tuple(v.numerator * (den // v.denominator) for v in values)
        return hit

    def cocycle_pairing(self, j: int, I: ModeLabel, J: ModeLabel) -> SurdScalar:
        """omega_j mode factor: eigenvalue of the first slot times eta_IJ.

        Zero unless J is the conjugation partner of I; equals the exact
        integral of (D_j rho_I) rho_J over the manifold.
        """
        if not 1 <= j <= self.r:
            raise ValueError(f"operator index {j} out of range 1..{self.r}")
        partner, phase = self.eta(I)
        if partner != J:
            return SURD_ZERO
        value = self.eigen(I)[j - 1] * phase
        return SurdScalar.rational(value)

    def hermiticity_check(self, j: int) -> CheckResult:
        """Eigenvalues must pair to zero across eta: <D f, g> = <f, D g>."""
        if not 1 <= j <= self.r:
            raise ValueError(f"operator index {j} out of range 1..{self.r}")
        with checking(f"hermiticity_D{j}") as result:
            for I in result.tally("modes", self.modes):
                partner, _ = self.eta(I)
                total = self.eigen(I)[j - 1] + self.eigen(partner)[j - 1]
                if total:
                    raise CheckFailed(
                        {"mode": list(I), "partner": list(partner), "eigen_sum": str(total)}
                    )
        return result


def enumerate_modes(geometry: Geometry, cutoff: int) -> list[ModeLabel]:
    return geometry.enumerate_modes(cutoff)


def make_mode_system(geometry: Geometry, cutoff: int) -> ModeSystem:
    """Build the tables for all ordered in-cutoff pairs.

    The product is commutative, so each unordered pair is computed once:
    (I, J) with I at or before J in ``modes`` comes from the geometry and
    (J, I) is a copy of it.  A copy, not the same dict, so that a tamper of
    one ordering stays visible to ``product_commutativity``.  Entries are
    inserted in (I, J) row order either way, which fixes the order the
    oracle enumerates them in.
    """
    modes = geometry.enumerate_modes(cutoff)
    products: dict[tuple[ModeLabel, ModeLabel], dict[ModeLabel, SurdScalar]] = {}
    for i, I in enumerate(modes):
        for j, J in enumerate(modes):
            if j < i:
                products[(I, J)] = dict(products[(J, I)])
            else:
                products[(I, J)] = geometry.product(I, J)
    eta_table = {I: geometry.eta(I) for I in modes}
    eigen_table = {I: geometry.eigen(I) for I in modes}
    return ModeSystem(
        geometry=geometry,
        cutoff=cutoff,
        modes=modes,
        products=products,
        eta_table=eta_table,
        eigen_table=eigen_table,
    )
