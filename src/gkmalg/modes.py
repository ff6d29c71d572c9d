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
from .report import CheckFailed, CheckResult, checking
from .scalars import SURD_ONE, SURD_ZERO, SurdScalar
from .wigner import SpinTriple, clebsch_gordan, gaunt_normalized

ModeLabel = tuple[int, ...]
Eigen = tuple[Fraction, ...]


class TorusGeometry:
    """T^n with plane-wave modes labelled by integer vectors."""

    kind = "torus"

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
        if len(label) != self.n or not all(isinstance(m, int) for m in label):
            raise ValueError(f"bad torus mode {label!r}")

    def enumerate_modes(self, cutoff: int) -> list[ModeLabel]:
        if cutoff < 0:
            raise ValueError("cutoff must be >= 0")
        rng = range(-cutoff, cutoff + 1)
        modes = [()]
        for _ in range(self.n):
            modes = [m + (k,) for m in modes for k in rng]
        return sorted(modes)

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

    name = "s2"
    unit: ModeLabel = (0, 0)

    def validate(self, label: ModeLabel) -> None:
        if len(label) != 2:
            raise ValueError(f"bad sphere mode {label!r}")
        l, m = label
        if not isinstance(l, int) or not isinstance(m, int) or l < 0 or abs(m) > l:
            raise ValueError(f"bad sphere mode {label!r}")

    def enumerate_modes(self, cutoff: int) -> list[ModeLabel]:
        if cutoff < 0:
            raise ValueError("cutoff must be >= 0")
        return [(l, m) for l in range(cutoff + 1) for m in range(-l, l + 1)]

    def degree(self, label: ModeLabel) -> int:
        return label[0]

    def product(self, I: ModeLabel, J: ModeLabel) -> dict[ModeLabel, SurdScalar]:
        l1, m1 = I
        l2, m2 = J
        m3 = m1 + m2
        out: dict[ModeLabel, SurdScalar] = {}
        for l3 in range(abs(l1 - l2), l1 + l2 + 1):
            if abs(m3) > l3:
                continue
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
            all(isinstance(x, int) for x in label)
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

    def degree(self, label: ModeLabel) -> int:
        return label[0]

    def product(self, I: ModeLabel, J: ModeLabel) -> dict[ModeLabel, SurdScalar]:
        tj1, tm1, tmp1 = I
        tj2, tm2, tmp2 = J
        tm3 = tm1 + tm2
        tmp3 = tmp1 + tmp2
        out: dict[ModeLabel, SurdScalar] = {}
        for tj3 in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
            if abs(tm3) > tj3 or abs(tmp3) > tj3:
                continue
            left = clebsch_gordan(SpinTriple(tj1, tj2, tj3, tm1, tm2, tm3))
            if left.is_zero:
                continue
            right = clebsch_gordan(SpinTriple(tj1, tj2, tj3, tmp1, tmp2, tmp3))
            if right.is_zero:
                continue
            # sqrt((2j1+1)(2j2+1)/(2j3+1)) = sqrt(prod) / (2j3+1)
            norm = SurdScalar.sqrt(
                (tj1 + 1) * (tj2 + 1) * (tj3 + 1), Fraction(1, tj3 + 1)
            )
            out[(tj3, tm3, tmp3)] = norm * left * right
        return out

    def eta(self, I: ModeLabel) -> tuple[ModeLabel, int]:
        tj, tm, tmp = I
        phase = -1 if ((tm - tmp) // 2) % 2 else 1
        return (tj, -tm, -tmp), phase

    def eigen(self, I: ModeLabel) -> Eigen:
        return (Fraction(I[1], 2), Fraction(I[2], 2))

    def to_dict(self) -> dict:
        return {"kind": self.kind, "half_integer": self.half_integer}


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
    if kind == "torus":
        return TorusGeometry(int(data["n"]))
    if kind == "sphere2":
        return Sphere2Geometry()
    if kind == "sphere3":
        return Sphere3Geometry(half_integer=bool(data.get("half_integer", True)))
    raise ValueError(f"unsupported manifold record {data!r}")


@dataclass
class ModeSystem:
    """Materialised mode tables for one manifold at a fixed cutoff.

    ``products``/``eta_table``/``eigen_table`` are the authoritative data
    for labels within the cutoff: verification reads them (so a tampered
    dump is caught), and serialisation round-trips them.  Labels beyond the
    cutoff fall back to the geometry rules through a memo cache.
    """

    geometry: Geometry
    cutoff: int
    modes: list[ModeLabel]
    products: dict[tuple[ModeLabel, ModeLabel], dict[ModeLabel, SurdScalar]]
    eta_table: dict[ModeLabel, tuple[ModeLabel, int]]
    eigen_table: dict[ModeLabel, Eigen]
    _ext_products: dict = field(default_factory=dict, repr=False)

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
        if table is not None:
            return table
        cached = self._ext_products.get((I, J))
        if cached is None:
            cached = self.geometry.product(I, J)
            self._ext_products[(I, J)] = cached
        return cached

    def eta(self, I: ModeLabel) -> tuple[ModeLabel, int]:
        hit = self.eta_table.get(I)
        return hit if hit is not None else self.geometry.eta(I)

    def eigen(self, I: ModeLabel) -> Eigen:
        hit = self.eigen_table.get(I)
        return hit if hit is not None else self.geometry.eigen(I)

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

    Each (I, J) entry is a pure function of the labels, so the map phase
    could be fanned out across workers; the single merge below is the only
    ordering-sensitive step and is deterministic.
    """
    modes = geometry.enumerate_modes(cutoff)
    products: dict[tuple[ModeLabel, ModeLabel], dict[ModeLabel, SurdScalar]] = {}
    for I in modes:
        for J in modes:
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
