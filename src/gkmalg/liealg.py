"""Finite-dimensional compact base algebras.

Structure constants are hardcoded for su(2) (Levi-Civita) and su(3)
(standard totally antisymmetric constants of the Gell-Mann basis, physics
normalisation [T_a, T_b] = i f_ab^c T_c), plus abelian u(1)^n for torus
cross-checks.  The metric is the trace form of the adjoint representation.
The tables are constants, so the tests prove them once (antisymmetry and
the Jacobi identity exactly, the metric's values, the Cartan-Weyl
relations) and construction checks nothing: each name's f and g are built
once, and :func:`make_algebra` hands out a fresh copy of f with the shared g.
:func:`cartan_weyl` refuses an algebra whose tables are not the ones its
name gives.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations
from typing import Mapping, Sequence

from .report import CheckFailed, CheckResult, checking
from .scalars import CSURD_ZERO, SURD_ZERO, ComplexSurd, SurdScalar

Vector = tuple[ComplexSurd, ...]
RootVec = tuple[Fraction, ...]

_HALF = Fraction(1, 2)
_SQRT3_HALF = SurdScalar.sqrt(3, _HALF)

# independent nonzero components f_abc (1-based, totally antisymmetric)
_SU2_F = [(1, 2, 3, SurdScalar.rational(1))]
_SU3_F = [
    (1, 2, 3, SurdScalar.rational(1)),
    (1, 4, 7, SurdScalar.rational(_HALF)),
    (1, 5, 6, SurdScalar.rational(-_HALF)),
    (2, 4, 6, SurdScalar.rational(_HALF)),
    (2, 5, 7, SurdScalar.rational(_HALF)),
    (3, 4, 5, SurdScalar.rational(_HALF)),
    (3, 6, 7, SurdScalar.rational(-_HALF)),
    (4, 5, 8, _SQRT3_HALF),
    (6, 7, 8, _SQRT3_HALF),
]


@dataclass(frozen=True)
class FiniteAlgebra:
    """Base Lie algebra: sparse f_ab^c, trace-form metric g_ab, and a name."""

    name: str
    dim: int
    f: Mapping[tuple[int, int], Mapping[int, SurdScalar]]
    g: tuple[tuple[SurdScalar, ...], ...]

    @property
    def is_abelian(self) -> bool:
        return not self.f

    def structure(self, a: int, b: int) -> Mapping[int, SurdScalar]:
        return self.f.get((a, b), {})

    def killing_entry(self, a: int, b: int) -> SurdScalar:
        return self.g[a - 1][b - 1]

    def bracket_vectors(self, x: Vector, y: Vector) -> Vector:
        """[x, y] = sum_ab x_a y_b i f_ab^c T_c for coordinate vectors in the T_a basis."""
        terms = [
            (c, (xa * yb).times_i() * fabc)
            for a, xa in enumerate(x, start=1) if xa
            for b, yb in enumerate(y, start=1) if yb
            for c, fabc in self.structure(a, b).items()
        ]
        return tuple(sum((v for c, v in terms if c == k), CSURD_ZERO) for k in range(1, self.dim + 1))

    def killing_vectors(self, x: Vector, y: Vector) -> ComplexSurd:
        """Bilinear extension of g_ab to coordinate vectors."""
        return sum(
            (xa * yb * gab for xa, row in zip(x, self.g) if xa for yb, gab in zip(y, row) if yb and gab),
            CSURD_ZERO,
        )


def killing_form(f, dim: int) -> tuple[tuple[SurdScalar, ...], ...]:
    """g_ab = Tr(ad a . ad b) with (ad a)_{cb} = i f_ab^c; real symmetric."""
    g = [[SURD_ZERO] * dim for _ in range(dim)]
    for (a, d), row in f.items():
        for c, v1 in row.items():
            for b in range(1, dim + 1):
                v2 = f.get((b, c), {}).get(d)
                if v2 is not None:
                    # two i factors from the bracket convention
                    g[a - 1][b - 1] = g[a - 1][b - 1] - v1 * v2
    return tuple(tuple(rowvals) for rowvals in g)


def jacobi_check_finite(f, dim: int, name: str = "") -> CheckResult:
    """Antisymmetry plus the exact cyclic Jacobi sum; witness on failure.

    Antisymmetry goes first: with it, the cyclic identity over distinct
    unordered triples spans the full Jacobi identity (repeated arguments
    cancel pairwise), and without it a single flipped entry would otherwise
    slip through the vacuous low-rank triples.  A failing triple's witness is
    the first output index, in the order the cyclic terms reach it, whose sum
    is nonzero.
    """
    label = f"jacobi_finite[{name}]" if name else "jacobi_finite"
    with checking(label) as result:
        for a in range(1, dim + 1):
            for b in range(a, dim + 1):
                forward = f.get((a, b), {})
                backward = f.get((b, a), {})
                for c in set(forward) | set(backward):
                    total = forward.get(c, SURD_ZERO) + backward.get(c, SURD_ZERO)
                    if not total.is_zero:
                        raise CheckFailed(
                            {"indices": [a, b, c], "kind": "antisymmetry", "value": str(total)}
                        )
        for a, b, c in result.tally("triples", combinations(range(1, dim + 1), 3)):
            terms = [
                (e, v1 * v2)
                for x, y, z in ((a, b, c), (b, c, a), (c, a, b))
                for d, v1 in f.get((x, y), {}).items()
                for e, v2 in f.get((d, z), {}).items()
            ]
            for e in dict.fromkeys([e for e, _ in terms]):
                value = sum([v for k, v in terms if k == e], SURD_ZERO)
                if value:
                    raise CheckFailed({"indices": [a, b, c, e], "value": str(value)})
    return result


@cache
def _standard_tables(name: str) -> tuple:
    """``(dim, f, g)`` of su2 or su3, built once and never handed out.

    Each independent f_abc is set at its even permutations, then at its odd
    ones negated: that order fixes f's key and row order, and so bracket rows'.
    """
    dim, entries = (3, _SU2_F) if name == "su2" else (8, _SU3_F)
    f: dict[tuple[int, int], dict[int, SurdScalar]] = {}
    for a, b, c, v in entries:
        for x, y, z, s in ((a, b, c, v), (b, c, a, v), (c, a, b, v)):
            f.setdefault((x, y), {})[z] = s
        for x, y, z in ((b, a, c), (a, c, b), (c, b, a)):
            f.setdefault((x, y), {})[z] = -v
    return dim, f, killing_form(f, dim)


def make_algebra(name: str) -> FiniteAlgebra:
    """Construct su2, su3, or u1^n from the hard-coded tables, with g their trace form.

    Nothing is checked: the tests prove both tables once.  The su2 and su3
    tables are built once per name; each call returns a fresh copy of f,
    while g, a tuple of immutable scalars, is shared.
    """
    if name in ("su2", "su3"):
        dim, f, g = _standard_tables(name)
        return FiniteAlgebra(name=name, dim=dim, f={key: dict(row) for key, row in f.items()}, g=g)
    base, caret, power = name.partition("^")
    try:
        dim = int(power) if caret else 1
    except ValueError:
        dim = 0
    if base != "u1" or dim < 1:
        raise ValueError(f"unknown algebra name {name!r}")
    return FiniteAlgebra(
        name=name,
        dim=dim,
        f={},
        g=((SURD_ZERO,) * dim,) * dim,  # one shared zero row: O(dim), not O(dim^2)
    )


# -- Cartan-Weyl data ----------------------------------------------------------


@dataclass(frozen=True)
class CartanWeylData:
    """Cartan elements, root system, and normalised root vectors.

    Roots live in Q^rank: the second su(3) Cartan element is rescaled to
    (2/sqrt 3) T_8 precisely so every eigenvalue is rational.  Root vectors
    are normalised by <E_alpha, E_-alpha> = 1 in the trace form.
    """

    cartan: tuple[Vector, ...]
    roots: tuple[RootVec, ...]
    root_vectors: Mapping[RootVec, Vector]

    @property
    def rank(self) -> int:
        return len(self.cartan)


def _basis_vector(dim: int, a: int, coeff: ComplexSurd) -> Vector:
    vec = [CSURD_ZERO] * dim
    vec[a - 1] = coeff
    return tuple(vec)


def _pair_vector(dim: int, x: int, y: int, c: SurdScalar, sign: int) -> Vector:
    # c (T_x + i sign T_y)
    vec = [CSURD_ZERO] * dim
    vec[x - 1] = ComplexSurd.real(c)
    vec[y - 1] = ComplexSurd.imaginary(c if sign > 0 else -c)
    return tuple(vec)


def coefficients_in_span(vec: Vector, basis: Sequence[Vector]):
    """Coefficients of vec over basis, or None if it falls outside the span.

    Requires each basis vector to own a pivot coordinate where every other
    basis vector vanishes (true for the Cartan sets and single root vectors
    used here), else raises ValueError; exact division by the single-surd
    pivots does the rest.
    """
    residual = list(vec)
    coeffs = []
    for i, b in enumerate(basis):
        others = [other for k, other in enumerate(basis) if k != i]
        for pivot, entry in enumerate(b):
            if not entry.is_zero and all(other[pivot].is_zero for other in others):
                break
        else:
            raise ValueError("basis has no staircase pivot structure")
        lam = residual[pivot] / b[pivot]
        coeffs.append(lam)
        if not lam.is_zero:
            for idx, entry in enumerate(b):
                residual[idx] = residual[idx] - lam * entry
    if all(entry.is_zero for entry in residual):
        return coeffs
    return None


def _root(*vals) -> RootVec:
    return tuple(Fraction(v) for v in vals)


def cartan_weyl(alg: FiniteAlgebra) -> CartanWeylData:
    """Cartan-Weyl basis of su2 or su3, whose relations the tests prove.

    It fits only the tables :func:`make_algebra` gives for ``alg.name``;
    other f or g raise ValueError.
    """
    if alg.is_abelian:
        raise ValueError("Cartan-Weyl data requires a semisimple base algebra")
    dim = alg.dim
    if alg.name == "su2":
        cartan = (_basis_vector(dim, 3, ComplexSurd.rational(1)),)
        # <E, Ebar> = c^2 (g11 + g22) = 4 c^2 = 1
        c = SurdScalar.rational(_HALF)
        pairs = {_root(1): (1, 2)}
    elif alg.name == "su3":
        two_over_sqrt3 = SurdScalar.sqrt(3, Fraction(2, 3))
        cartan = (
            _basis_vector(dim, 3, ComplexSurd.rational(1)),
            _basis_vector(dim, 8, ComplexSurd.real(two_over_sqrt3)),
        )
        # <E, Ebar> = c^2 (g44 + g55) = 6 c^2 = 1
        c = SurdScalar.sqrt(6, Fraction(1, 6))
        pairs = {
            _root(1, 0): (1, 2),
            _root(_HALF, 1): (4, 5),
            _root(-_HALF, 1): (6, 7),
        }
    else:
        raise ValueError(f"no Cartan-Weyl data for algebra {alg.name!r}")
    if (alg.dim, alg.f, alg.g) != _standard_tables(alg.name):
        raise ValueError(f"the f or g of {alg.name!r} differ from its standard tables")

    root_vectors: dict[RootVec, Vector] = {}
    for root, (x, y) in pairs.items():
        root_vectors[root] = _pair_vector(dim, x, y, c, +1)
        negative = tuple(-comp for comp in root)
        root_vectors[negative] = _pair_vector(dim, x, y, c, -1)
    roots = tuple(sorted(root_vectors))
    return CartanWeylData(cartan=cartan, roots=roots, root_vectors=root_vectors)
