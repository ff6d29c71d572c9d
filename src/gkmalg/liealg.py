"""Finite-dimensional compact base algebras.

Structure constants are hardcoded for su(2) (Levi-Civita) and su(3)
(standard totally antisymmetric constants of the Gell-Mann basis, physics
normalisation [T_a, T_b] = i f_ab^c T_c), plus abelian u(1)^n for torus
cross-checks.  Everything is validated at construction: antisymmetry and
the Jacobi identity exactly, and the stored metric is recomputed as the
trace form of the adjoint representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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


def _expand_antisymmetric(entries, dim) -> dict[tuple[int, int], dict[int, SurdScalar]]:
    f: dict[tuple[int, int], dict[int, SurdScalar]] = {}

    def put(a, b, c, value):
        if a == b or value.is_zero:
            return
        row = f.setdefault((a, b), {})
        acc = row.get(c, SURD_ZERO) + value
        if acc.is_zero:
            row.pop(c, None)
        else:
            row[c] = acc

    for a, b, c, v in entries:
        if max(a, b, c) > dim or min(a, b, c) < 1:
            raise ValueError(f"structure index out of range: {(a, b, c)}")
        # even permutations
        put(a, b, c, v)
        put(b, c, a, v)
        put(c, a, b, v)
        # odd permutations
        put(b, a, c, -v)
        put(a, c, b, -v)
        put(c, b, a, -v)
    return {key: row for key, row in f.items() if row}


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
        """[x, y] for coordinate vectors in the T_a basis (i f convention)."""
        out = [CSURD_ZERO] * self.dim
        for a, xa in enumerate(x, start=1):
            if xa.is_zero:
                continue
            for b, yb in enumerate(y, start=1):
                if yb.is_zero:
                    continue
                row = self.f.get((a, b))
                if not row:
                    continue
                coeff = (xa * yb).times_i()
                for c, fabc in row.items():
                    out[c - 1] = out[c - 1] + coeff * fabc
        return tuple(out)

    def killing_vectors(self, x: Vector, y: Vector) -> ComplexSurd:
        """Bilinear extension of g_ab to coordinate vectors."""
        total = CSURD_ZERO
        for a, xa in enumerate(x, start=1):
            if xa.is_zero:
                continue
            for b, yb in enumerate(y, start=1):
                if yb.is_zero:
                    continue
                gab = self.g[a - 1][b - 1]
                if not gab.is_zero:
                    total = total + xa * yb * gab
        return total


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
    slip through the vacuous low-rank triples.
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
            acc: dict[int, SurdScalar] = {}
            for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
                for d, v1 in f.get((x, y), {}).items():
                    for e, v2 in f.get((d, z), {}).items():
                        s = acc.get(e, SURD_ZERO) + v1 * v2
                        if s.is_zero:
                            acc.pop(e, None)
                        else:
                            acc[e] = s
            if acc:
                e, value = next(iter(acc.items()))
                raise CheckFailed({"indices": [a, b, c, e], "value": str(value)})
    return result


def make_algebra(name: str) -> FiniteAlgebra:
    """Construct su2, su3, or u1^n, verifying Jacobi and the metric."""
    if name == "su2":
        dim, entries = 3, _SU2_F
    elif name == "su3":
        dim, entries = 8, _SU3_F
    elif name.startswith("u1"):
        if name == "u1":
            dim = 1
        else:
            try:
                base, power = name.split("^")
                dim = int(power)
            except ValueError:
                raise ValueError(f"unknown algebra name {name!r}") from None
            if base != "u1" or dim < 1:
                raise ValueError(f"unknown algebra name {name!r}")
        return FiniteAlgebra(
            name=name,
            dim=dim,
            f={},
            g=tuple(tuple(SURD_ZERO for _ in range(dim)) for _ in range(dim)),
        )
    else:
        raise ValueError(f"unknown algebra name {name!r}")

    f = _expand_antisymmetric(entries, dim)
    check = jacobi_check_finite(f, dim, name)
    if not check.passed:
        raise ValueError(f"structure constants for {name} violate Jacobi: {check.witness}")
    return FiniteAlgebra(name=name, dim=dim, f=f, g=killing_form(f, dim))


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


def vec_scale(vec: Vector, coeff) -> Vector:
    return tuple(v * coeff for v in vec)


def vec_sub(x: Vector, y: Vector) -> Vector:
    return tuple(a - b for a, b in zip(x, y))


def vec_is_zero(vec: Vector) -> bool:
    return all(v.is_zero for v in vec)


def coefficients_in_span(vec: Vector, basis: Sequence[Vector]):
    """Coefficients of vec over basis, or None if it falls outside the span.

    Requires each basis vector to own a pivot coordinate where every other
    basis vector vanishes (true for the Cartan sets and single root vectors
    used here); exact division by the single-surd pivots does the rest.
    """
    pivots = []
    for i, b in enumerate(basis):
        pivot = None
        for idx, entry in enumerate(b):
            if entry.is_zero:
                continue
            if all(other[idx].is_zero for k, other in enumerate(basis) if k != i):
                pivot = idx
                break
        if pivot is None:
            raise ValueError("basis has no staircase pivot structure")
        pivots.append(pivot)
    residual = list(vec)
    coeffs = []
    for b, pivot in zip(basis, pivots):
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
    """Cartan-Weyl basis for the supported simple algebras, verified exactly."""
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

    root_vectors: dict[RootVec, Vector] = {}
    for root, (x, y) in pairs.items():
        root_vectors[root] = _pair_vector(dim, x, y, c, +1)
        negative = tuple(-comp for comp in root)
        root_vectors[negative] = _pair_vector(dim, x, y, c, -1)
    roots = tuple(sorted(root_vectors))
    data = CartanWeylData(cartan=cartan, roots=roots, root_vectors=root_vectors)
    _validate_cartan_weyl(alg, data)
    return data


def _validate_cartan_weyl(alg: FiniteAlgebra, data: CartanWeylData) -> None:
    if len(data.roots) + data.rank != alg.dim:
        raise AssertionError("root count inconsistent with dimension")
    for root in data.roots:
        evec = data.root_vectors[root]
        for i, h in enumerate(data.cartan):
            lhs = alg.bracket_vectors(h, evec)
            if not vec_is_zero(vec_sub(lhs, vec_scale(evec, root[i]))):
                raise AssertionError(f"[H^{i + 1}, E_{root}] != root eigenvalue")
        negative = tuple(-comp for comp in root)
        if negative not in data.root_vectors:
            raise AssertionError("root system is not symmetric")
        pairing = alg.killing_vectors(evec, data.root_vectors[negative])
        if pairing != ComplexSurd.rational(1):
            raise AssertionError(f"<E_a, E_-a> = {pairing}, expected 1")
        comm = alg.bracket_vectors(evec, data.root_vectors[negative])
        if coefficients_in_span(comm, list(data.cartan)) is None:
            raise AssertionError("[E_a, E_-a] escapes the Cartan subalgebra")
