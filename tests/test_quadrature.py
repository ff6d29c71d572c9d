import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import reduce
from math import comb
from pathlib import Path

import numpy as np
import pytest

from gkmalg.modes import (
    Sphere2Geometry,
    Sphere3Geometry,
    TorusGeometry,
    make_mode_system,
    parse_manifold,
)
from gkmalg.quadrature import (
    _gauss_legendre,
    _jacobi,
    _operator_factors,
    apply_invariant_operator,
    make_grid,
    mode_factors,
    mode_values,
    numeric_cocycle_pairing,
    numeric_conjugation_pairing,
    numeric_eigencheck,
    numeric_orthonormality,
    numeric_product_coefficient,
)
from gkmalg.verify import _oracle_band, oracle_agreement_check

GEOMETRIES = [
    ("t1", TorusGeometry(1), 4),
    ("t2", TorusGeometry(2), 3),
    ("s2", Sphere2Geometry(), 4),
    ("s3", Sphere3Geometry(), 4),
]


def test_grid_shapes_and_mass():
    grid = make_grid(TorusGeometry(1), 4)
    assert grid.shape == (9,)
    assert grid.weights.sum() == pytest.approx(1.0, abs=1e-14)
    assert grid.nodes.shape == (9, 1)
    for _, geo, band in GEOMETRIES:
        g = make_grid(geo, band)
        assert g.weights.sum() == pytest.approx(1.0, abs=1e-13)
        assert abs(g.integrate(np.ones(g.shape)) - 1.0) < 1e-13


@pytest.mark.parametrize("name,geo,band", GEOMETRIES)
def test_orthonormality(name, geo, band):
    modes = geo.enumerate_modes(2)
    grid = make_grid(geo, band)
    for I, J in itertools.product(modes, repeat=2):
        val = numeric_orthonormality(grid, I, J)
        expected = 1.0 if I == J else 0.0
        assert abs(val - expected) < 1e-12, (name, I, J, val)


@pytest.mark.parametrize("name,geo,band", GEOMETRIES)
def test_products_match_exact_tables(name, geo, band):
    ms = make_mode_system(geo, 2)
    grid = make_grid(geo, 2 * band)
    for (I, J), table in ms.products.items():
        union = set(table)
        for K in union:
            numeric = numeric_product_coefficient(grid, I, J, K)
            assert abs(numeric - float(table[K])) < 1e-10, (name, I, J, K)
    # a parity-violating / vanishing coefficient really integrates to zero
    if name == "s2":
        assert abs(numeric_product_coefficient(grid, (1, 0), (1, 0), (3, 0))) < 1e-13


@pytest.mark.parametrize("name,geo,band", GEOMETRIES)
def test_eta_reconstruction(name, geo, band):
    grid = make_grid(geo, band)
    for I in geo.enumerate_modes(2):
        J, phase = geo.eta(I)
        assert abs(numeric_conjugation_pairing(grid, I, J) - phase) < 1e-10
        # against a non-partner the pair integral vanishes
        for K in geo.enumerate_modes(1):
            if K != J:
                assert abs(numeric_conjugation_pairing(grid, I, K)) < 1e-10


def test_eigencheck_values():
    grid = make_grid(TorusGeometry(1), 4)
    assert numeric_eigencheck(grid, 1, (3,)) == pytest.approx(3.0, abs=1e-10)
    grid2 = make_grid(TorusGeometry(2), 3)
    assert numeric_eigencheck(grid2, 1, (3, -1)) == pytest.approx(3.0, abs=1e-10)
    assert numeric_eigencheck(grid2, 2, (3, -1)) == pytest.approx(-1.0, abs=1e-10)
    gs2 = make_grid(Sphere2Geometry(), 4)
    assert numeric_eigencheck(gs2, 1, (2, -1)) == pytest.approx(-1.0, abs=1e-10)
    gs3 = make_grid(Sphere3Geometry(), 4)
    assert numeric_eigencheck(gs3, 1, (2, 2, 0)) == pytest.approx(1.0, abs=1e-10)
    assert numeric_eigencheck(gs3, 2, (2, 2, 0)) == pytest.approx(0.0, abs=1e-10)
    assert numeric_eigencheck(gs3, 1, (1, 1, -1)) == pytest.approx(0.5, abs=1e-10)
    assert numeric_eigencheck(gs3, 2, (1, 1, -1)) == pytest.approx(-0.5, abs=1e-10)


@pytest.mark.parametrize("name,geo,band", GEOMETRIES)
def test_cocycle_integrals_match_exact(name, geo, band):
    ms = make_mode_system(geo, 2)
    grid = make_grid(geo, band)
    for I in ms.modes:
        J, _ = ms.eta(I)
        for j in range(1, geo.r + 1):
            exact = float(ms.cocycle_pairing(j, I, J))
            numeric = numeric_cocycle_pairing(grid, j, I, J)
            assert abs(numeric - exact) < 1e-10, (name, I, j)


def test_resolution_doubling_invariance():
    for _, geo, band in GEOMETRIES:
        coarse = make_grid(geo, band)
        fine = make_grid(geo, 2 * band)
        modes = geo.enumerate_modes(1)
        for I, J in itertools.product(modes, repeat=2):
            a = numeric_orthonormality(coarse, I, J)
            b = numeric_orthonormality(fine, I, J)
            assert abs(a - b) < 1e-12


def test_band_limit_enforced():
    grid = make_grid(Sphere2Geometry(), 2)
    with pytest.raises(ValueError):
        numeric_product_coefficient(grid, (2, 0), (2, 0), (2, 0))  # degree 6 > 4
    with pytest.raises(ValueError):
        numeric_orthonormality(grid, (3, 0), (3, 0))
    with pytest.raises(ValueError):
        make_grid(Sphere2Geometry(), 0)


def test_half_integer_modes_on_su2_grid():
    geo = Sphere3Geometry()
    grid = make_grid(geo, 3)
    # mixed integer/half-integer pairs integrate to zero
    assert abs(numeric_orthonormality(grid, (1, 1, 1), (2, 2, 0))) < 1e-13
    vals = mode_values(grid, (1, 1, -1))
    assert vals.shape == grid.shape
    assert abs(grid.integrate(vals * np.conj(vals)) - 1.0) < 1e-12


def test_mode_factors_are_memoised_read_only_axis_samples():
    for _, geo, band in GEOMETRIES:
        grid = make_grid(geo, band)
        assert grid.weights.shape == grid.shape == tuple(len(a) for a in grid.axes)
        for I in geo.enumerate_modes(2):
            factors = mode_factors(grid, I)
            assert mode_factors(grid, I) is factors  # memoised on the grid
            assert [len(f) for f in factors] == list(grid.shape)
            assert all(type(f) is tuple for f in factors)  # shared factors are read-only
            vals = mode_values(grid, I)
            assert vals.flags.writeable and vals.dtype == complex
            assert abs(grid.integrate(vals * np.conj(vals)) - 1.0) < 1e-12


# -- the pure-Python factors against numpy -------------------------------------


def _outer(factors):
    return reduce(np.multiply.outer, [np.asarray(f) for f in factors])


def test_gauss_legendre_rule_matches_numpy():
    for n in range(1, 61):
        nodes, weights = _gauss_legendre(n)
        ref_nodes, ref_weights = np.polynomial.legendre.leggauss(n)
        assert np.max(np.abs(np.asarray(nodes) - ref_nodes)) <= 1e-14, n
        assert np.max(np.abs(np.asarray(weights) - ref_weights / 2)) <= 1e-14, n


@pytest.mark.parametrize(
    "geo,band", [(TorusGeometry(2), 3), (Sphere2Geometry(), 4), (Sphere3Geometry(), 3)]
)
def test_dft_derivative_factors_match_the_numpy_fft(geo, band):
    grid = make_grid(geo, band)  # every mode the grid resolves
    for I in geo.enumerate_modes(band):
        for j in range(1, geo.r + 1):
            reference = apply_invariant_operator(grid, j, mode_values(grid, I))
            separable = _outer(_operator_factors(grid, j, I))
            assert np.max(np.abs(separable - reference)) < 1e-13, (I, j)


def test_array_helpers_are_outer_products_of_the_factors():
    for _, geo, band in GEOMETRIES:
        grid = make_grid(geo, band)
        weights = grid.weights
        assert isinstance(weights, np.ndarray) and weights.shape == grid.shape
        assert np.array_equal(weights, _outer(grid.axis_weights))
        for I in geo.enumerate_modes(1):
            vals = mode_values(grid, I)
            assert isinstance(vals, np.ndarray) and vals.shape == grid.shape
            assert np.array_equal(vals, _outer(mode_factors(grid, I)))
            assert grid.integrate(vals) == complex(np.sum(_outer(grid.axis_weights) * vals))


# -- the polar factors ---------------------------------------------------------


def _exact_jacobi(n, a, b, x):
    """P_n^(a,b)(x) from its finite sum, exactly at a rational x = p/q.

    The sum of C(n+a, n-s) C(n+b, s) ((x-1)/2)^s ((x+1)/2)^(n-s), with the
    common denominator (2q)^n taken out so the terms are integers.
    """
    p, q = x.numerator, x.denominator
    total = sum(
        comb(n + a, n - s) * comb(n + b, s) * (p - q) ** s * (p + q) ** (n - s)
        for s in range(n + 1)
    )
    return Fraction(total, (2 * q) ** n)


def test_jacobi_recurrence_matches_the_exact_sum():
    points = [Fraction(k, 4) for k in range(-4, 5)] + [Fraction(1, 3), Fraction(-5, 7)]
    z = np.array([float(x) for x in points])
    for n, a, b in itertools.product(range(17), repeat=3):
        exact = np.array([float(_exact_jacobi(n, a, b, x)) for x in points])
        bound = comb(n + max(a, b), n)  # max |P_n^(a,b)| on [-1, 1]
        assert np.max(np.abs(_jacobi(n, a, b, z) - exact)) <= 1e-14 * bound, (n, a, b)


def _normalized_legendre(l, m, z):
    """Orthonormal associated Legendre part of Y_lm for m >= 0.

    Stable three-term recurrence on fully normalised functions, with the
    Condon-Shortley sign carried in the diagonal seed.
    """
    pmm = np.full_like(z, 1.0 / np.sqrt(4.0 * np.pi))
    if m > 0:
        sine = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
        for k in range(1, m + 1):
            pmm = -np.sqrt((2 * k + 1) / (2.0 * k)) * sine * pmm
    if l == m:
        return pmm
    pm1 = np.sqrt(2 * m + 3.0) * z * pmm
    if l == m + 1:
        return pm1
    for ll in range(m + 2, l + 1):
        a = np.sqrt((4.0 * ll * ll - 1.0) / (ll * ll - m * m))
        b = np.sqrt(((ll - 1.0) ** 2 - m * m) / (4.0 * (ll - 1.0) ** 2 - 1.0))
        pmm, pm1 = pm1, a * (z * pm1 - b * pmm)
    return pm1


def test_sphere_small_d_factor_matches_the_legendre_recurrence():
    grid = make_grid(Sphere2Geometry(), 30)  # 31 Gauss-Legendre nodes
    z = np.asarray(grid.axes[0])
    for l in range(31):
        for m in range(-l, l + 1):
            sign = (-1.0) ** (abs(m) % 2) if m < 0 else 1.0
            legendre = np.sqrt(4.0 * np.pi) * sign * _normalized_legendre(l, abs(m), z)
            assert np.max(np.abs(mode_factors(grid, (l, m))[0] - legendre)) < 1e-13, (l, m)


_WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
from gkmalg.algebra import build_algebra
from gkmalg.verify import oracle_agreement_check
for manifold, charges in (("s2", [1]), ("s3", [1, 1])):
    result = oracle_agreement_check(build_algebra("su2", manifold, 2, charges), samples=10**6)
    assert result.passed and result.regime == "exhaustive", (manifold, result)
"""


def test_oracle_runs_without_scipy():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_SCIPY], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


# -- the full-tensor reference the separable integrals replace -----------------
# Each quantity summed over every node of the full grid rather than as a
# product of per-axis sums.


def _full_product(grid, I, J, K):
    return grid.integrate(mode_values(grid, I) * mode_values(grid, J) * np.conj(mode_values(grid, K)))


def _full_eta(grid, I, J):
    return grid.integrate(mode_values(grid, I) * mode_values(grid, J))


def _full_eigen(grid, j, I):
    vals = mode_values(grid, I)
    dvals = apply_invariant_operator(grid, j, vals)
    num = grid.integrate(np.conj(vals) * dvals)
    den = grid.integrate(np.conj(vals) * vals)
    return float((num / den).real)


def _full_cocycle(grid, j, I, J):
    dvals = apply_invariant_operator(grid, j, mode_values(grid, I))
    return grid.integrate(dvals * mode_values(grid, J))


KINDS = {
    "product": (numeric_product_coefficient, _full_product),
    "eta": (numeric_conjugation_pairing, _full_eta),
    "eigen": (numeric_eigencheck, _full_eigen),
    "cocycle": (numeric_cocycle_pairing, _full_cocycle),
}


def _oracle_quantities(ms):
    """Every quantity the oracle check recomputes, as (kind, labels)."""
    quantities = [("product", (I, J, K)) for (I, J), table in ms.products.items() for K in table]
    for I in ms.modes:
        J, _ = ms.eta(I)
        quantities.append(("eta", (I, J)))
        for j in range(1, ms.r + 1):
            quantities += [("eigen", (j, I)), ("cocycle", (j, I, J))]
    return quantities


def _assert_separable_matches_full(manifold, cutoff, draw=None):
    ms = make_mode_system(parse_manifold(manifold), cutoff)
    grid = make_grid(ms.geometry, _oracle_band(ms))
    quantities = _oracle_quantities(ms)
    if draw is not None:  # a seeded draw of up to draw/4 quantities of each kind
        rng = random.Random(0)
        by_kind = [[q for q in quantities if q[0] == kind] for kind in KINDS]
        quantities = [q for qs in by_kind for q in rng.sample(qs, min(draw // 4, len(qs)))]
    assert {kind for kind, _ in quantities} == set(KINDS)
    for kind, args in quantities:
        separable, full = KINDS[kind]
        assert abs(separable(grid, *args) - full(grid, *args)) < 1e-13, (kind, args)


@pytest.mark.parametrize("manifold,cutoff", [("t1", 2), ("t2", 2), ("s2", 4), ("s3", 2)])
def test_separable_integrals_match_full_tensor_exhaustively(manifold, cutoff):
    _assert_separable_matches_full(manifold, cutoff)


@pytest.mark.parametrize("manifold,cutoff", [("s3", 4), ("s2", 7)])
def test_separable_integrals_match_full_tensor_on_a_draw(manifold, cutoff):
    _assert_separable_matches_full(manifold, cutoff, draw=300)


def _bump_first_product(ms):
    (I, J), table = next((key, t) for key, t in ms.products.items() if t)
    K = next(iter(table))
    table[K] = table[K] + 1


def _flip_eta_phase(ms):
    I = next(I for I in ms.modes if ms.eta(I)[0] != I)
    J, phase = ms.eta(I)
    ms.eta_table[I] = (J, -phase)


def _shift_eigenvalue(ms):
    I = ms.modes[-1]
    first, *rest = ms.eigen(I)
    ms.eigen_table[I] = (first + 1, *rest)


@pytest.mark.parametrize("manifold,cutoff", [("t2", 1), ("s2", 2), ("s3", 2)])
@pytest.mark.parametrize(
    "tamper,quantity",
    [(_bump_first_product, "product"), (_flip_eta_phase, "eta"), (_shift_eigenvalue, "eigen")],
)
def test_exhaustive_oracle_catches_each_tampered_kind(manifold, cutoff, tamper, quantity):
    ms = make_mode_system(parse_manifold(manifold), cutoff)
    assert oracle_agreement_check(ms, samples=10**6).passed
    tamper(ms)
    result = oracle_agreement_check(ms, samples=10**6)
    assert result.regime == "exhaustive" and not result.passed
    assert result.witness["quantity"] == quantity
