"""Independent numerical oracle: spectral quadrature on T^n, S^2, and SU(2).

One Wigner small-d factor, from its own Jacobi recurrence, is the polar
factor on both spheres: d^j_{m m'} on SU(2), sqrt(2l+1) d^l_{m0} on S^2.  It
shares nothing with the exact coupling-coefficient path, so a disagreement
flags a real defect rather than noise.

Grids are exact, not approximate, for band-limited integrands: uniform
rules on the periodic angles and Gauss-Legendre in the polar variable.  A
grid of band B integrates any product of up to three basis functions whose
degrees sum to at most 2B (degree = max|m| on the torus, l on the 2-sphere,
2j on SU(2)).  SU(2) is charted on (alpha, gamma) in [0, 4 pi)^2 - a 2:1
cover of the group - which makes every half-integer frequency periodic;
integrands are genuine group functions, so the doubled cover and the
normalised weights leave integrals unchanged.

Integrals are separable: basis functions and weights are products of 1-D
factors, one per tensor axis, so an integral is a product of 1-D sums.  The
factors (``mode_factors``) are the one per-geometry evaluation; ``mode_values``
is their outer product, and ``D_j`` acts on the factor on its angle alone.

All measures are normalised to total mass 1.

numpy is imported on first use: ``np`` starts as a stand-in that imports it
and rebinds itself, so the package and its exact checks run without numpy
until the oracle makes its first grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from math import factorial

from .modes import Geometry, ModeLabel, Sphere2Geometry, Sphere3Geometry, TorusGeometry


class _LazyNumpy:
    """Stands in for numpy until first use, then rebinds ``np`` to numpy itself."""

    def __getattr__(self, name: str):
        global np
        import numpy as np

        return getattr(np, name)


np = _LazyNumpy()


@dataclass
class QuadratureGrid:
    """Tensor quadrature nodes with per-axis weights, each summing to one."""

    geometry: Geometry
    band: int
    axes: tuple[np.ndarray, ...]  # coordinate values per tensor axis
    periods: tuple[float | None, ...]  # period per axis, None for Gauss axes
    axis_weights: tuple[np.ndarray, ...]  # weights per tensor axis
    _factors: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def weights(self) -> np.ndarray:
        """Full weight tensor: the outer product of the axis weights."""
        return reduce(np.multiply.outer, self.axis_weights)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(w) for w in self.axis_weights)

    @property
    def nodes(self) -> np.ndarray:
        """Flattened (N, ndim) coordinate tuples, matching weights.ravel()."""
        mesh = np.meshgrid(*self.axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def integrate(self, values: np.ndarray) -> complex:
        return complex(np.sum(self.weights * values))


def make_grid(geometry: Geometry, band: int) -> QuadratureGrid:
    """Spectral grid for the manifold, exact through combined degree 2*band."""
    if band < 1:
        raise ValueError("band limit must be >= 1")
    if isinstance(geometry, TorusGeometry):
        n_pts = 2 * band + 1
        phi = 2 * np.pi * np.arange(n_pts) / n_pts
        uniform = np.full(n_pts, 1.0 / n_pts)
        n = geometry.n
        return QuadratureGrid(geometry, band, (phi,) * n, (2 * np.pi,) * n, (uniform,) * n)
    if isinstance(geometry, Sphere2Geometry):
        n_phi = 2 * band + 1
        z, wz = np.polynomial.legendre.leggauss(band + 1)
        phi = 2 * np.pi * np.arange(n_phi) / n_phi
        weights = (wz / 2.0, np.full(n_phi, 1.0 / n_phi))
        return QuadratureGrid(geometry, band, (z, phi), (None, 2 * np.pi), weights)
    if isinstance(geometry, Sphere3Geometry):
        n_ang = 4 * band + 4
        z, wz = np.polynomial.legendre.leggauss(band + 1)
        angle = 4 * np.pi * np.arange(n_ang) / n_ang  # alpha and gamma alike
        uniform = np.full(n_ang, 1.0 / n_ang)
        periods = (4 * np.pi, None, 4 * np.pi)
        weights = (uniform, wz / 2.0, uniform)
        return QuadratureGrid(geometry, band, (angle, z, angle), periods, weights)
    raise TypeError(f"unsupported geometry {geometry!r}")


# -- basis evaluation ----------------------------------------------------------


def _jacobi(n: int, a: int, b: int, z: np.ndarray) -> np.ndarray:
    """Jacobi polynomial P_n^(a,b)(z) by its three-term recurrence in n (Szego, ch. 4.5)."""
    prev, cur = np.ones_like(z), (a + 1) + (a + b + 2) * (z - 1) / 2
    if n == 0:
        return prev
    for k in range(2, n + 1):
        c = 2 * k + a + b
        prev, cur = cur, (
            (c - 1) * (c * (c - 2) * z + a * a - b * b) * cur
            - 2 * (k + a - 1) * (k + b - 1) * c * prev
        ) / (2 * k * (k + a + b) * (c - 2))
    return cur


def _wigner_little_d(tj: int, tm: int, tmp: int, z: np.ndarray) -> np.ndarray:
    """d^j_{m m'}(beta) on z = cos(beta) via the Jacobi-polynomial form."""
    mu = abs(tm - tmp) // 2
    nu = abs(tm + tmp) // 2
    s = (tj - max(abs(tm), abs(tmp))) // 2
    xi = 1.0 if tmp >= tm else (-1.0) ** (((tm - tmp) // 2) % 2)
    norm = np.sqrt(
        factorial(s) * factorial(s + mu + nu) / (factorial(s + mu) * factorial(s + nu))
    )
    half = np.clip((1.0 - z) / 2.0, 0.0, None)
    other = np.clip((1.0 + z) / 2.0, 0.0, None)
    return xi * norm * half ** (mu / 2.0) * other ** (nu / 2.0) * _jacobi(s, mu, nu, z)


def mode_factors(grid: QuadratureGrid, label: ModeLabel) -> tuple[np.ndarray, ...]:
    """The basis function's read-only 1-D factors per tensor axis, memoised on the grid."""
    if (factors := grid._factors.get(label)) is not None:
        return factors
    geo = grid.geometry
    geo.validate(label)
    if isinstance(geo, TorusGeometry):
        factors = tuple(np.exp(1j * m * phi) for m, phi in zip(label, grid.axes))
    elif isinstance(geo, Sphere2Geometry):
        l, m = label
        z, phi = grid.axes
        dpart = np.sqrt(2 * l + 1.0) * _wigner_little_d(2 * l, 2 * m, 0, z)
        factors = (dpart, np.exp(1j * m * phi))  # sqrt(4 pi) Y_lm
    else:  # SU(2), the last geometry make_grid accepts
        tj, tm, tmp = label
        alpha, z, gamma = grid.axes
        dpart = np.sqrt(tj + 1.0) * _wigner_little_d(tj, tm, tmp, z)
        factors = (np.exp(-0.5j * tm * alpha), dpart, np.exp(-0.5j * tmp * gamma))
    for f in factors:
        f.flags.writeable = False
    grid._factors[label] = factors
    return factors


def mode_values(grid: QuadratureGrid, label: ModeLabel) -> np.ndarray:
    """Basis function sampled on the grid (complex array of grid shape)."""
    return reduce(np.multiply.outer, mode_factors(grid, label), np.ones((), dtype=complex))


# -- band bookkeeping ----------------------------------------------------------


def _combined_degree(geometry: Geometry, labels) -> int:
    return sum(geometry.degree(label) for label in labels)


def _require_band(grid: QuadratureGrid, labels) -> None:
    need = _combined_degree(grid.geometry, labels)
    if need > 2 * grid.band:
        raise ValueError(
            f"band limit insufficient: combined degree {need} exceeds 2*band={2 * grid.band}"
        )


# -- oracle integrals ----------------------------------------------------------


def _separable_integral(grid: QuadratureGrid, *functions) -> complex:
    """Integral of a product of functions, each given by its factors: a product of 1-D sums."""
    total = 1.0
    for w, *factors in zip(grid.axis_weights, *functions):
        total *= np.dot(w, reduce(np.multiply, factors))
    return complex(total)


def _conj(factors: tuple[np.ndarray, ...]) -> tuple[np.ndarray, ...]:
    return tuple(np.conj(f) for f in factors)


def numeric_orthonormality(grid: QuadratureGrid, I: ModeLabel, J: ModeLabel) -> complex:
    """<rho_I, rho_J> under the Hermitean product; delta_IJ for a sane basis."""
    _require_band(grid, (I, J))
    return _separable_integral(grid, mode_factors(grid, I), _conj(mode_factors(grid, J)))


def numeric_product_coefficient(
    grid: QuadratureGrid, I: ModeLabel, J: ModeLabel, K: ModeLabel
) -> complex:
    """c_IJ^K recomputed as the integral of rho_I rho_J conj(rho_K)."""
    _require_band(grid, (I, J, K))
    return _separable_integral(
        grid, mode_factors(grid, I), mode_factors(grid, J), _conj(mode_factors(grid, K))
    )


def numeric_conjugation_pairing(grid: QuadratureGrid, I: ModeLabel, J: ModeLabel) -> complex:
    """eta_IJ recomputed as the unconjugated pair integral of rho_I rho_J."""
    _require_band(grid, (I, J))
    return _separable_integral(grid, mode_factors(grid, I), mode_factors(grid, J))


def _operator_axis(grid: QuadratureGrid, j: int) -> tuple[int, float]:
    """Tensor axis and spectral multiplier sign for the j-th invariant operator."""
    geo = grid.geometry
    if not 1 <= j <= geo.r:
        raise ValueError(f"operator index {j} out of range 1..{geo.r}")
    if isinstance(geo, TorusGeometry):
        return j - 1, 1.0  # D_j = -i d/dphi_j
    if isinstance(geo, Sphere2Geometry):
        return 1, 1.0  # D = -i d/dphi
    # SU(2): D_1 = +i d/dalpha, D_2 = +i d/dgamma, so the multiplier flips sign
    return (0, -1.0) if j == 1 else (2, -1.0)


def apply_invariant_operator(grid: QuadratureGrid, j: int, values: np.ndarray) -> np.ndarray:
    """Spectral differentiation of sampled values along the operator's angle."""
    axis, sign = _operator_axis(grid, j)
    period = grid.periods[axis]
    n = values.shape[axis]
    freqs = np.fft.fftfreq(n, d=1.0 / n)  # integer wavenumbers on the axis
    mult = sign * (2.0 * np.pi / period) * freqs
    shape = [1] * values.ndim
    shape[axis] = n
    spectrum = np.fft.fft(values, axis=axis)
    return np.fft.ifft(spectrum * mult.reshape(shape), axis=axis)


def _operator_factors(grid: QuadratureGrid, j: int, factors) -> tuple[np.ndarray, ...]:
    """Factors of D_j rho: the operator differentiates only the factor on its axis."""
    axis, _ = _operator_axis(grid, j)
    column = np.expand_dims(factors[axis], [k for k in range(len(factors)) if k != axis])
    return factors[:axis] + (apply_invariant_operator(grid, j, column).ravel(),) + factors[axis + 1 :]


def numeric_eigencheck(grid: QuadratureGrid, j: int, I: ModeLabel) -> float:
    """Rayleigh quotient <rho_I, D_j rho_I> / <rho_I, rho_I>."""
    _require_band(grid, (I, I))
    factors = mode_factors(grid, I)
    num = _separable_integral(grid, _conj(factors), _operator_factors(grid, j, factors))
    den = _separable_integral(grid, _conj(factors), factors)
    return float((num / den).real)


def numeric_cocycle_pairing(
    grid: QuadratureGrid, j: int, I: ModeLabel, J: ModeLabel
) -> complex:
    """Cocycle mode factor recomputed as the integral of (D_j rho_I) rho_J."""
    _require_band(grid, (I, J))
    dfactors = _operator_factors(grid, j, mode_factors(grid, I))
    return _separable_integral(grid, dfactors, mode_factors(grid, J))
