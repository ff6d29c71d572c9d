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
factors (``mode_factors``) are the one per-geometry evaluation, tuples of
Python floats and complexes: an angle factor ``e^{2 pi i f k/n}`` reads the
grid's twiddle table, so labels with the same frequency share one factor,
and ``D_j`` differentiates the factor on its angle alone, by an exact-length
DFT.  Each 1-D sum is memoised on the grid by its operands.

All measures are normalised to total mass 1.

The oracle runs on the standard library.  numpy is imported only by the
array helpers (``QuadratureGrid.weights``, ``.nodes``, ``.integrate``,
``mode_values`` and ``apply_invariant_operator``), which view the same
factors as full tensors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from math import factorial
from operator import mul

from .modes import Geometry, ModeLabel, Sphere2Geometry, Sphere3Geometry, TorusGeometry

Factor = tuple  # one basis function's samples along one tensor axis


@dataclass
class QuadratureGrid:
    """Tensor quadrature nodes with per-axis weights, each summing to one."""

    geometry: Geometry
    band: int
    axes: tuple[tuple[float, ...], ...]  # coordinate values per tensor axis
    periods: tuple[float | None, ...]  # period per axis, None for Gauss axes
    axis_weights: tuple[tuple[float, ...], ...]  # weights per tensor axis
    # factors, twiddles and 1-D sums; a sum is keyed by the ids of factors held here
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def weights(self) -> np.ndarray:
        """Full weight tensor: the outer product of the axis weights."""
        import numpy as np

        return reduce(np.multiply.outer, self.axis_weights, np.ones(()))

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(w) for w in self.axis_weights)

    @property
    def nodes(self) -> np.ndarray:
        """Flattened (N, ndim) coordinate tuples, matching weights.ravel()."""
        import numpy as np

        mesh = np.meshgrid(*self.axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def integrate(self, values: np.ndarray) -> complex:
        import numpy as np

        return complex(np.sum(self.weights * values))


def _gauss_legendre(n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Ascending nodes and unit-mass weights of the n-point Gauss-Legendre rule.

    Each positive root of P_n is found by Newton's method on the three-term
    recurrence, from the guess cos(pi (i + 3/4) / (n + 1/2)); the negative
    roots mirror them, and the weight is 1 / ((1 - x^2) P_n'(x)^2).
    """
    nodes, weights = [0.0] * n, [0.0] * n
    for i in range((n + 1) // 2):
        x = 0.0 if 2 * i + 1 == n else math.cos(math.pi * (i + 0.75) / (n + 0.5))
        for _ in range(100):
            p, dp = _legendre_and_derivative(n, x)
            step = p / dp
            x -= step
            if abs(step) <= 1e-15:
                break
        dp = _legendre_and_derivative(n, x)[1]
        nodes[i], nodes[n - 1 - i] = -x, x
        weights[i] = weights[n - 1 - i] = 1.0 / ((1.0 - x * x) * dp * dp)
    return tuple(nodes), tuple(weights)


def _legendre_and_derivative(n: int, x: float) -> tuple[float, float]:
    """P_n(x) and P_n'(x), from (k+1) P_{k+1} = (2k+1) x P_k - k P_{k-1}."""
    prev, cur = 1.0, x
    for k in range(1, n):
        prev, cur = cur, ((2 * k + 1) * x * cur - k * prev) / (k + 1)
    return cur, n * (x * cur - prev) / (x * x - 1.0)


def _twiddles(n: int) -> tuple[complex, ...]:
    """e^{2 pi i k/n} for k < n, mirrored so that entry n - k is the conjugate of entry k."""
    angles = (2 * math.pi * k / n for k in range(n // 2 + 1))
    half = [complex(math.cos(t), math.sin(t)) for t in angles]
    if n % 2 == 0:
        half[-1] = complex(-1.0, 0.0)
    return tuple(half + [z.conjugate() for z in reversed(half[1 : (n + 1) // 2])])


def make_grid(geometry: Geometry, band: int) -> QuadratureGrid:
    """Spectral grid for the manifold, exact through combined degree 2*band."""
    if band < 1:
        raise ValueError("band limit must be >= 1")
    if isinstance(geometry, TorusGeometry):
        n_pts = 2 * band + 1
        phi = tuple(2 * math.pi * k / n_pts for k in range(n_pts))
        uniform = (1.0 / n_pts,) * n_pts
        n = geometry.n
        return QuadratureGrid(geometry, band, (phi,) * n, (2 * math.pi,) * n, (uniform,) * n)
    if isinstance(geometry, Sphere2Geometry):
        n_phi = 2 * band + 1
        z, wz = _gauss_legendre(band + 1)
        phi = tuple(2 * math.pi * k / n_phi for k in range(n_phi))
        weights = (wz, (1.0 / n_phi,) * n_phi)
        return QuadratureGrid(geometry, band, (z, phi), (None, 2 * math.pi), weights)
    if isinstance(geometry, Sphere3Geometry):
        n_ang = 4 * band + 4
        z, wz = _gauss_legendre(band + 1)
        angle = tuple(4 * math.pi * k / n_ang for k in range(n_ang))  # alpha and gamma alike
        uniform = (1.0 / n_ang,) * n_ang
        periods = (4 * math.pi, None, 4 * math.pi)
        return QuadratureGrid(geometry, band, (angle, z, angle), periods, (uniform, wz, uniform))
    raise TypeError(f"unsupported geometry {geometry!r}")


# -- basis evaluation ----------------------------------------------------------


def _jacobi(n: int, a: int, b: int, z) -> tuple[float, ...]:
    """Jacobi polynomial P_n^(a,b) at each z by its three-term recurrence in n (Szego, ch. 4.5)."""
    if n == 0:
        return (1.0,) * len(z)
    steps = [  # the integer coefficients of each step k = 2..n
        (c - 1, c * (c - 2), 2 * (k + a - 1) * (k + b - 1) * c, 2 * k * (k + a + b) * (c - 2))
        for k, c in ((k, 2 * k + a + b) for k in range(2, n + 1))
    ]
    values = []
    for x in z:
        prev, cur = 1.0, (a + 1) + (a + b + 2) * (x - 1) / 2
        for c1, c2, p, q in steps:
            prev, cur = cur, (c1 * (c2 * x + a * a - b * b) * cur - p * prev) / q
        values.append(cur)
    return tuple(values)


def _wigner_little_d(tj: int, tm: int, tmp: int, z) -> tuple[float, ...]:
    """d^j_{m m'}(beta) at each z = cos(beta) in [-1, 1] via the Jacobi-polynomial form."""
    mu = abs(tm - tmp) // 2
    nu = abs(tm + tmp) // 2
    s = (tj - max(abs(tm), abs(tmp))) // 2
    xi = 1.0 if tmp >= tm else (-1.0) ** (((tm - tmp) // 2) % 2)
    norm = math.sqrt(
        factorial(s) * factorial(s + mu + nu) / (factorial(s + mu) * factorial(s + nu))
    )
    half_mu, half_nu = mu / 2.0, nu / 2.0  # (1 -+ z) / 2 >= 0 for every float |z| <= 1
    return tuple(
        xi * norm * ((1.0 - x) / 2.0) ** half_mu * ((1.0 + x) / 2.0) ** half_nu * p
        for x, p in zip(z, _jacobi(s, mu, nu, z))
    )


def _frequencies(geometry: Geometry, label: ModeLabel) -> tuple[int | None, ...]:
    """Each axis's angle frequency, in cycles per period; None on the polar axis."""
    if isinstance(geometry, TorusGeometry):
        return label  # e^{i m_k phi_k}
    if isinstance(geometry, Sphere2Geometry):
        return (None, label[1])  # e^{i m phi}
    return (-label[1], None, -label[2])  # e^{-i m alpha} e^{-i m' gamma}, periods 4 pi


def _polar_factor(geometry: Geometry, label: ModeLabel, z) -> Factor:
    """sqrt(2l+1) d^l_{m0} on S^2 (so that rho = sqrt(4 pi) Y_lm), sqrt(2j+1) d^j_{mm'} on SU(2)."""
    if isinstance(geometry, Sphere2Geometry):
        tj, tm, tmp = 2 * label[0], 2 * label[1], 0
    else:
        tj, tm, tmp = label
    scale = math.sqrt(tj + 1.0)
    return tuple(scale * v for v in _wigner_little_d(tj, tm, tmp, z))


def _angle_factor(grid: QuadratureGrid, n: int, f: int) -> Factor:
    """e^{2 pi i f k/n} on the k-th of n uniform nodes, read off the grid's twiddles.

    One tuple per frequency modulo n, shared by every label and axis that has it.
    """
    key = ("angle", n, f % n)
    if (factor := grid._memo.get(key)) is None:
        if (twiddles := grid._memo.get(("twiddles", n))) is None:
            twiddles = grid._memo["twiddles", n] = _twiddles(n)
        factor = grid._memo[key] = tuple(twiddles[f * k % n] for k in range(n))
    return factor


def mode_factors(grid: QuadratureGrid, label: ModeLabel) -> tuple[Factor, ...]:
    """The basis function's 1-D factors per tensor axis, memoised on the grid."""
    key = ("factors", label)
    if (factors := grid._memo.get(key)) is not None:
        return factors
    geo = grid.geometry
    geo.validate(label)
    factors = grid._memo[key] = tuple(
        _polar_factor(geo, label, axis) if f is None else _angle_factor(grid, len(axis), f)
        for f, axis in zip(_frequencies(geo, label), grid.axes)
    )
    return factors


def _conj_factors(grid: QuadratureGrid, label: ModeLabel) -> tuple[Factor, ...]:
    """Factors of conj(rho): angle frequencies negated, the real polar factor kept."""
    key = ("conj", label)
    if (factors := grid._memo.get(key)) is None:
        factors = grid._memo[key] = tuple(
            factor if f is None else _angle_factor(grid, len(factor), -f)
            for f, factor in zip(_frequencies(grid.geometry, label), mode_factors(grid, label))
        )
    return factors


def mode_values(grid: QuadratureGrid, label: ModeLabel) -> np.ndarray:
    """Basis function sampled on the grid (complex array of grid shape)."""
    import numpy as np

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


def _axis_sum(weights: Factor, a: Factor, b: Factor, *rest: Factor):
    """Weighted sum over one axis of a product of two or three factors."""
    if rest:
        terms = [w * (x * y * z) for w, x, y, z in zip(weights, a, b, rest[0])]
    else:
        terms = [w * (x * y) for w, x, y in zip(weights, a, b)]
    # the polar axis is real, and its sum is rounded once (math.fsum)
    return math.fsum(terms) if type(terms[0]) is float else sum(terms)


def _separable_integral(grid: QuadratureGrid, *functions) -> complex:
    """Integral of a product of functions, each given by its factors: a product of 1-D sums.

    Each 1-D sum is memoised by the ids of its operands, which the grid holds.
    """
    memo = grid._memo
    total = 1.0
    for weights, a, b, *rest in zip(grid.axis_weights, *functions):
        if id(a) > id(b):  # x * y == y * x exactly, so swapped operands share one sum
            a, b = b, a
        key = (id(weights), id(a), id(b), *map(id, rest))
        if (value := memo.get(key)) is None:
            value = memo[key] = _axis_sum(weights, a, b, *rest)
        total *= value
    return complex(total)


def numeric_orthonormality(grid: QuadratureGrid, I: ModeLabel, J: ModeLabel) -> complex:
    """<rho_I, rho_J> under the Hermitean product; delta_IJ for a sane basis."""
    _require_band(grid, (I, J))
    return _separable_integral(grid, mode_factors(grid, I), _conj_factors(grid, J))


def numeric_product_coefficient(
    grid: QuadratureGrid, I: ModeLabel, J: ModeLabel, K: ModeLabel
) -> complex:
    """c_IJ^K recomputed as the integral of rho_I rho_J conj(rho_K)."""
    _require_band(grid, (I, J, K))
    return _separable_integral(
        grid, mode_factors(grid, I), mode_factors(grid, J), _conj_factors(grid, K)
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
    import numpy as np

    axis, sign = _operator_axis(grid, j)
    period = grid.periods[axis]
    n = values.shape[axis]
    freqs = np.fft.fftfreq(n, d=1.0 / n)  # integer wavenumbers on the axis
    mult = sign * (2.0 * np.pi / period) * freqs
    shape = [1] * values.ndim
    shape[axis] = n
    spectrum = np.fft.fft(values, axis=axis)
    return np.fft.ifft(spectrum * mult.reshape(shape), axis=axis)


def _dft_derivative(grid: QuadratureGrid, j: int, factor: Factor) -> Factor:
    """D_j on one angle factor: its DFT, each bin times its multiplier, the inverse DFT.

    Row p of the n-point DFT matrix is the angle factor of frequency -p, and
    row k of its inverse the one of frequency k.
    """
    axis, sign = _operator_axis(grid, j)
    n = len(factor)
    scale = sign * (2.0 * math.pi / grid.periods[axis]) / n
    wavenumbers = [p if 2 * p < n else p - n for p in range(n)]  # numpy.fft.fftfreq(n, 1/n)
    spectrum = [
        sum(map(mul, factor, _angle_factor(grid, n, -p))) * (scale * wavenumbers[p])
        for p in range(n)
    ]
    return tuple(sum(map(mul, spectrum, _angle_factor(grid, n, k))) for k in range(n))


def _operator_factors(grid: QuadratureGrid, j: int, label: ModeLabel) -> tuple[Factor, ...]:
    """Factors of D_j rho: the operator differentiates only the factor on its axis."""
    axis, _ = _operator_axis(grid, j)
    factors = mode_factors(grid, label)
    key = ("D", j, id(factors[axis]))
    if (derivative := grid._memo.get(key)) is None:
        derivative = grid._memo[key] = _dft_derivative(grid, j, factors[axis])
    return factors[:axis] + (derivative,) + factors[axis + 1 :]


def numeric_eigencheck(grid: QuadratureGrid, j: int, I: ModeLabel) -> float:
    """Rayleigh quotient <rho_I, D_j rho_I> / <rho_I, rho_I>."""
    _require_band(grid, (I, I))
    conj = _conj_factors(grid, I)
    num = _separable_integral(grid, conj, _operator_factors(grid, j, I))
    den = _separable_integral(grid, conj, mode_factors(grid, I))
    return float((num / den).real)


def numeric_cocycle_pairing(
    grid: QuadratureGrid, j: int, I: ModeLabel, J: ModeLabel
) -> complex:
    """Cocycle mode factor recomputed as the integral of (D_j rho_I) rho_J."""
    _require_band(grid, (I, J))
    return _separable_integral(grid, _operator_factors(grid, j, I), mode_factors(grid, J))
