"""Sphere mode systems and the independent quadrature oracle.

The exact product tables (built from coupling coefficients) are compared
against plain numerical integrals of the sampled basis functions.  The two
paths share no code, so agreement to ~1e-13 is strong evidence both are
right; the contract tolerance is 1e-10.
"""

from gkmalg import (
    Sphere2Geometry,
    Sphere3Geometry,
    make_grid,
    make_mode_system,
    numeric_cocycle_pairing,
    numeric_eigencheck,
    numeric_product_coefficient,
)

print("=== 2-sphere: rho_lm = sqrt(4pi) Y_lm ===")
s2 = Sphere2Geometry()
ms = make_mode_system(s2, 2)
grid = make_grid(s2, 8)
print(f"{len(ms.modes)} modes through l = 2; grid has {grid.weights.size} nodes")
print()
print("rho_10 * rho_10 expansion, exact vs integral:")
for K, coeff in ms.product((1, 0), (1, 0)).items():
    numeric = numeric_product_coefficient(grid, (1, 0), (1, 0), K).real
    print(f"  K={K}:  exact {str(coeff):>10}  = {float(coeff):+.13f}   oracle {numeric:+.13f}")

print()
print("conjugation pairing and azimuthal eigenvalues:")
for I in [(1, 1), (2, -1), (2, 0)]:
    J, phase = ms.eta(I)
    eig = ms.eigen(I)[0]
    rayleigh = numeric_eigencheck(grid, 1, I)
    print(f"  eta{I} = ({J}, {phase:+d});  D rho = {eig} rho, oracle {rayleigh:+.12f}")

print()
print("cocycle pairing (gives the central term of the bracket):")
for I in [(1, 1), (2, 2), (2, 0)]:
    J, _ = ms.eta(I)
    exact = float(ms.cocycle_pairing(1, I, J))
    numeric = numeric_cocycle_pairing(grid, 1, I, J).real
    print(f"  omega-factor({I}, {J}): exact {exact:+.1f}, oracle {numeric:+.12f}")

print()
print("=== SU(2) (~ the 3-sphere): rho^j_mm' = sqrt(2j+1) D^j_mm' ===")
s3 = Sphere3Geometry()  # half-integer j included
ms3 = make_mode_system(s3, 2)
grid3 = make_grid(s3, 6)
print(f"{len(ms3.modes)} modes through 2j = 2 (labels are doubled: (2j, 2m, 2m'))")
I, J = (1, 1, 1), (1, -1, -1)
print(f"rho{I} * rho{J} expansion:")
for K, coeff in ms3.product(I, J).items():
    numeric = numeric_product_coefficient(grid3, I, J, K).real
    print(f"  K={K}:  exact {str(coeff):>8}   oracle {numeric:+.13f}")
print("two commuting grading operators, eigenvalues (m, m'):")
for I in [(2, 2, 0), (1, 1, -1)]:
    pair = (numeric_eigencheck(grid3, 1, I), numeric_eigencheck(grid3, 2, I))
    print(f"  mode {I}: exact {tuple(map(str, ms3.eigen(I)))}, oracle ({pair[0]:+.10f}, {pair[1]:+.10f})")

print()
worst = 0.0
for (I, J), table in ms3.products.items():
    for K, c in table.items():
        worst = max(worst, abs(numeric_product_coefficient(grid3, I, J, K) - float(c)))
print(f"largest |exact - oracle| over all {sum(len(t) for t in ms3.products.values())} "
      f"stored SU(2) coefficients: {worst:.2e}")
assert worst < 1e-10
