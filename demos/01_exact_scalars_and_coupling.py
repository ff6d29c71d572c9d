"""Exact scalar arithmetic and coupling coefficients.

Every number in this package is a finite sum of rational multiples of
square roots of squarefree integers.  This keeps equality decidable: two
expressions are equal iff their canonical term maps coincide, no epsilons
anywhere.  Coupling coefficients come out as single surd terms.
"""

from fractions import Fraction

from gkmalg import SpinTriple, SurdScalar, clebsch_gordan, gaunt_normalized, wigner3j

print("=== surd arithmetic ===")
a = SurdScalar.sqrt(8)
print(f"sqrt(8) normalises to {a}")
b = SurdScalar.sqrt(45, Fraction(2, 15))
print(f"(2/15) sqrt(45)  ->  {b}")
s = SurdScalar.sqrt(2) + SurdScalar.sqrt(3)
print(f"(sqrt2 + sqrt3)^2 = {s * s}")
print(f"sqrt8 - 2 sqrt2 is exactly zero: {(a - SurdScalar.sqrt(2, 2)).is_zero}")
print(f"float bridge: {b} = {float(b):.16f}")
print(f"40-digit value: {b.evalf(40)}")

print()
print("=== 3j symbols (doubled-integer labels: 2j, 2m) ===")
triple = SpinTriple(2, 2, 0, 0, 0, 0)  # (j1,j2,j3; m1,m2,m3) = (1,1,0; 0,0,0)
print(f"3j(1,1,0;0,0,0) = {wigner3j(triple)}")
half = SpinTriple(1, 1, 2, 1, -1, 0)  # (1/2,1/2,1; 1/2,-1/2,0)
print(f"<1/2 1/2; 1/2 -1/2 | 1 0> = {clebsch_gordan(half)}")
print(f"selection rule: 3j(1,2,4;0,0,0) = {wigner3j(SpinTriple(2, 4, 8, 0, 0, 0))}")

print()
print("=== triple products of unit-normalised spherical modes ===")
c = gaunt_normalized(1, 0, 1, 0, 2, 0)
print(f"rho_10 * rho_10 expands with coefficient {c} on rho_20")
print(f"  as a float: {float(c):.16f} (= 2/sqrt5)")
print(f"identity mode: gaunt(0,0, 3,2, 3,2) = {gaunt_normalized(0, 0, 3, 2, 3, 2)}")
print(f"parity kills l1+l2+l3 odd: gaunt(1,0,1,0,3,0) = {gaunt_normalized(1, 0, 1, 0, 3, 0)}")
