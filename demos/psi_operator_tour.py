#!/usr/bin/env python3
"""Tour of the operator pair: Frobenius phi substitutes (1+T)^p - 1 for T,
and psi is its one-sided inverse on integer power series."""

from cycpsi import (
    TruncPoly,
    fleck_sum_general,
    monomial_twisted,
    phi_apply,
    projection_rule_check,
    psi_apply,
)

p = 2
x = TruncPoly.of([1, 2, 0, 5])  # 1 + 2T + 5T^3

print(f"x          = {list(x.coeffs)}")
image = phi_apply(x, p)
print(f"phi(x)     = {list(image.coeffs)}   (substitute (1+T)^{p} - 1 for T)")
back = psi_apply(image, p)
print(f"psi(phi(x))= {list(back.coeffs)}   (exact round trip, no division by p)")
assert back == x

print("\npsi is only a LEFT inverse. Witness: psi(1+T) = 0, so phi(psi(1+T)) = 0:")
w = TruncPoly.of([1, 1])
print(f"  psi(1+T)      = {list(psi_apply(w, p).coeffs)}")
print(f"  phi(psi(1+T)) = {list(phi_apply(psi_apply(w, p), p).coeffs)}  !=  {list(w.coeffs)}")

print("\nProjection rule psi(x * phi(y)) = psi(x) * y:")
y = TruncPoly.of([3, -1, 2])
print(f"  holds for x = {list(x.coeffs)}, y = {list(y.coeffs)}:",
      projection_rule_check(x, y, p))

print("\nThe coefficients of psi^a(T^n (1+T)^(-r)) are the sign-adjusted")
print("Fleck sums (-1)^n C_l, computed here twice by independent routes:")
for (n, r, prime, a) in ((4, 0, 2, 2), (5, -2, 3, 1), (12, 5, 2, 2)):
    got = monomial_twisted(n, r, prime, a, 4).coeffs
    sign = 1 if n % 2 == 0 else -1
    want = tuple(sign * fleck_sum_general(n, r, prime**a, l) for l in range(5))
    print(f"  n={n:>2} r={r:>2} p={prime} a={a}: operator {list(got)}  sums {list(want)}")
    assert got == want
