#!/usr/bin/env python3
"""Tour of the coefficients: Fleck sums, their guaranteed powers of p, and
the normalized values that behave like binomial coefficients."""

from cycpsi import fleck_sum_general, normalized_parts, residue_system, t_coeff

print("A Fleck sum adds (-1)^k binom(n,k) binom((k-r)/p^a, l) over k = r (mod p^a).")
print("Dividing out the guaranteed power of p leaves the normalized coefficient.\n")

p, a, l, r = 3, 1, 0, 0
print(f"p={p}, a={a}, l={l}, r={r}:")
print(f"{'n':>3} {'raw':>8} {'exponent':>8} {'normalized':>10} {'mod p':>5}")
for n in range(0, 13):
    raw, exponent, normalized = normalized_parts(p, a, n, r, l)
    print(f"{n:>3} {raw:>8} {exponent:>8} {normalized:>10} {normalized % p:>5}")

print("\nThe exponent floor((n - p^(a-1) - l p^a) / phi(p^a)) can be negative;")
print("the normalized value is then the sum scaled UP by a power of p:")
raw, exponent, normalized = normalized_parts(2, 1, 1, -1, 1)
print(f"  p=2 a=1 n=1 r=-1 l=1  ->  raw={raw}, exponent={exponent}, normalized={normalized}")

print("\nSharpness: on rows n = (l+1) p^(a-1) - 1 + m phi(p^a) the normalized")
print("value is (-1)^(m-1) binom(m-1, l) mod p for EVERY class r:")
for m in (1, 2, 3):
    n = (0 + 1) * 1 - 1 + m * 2  # p=3, a=1, l=0

    values = [normalized_parts(3, 1, n, r, 0)[2] % 3 for r in residue_system(3, 1)]
    print(f"  m={m}, n={n}: residues over all r mod 3 -> {values}")

print("\nThe rational T-coefficients l! p^l / floor(n/p^(a-1))! * sum are")
print("always p-integral even when they are not integers:")
for n in (6, 15):
    value = t_coeff(3, 2, n, 1, 0)
    print(f"  T(p=3, a=2, n={n}, r=1, l=0) = {value}")

print("\nRaw sums grow fast but stay exact (arbitrary precision):")
print(f"  fleck_sum_general(n=120, r=0, m=2, l=0) = {fleck_sum_general(120, 0, 2, 0)}")
