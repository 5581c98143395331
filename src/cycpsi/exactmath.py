"""Exact integer and rational primitives: generalized binomials, p-adic
valuations of nonzero values, congruences.

Every zero-sensitive question (is a bound on a valuation met, do two values
agree mod p^e) is decided by divisibility, so ord_p is needed only for a
nonzero value and refuses 0.
"""

import math
from fractions import Fraction
from functools import lru_cache


class NotPIntegralError(ValueError):
    """A rational with negative p-adic valuation reached a mod-p congruence test."""


factorial = math.factorial


# remembers each answer, so every prime check of a sweep tests primality once per prime; bounded,
# since a sweep asks about a handful of primes and nothing clears it; typed, so 3.0 is not read back
# as the entry of 3
@lru_cache(maxsize=128, typed=True)
def is_prime(n: int) -> bool:
    """Trial-division primality check; adequate for the small moduli used here.
    Only an int can be prime."""
    if not isinstance(n, int) or n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _require_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")


def binom(x: int, k: int) -> int:
    """Generalized binomial coefficient x(x-1)...(x-k+1)/k!.

    Defined for any integer x: 1 when k = 0, 0 when k < 0. A negative upper
    argument is reduced through the reflection (x choose k) =
    (-1)^k (k-x-1 choose k), so only nonnegative-argument binomials are
    ever expanded.
    """
    if k < 0:
        return 0
    if x >= 0:
        return math.comb(x, k)
    value = math.comb(k - x - 1, k)
    return -value if k & 1 else value


def ord_p(x: int | Fraction, p: int) -> int:
    """p-adic valuation of a nonzero integer or rational; 0 is refused with ValueError."""
    _require_prime(p)
    if x == 0:
        raise ValueError(f"ord_{p} needs a nonzero value, got 0")
    if isinstance(x, Fraction):
        return _ord_nonzero(x.numerator, p) - _ord_nonzero(x.denominator, p)
    return _ord_nonzero(x, p)


def _ord_nonzero(x: int, p: int) -> int:
    x = abs(x)
    e = 0
    while x % p == 0:
        x //= p
        e += 1
    return e


def congruent_mod_p_power(
    x: int | Fraction, y: int | Fraction, p: int, e: int
) -> bool:
    """Whether two p-integral rationals agree modulo p^e: p^e divides the
    numerator of x - y, whose reduced denominator p does not divide.

    Arguments with p in the reduced denominator are rejected with
    NotPIntegralError rather than reported as incongruent.
    """
    _require_prime(p)
    if e < 1:
        raise ValueError(f"exponent must be positive, got {e}")
    for v in (x, y):
        if v.denominator % p == 0:
            raise NotPIntegralError(f"{v} is not {p}-integral")
    return (x - y).numerator % p ** e == 0
