"""Exact integer and rational primitives: generalized binomials, p-adic valuations, congruences."""

import math
from fractions import Fraction
from functools import lru_cache


class NotPIntegralError(ValueError):
    """A rational with negative p-adic valuation reached a mod-p congruence test."""


class _InfiniteValuation:
    """Marker for ord_p(0): larger than every finite valuation, absorbing under addition."""

    __slots__ = ()

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return isinstance(other, _InfiniteValuation)

    def __gt__(self, other):
        return not isinstance(other, _InfiniteValuation)

    def __ge__(self, other):
        return True

    def __eq__(self, other):
        return isinstance(other, _InfiniteValuation)

    def __hash__(self):
        return hash("_InfiniteValuation")

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, _InfiniteValuation):
            raise ArithmeticError("infinite - infinite is undefined")
        return self

    def __repr__(self):
        return "INFINITE"

    def __reduce__(self):
        # pickle round-trips to the module singleton, so identity checks
        # survive crossing a process pool
        return (_infinite_instance, ())


def _infinite_instance() -> "_InfiniteValuation":
    return INFINITE


INFINITE = _InfiniteValuation()

# Finite valuations are plain nonnegative ints (negative for rationals with
# p in the denominator); INFINITE stands in for ord_p(0).
Valuation = int | _InfiniteValuation

factorial = math.factorial


@lru_cache(maxsize=None)
def is_prime(n: int) -> bool:
    """Trial-division primality check; adequate for the small moduli used here."""
    if n < 2:
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
        return math.comb(x, k) if k <= x else 0
    value = math.comb(k - x - 1, k)
    return -value if k & 1 else value


def ord_p(x: int | Fraction, p: int) -> Valuation:
    """p-adic valuation of an integer or rational; INFINITE for zero."""
    _require_prime(p)
    if x == 0:
        return INFINITE
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
    """Whether two p-integral rationals agree modulo p^e.

    Formalized as ord_p(x - y) >= e. Arguments with p in the denominator are
    rejected with NotPIntegralError rather than reported as incongruent.
    """
    _require_prime(p)
    if e < 1:
        raise ValueError(f"exponent must be positive, got {e}")
    for v in (x, y):
        if ord_p(v, p) < 0:
            raise NotPIntegralError(f"{v} is not {p}-integral")
    return ord_p(Fraction(x) - Fraction(y), p) >= e

