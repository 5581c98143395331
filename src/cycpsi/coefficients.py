"""Fleck-type alternating binomial sums, their prime-power normalizations, and
the exact reduction identities they satisfy."""

from fractions import Fraction
from functools import lru_cache
from math import comb

from .exactmath import _require_prime, binom, factorial


class IntegrityError(RuntimeError):
    """A divisibility guaranteed by the integrality theorem failed; implementation bug."""


def totient_prime_power(p: int, a: int) -> int:
    """Euler totient of p^a, i.e. p^(a-1) (p-1)."""
    return p ** (a - 1) * (p - 1)


def _require_prime_power(p: int, a: int) -> None:
    _require_prime(p)
    if a < 1:
        raise ValueError(f"a must be >= 1, got {a}")


def floor_exponent(p: int, a: int, n: int, l: int) -> int:
    """floor((n - p^(a-1) - l p^a) / totient(p^a)), the power of p that the
    integrality theorem guarantees in the Fleck sum of (p, a, n, r, l); it may
    be negative."""
    return (n - p ** (a - 1) - l * p ** a) // totient_prime_power(p, a)


@lru_cache(maxsize=None)
def fleck_sum_general(n: int, r: int, m: int, l: int) -> int:
    """Sum of (-1)^k binom(n,k) binom((k-r)/m, l) over k = r (mod m).

    Only k in [0, n] contribute since binom(n, k) vanishes outside; the
    modulus m is any positive integer, not only a prime power.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if l < 0:
        raise ValueError(f"l must be >= 0, got {l}")
    if m < 1:
        raise ValueError(f"modulus must be positive, got {m}")
    total = 0
    for k in range(r % m, n + 1, m):
        term = comb(n, k) * binom((k - r) // m, l)
        total += -term if k & 1 else term
    return total


# The sum without the memo: normalized values are memoized in normalized_table
# instead, and psi-identity never reads a sum twice.
_direct_fleck_sum = fleck_sum_general.__wrapped__


def normalized_parts(p: int, a: int, n: int, r: int, l: int) -> tuple[int, int, int]:
    """(raw_sum, exponent, normalized) for one coefficient.

    exponent = floor_exponent(p, a, n, l). When it is >= 0 the integrality
    theorem makes raw = p^exponent * normalized exact, and a violation raises
    IntegrityError as a bug trap; when it is negative, normalized is raw scaled
    up by p^(-exponent).
    """
    _require_prime_power(p, a)
    raw = _direct_fleck_sum(n, r, p ** a, l)
    exponent = floor_exponent(p, a, n, l)
    if exponent >= 0:
        normalized, rem = divmod(raw, p ** exponent)
        if rem:
            raise IntegrityError(
                f"p^{exponent} does not divide the sum {raw} "
                f"(p={p}, a={a}, n={n}, r={r}, l={l})"
            )
    else:
        normalized = raw * p ** (-exponent)
    return raw, exponent, normalized


@lru_cache(maxsize=None)
def normalized_table(p: int, a: int) -> dict[tuple[int, int, int], int]:
    """The memo of normalized coefficients for the prime power p^a, keyed (n, r, l).

    normalized fills it; every value in it went through normalized_parts.
    """
    _require_prime_power(p, a)
    return {}


def normalized(p: int, a: int, n: int, r: int, l: int) -> int:
    """The normalized coefficient <n r>_{l,p^a}, memoized in normalized_table(p, a)."""
    table = normalized_table(p, a)
    value = table.get((n, r, l))
    if value is None:
        value = table[n, r, l] = normalized_parts(p, a, n, r, l)[2]
    return value


def t_coeff(p: int, a: int, n: int, r: int, l: int) -> Fraction:
    """Factorial-normalized rational coefficient l! p^l / floor(n/p^(a-1))! times the Fleck sum."""
    _require_prime_power(p, a)
    total = fleck_sum_general(n, r, p ** a, l)
    return Fraction(factorial(l) * p ** l, factorial(n // p ** (a - 1))) * total


def recurrence_residue(p: int, a: int, n: int, r: int, l: int) -> int:
    """Mod-p residue of the order-lowering recurrence for a normalized coefficient.

    Requires n >= 1 and l >= 1. Sums -binom(n,j) <j,r>_0 <n-j-1, r-j+p^a-1>_(l-1)
    over the j in [0, n-1] whose totient-residue test keeps the carried power
    of p at zero; the result agrees with the normalized coefficient mod p.
    """
    _require_prime_power(p, a)
    if l < 1:
        raise ValueError(f"recurrence needs l >= 1, got {l}")
    if n < 1:
        raise ValueError(f"recurrence needs n >= 1, got {n}")
    pa = p ** a
    phi = totient_prime_power(p, a)
    threshold = (n - (l + 1) * p ** (a - 1)) % phi
    acc = 0
    for j in range(n):
        if (j - p ** (a - 1)) % phi >= threshold:
            acc -= (
                comb(n, j)
                * normalized(p, a, j, r, 0)
                * normalized(p, a, n - j - 1, r - j + pa - 1, l - 1)
            )
    return acc % p


def index_reduction_identity(n: int, r: int, l: int, m: int) -> tuple[int, int]:
    """Both sides of the exact identity lowering the order index l by one.

    left  = S(n,r,l) - binom(floor((n-r)/m), l) S(n,r,0)
    right = -sum_j binom(n,j) S(j,r,0) S(n-j-1, r-j+m-1, l-1)

    with S the general Fleck sum; holds for every modulus m >= 1, composite
    included, and for every integer r. Returns (left, right).
    """
    if n < 1 or l < 1 or m < 1:
        raise ValueError(f"need n, l, m >= 1, got n={n}, l={l}, m={m}")
    left = fleck_sum_general(n, r, m, l) - binom((n - r) // m, l) * fleck_sum_general(
        n, r, m, 0
    )
    right = 0
    for j in range(n):
        rj = r - j + m - 1
        right -= (
            comb(n, j)
            * fleck_sum_general(j, r, m, 0)
            * fleck_sum_general(n - j - 1, rj, m, l - 1)
        )
    return left, right


def modulus_factorization_identity(
    d: int, q: int, n: int, r: int, t: int, l: int
) -> tuple[int, int]:
    """Both sides of the exact convolution collapsing moduli d and q into dq.

    lhs = sum_j (-1)^j S_d(n,t,j) S_q(j,r,l), rhs = S_dq(n, dr+t, l), where
    S_m(n,c,i) is the general Fleck sum. Requires t < d so the inner index
    (k-t)/d is a nonnegative integer for every contributing k; the j-sum is
    finite and its truncation point is checked, not assumed.
    """
    if d < 1 or q < 1:
        raise ValueError(f"moduli must be positive, got d={d}, q={q}")
    if n < 0 or l < 0:
        raise ValueError(f"need n, l >= 0, got n={n}, l={l}")
    if t >= d:
        raise ValueError(f"need t < d, got t={t}, d={d}")
    # the last contributing k is the largest k <= n with k = t (mod d)
    j_max = (n - t) // d if t % d <= n else -1
    lhs = 0
    for j in range(j_max + 1):
        term = fleck_sum_general(n, t, d, j) * fleck_sum_general(j, r, q, l)
        lhs += -term if j & 1 else term
    # every term beyond j_max has a vanishing first factor
    if j_max >= 0 and fleck_sum_general(n, t, d, j_max + 1) != 0:
        raise IntegrityError(
            f"the j-sum does not end at j = {j_max} (d={d}, q={q}, n={n}, r={r}, t={t}, l={l})"
        )
    rhs = fleck_sum_general(n, d * r + t, d * q, l)
    return lhs, rhs


def clear_caches() -> None:
    """Drop the memoized Fleck sums and normalized coefficients; sweeps call
    this when the grid changes, to bound memory by what one grid needs."""
    fleck_sum_general.cache_clear()
    normalized_table.cache_clear()
