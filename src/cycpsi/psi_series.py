"""The cyclotomic Frobenius/psi operator pair on integer power series in T.

Frobenius substitutes (1+T)^p - 1 for T. Its one-sided inverse psi extracts
the component x_0 of x = sum_{i<p} (1+T)^i phi(x_i); on polynomials both
directions are exact integer-linear maps, so no division by p ever occurs.
"""

from dataclasses import dataclass
from itertools import accumulate
from math import comb

from .exactmath import _require_prime, binom


@dataclass(frozen=True, eq=False)
class TruncPoly:
    """Integer polynomial in T; coeffs[i] is the coefficient of T^i.

    The tuple length records the tracked degree bound; trailing zeros are
    allowed and ignored by equality, which compares the underlying
    polynomials. All arithmetic here is exact over the integers.
    """

    coeffs: tuple[int, ...]

    @classmethod
    def of(cls, values) -> "TruncPoly":
        coeffs = tuple(int(v) for v in values)
        return cls(coeffs if coeffs else (0,))

    @classmethod
    def zero(cls) -> "TruncPoly":
        return cls((0,))

    @classmethod
    def one(cls) -> "TruncPoly":
        return cls((1,))

    @classmethod
    def monomial(cls, n: int, c: int = 1) -> "TruncPoly":
        if n < 0:
            raise ValueError(f"degree must be >= 0, got {n}")
        return cls((0,) * n + (c,))

    @classmethod
    def one_plus_t_power(cls, e: int, through: int | None = None) -> "TruncPoly":
        """(1+T)^e. For e < 0 the series is infinite, so a truncation degree
        is required; coefficients are the generalized binomials binom(e, i)."""
        if through is None:
            if e < 0:
                raise ValueError("negative exponent needs a truncation degree")
            through = e
        return cls(tuple(binom(e, i) for i in range(through + 1)))

    @property
    def degree_bound(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def _stripped(self) -> tuple[int, ...]:
        last = len(self.coeffs)
        while last > 0 and self.coeffs[last - 1] == 0:
            last -= 1
        return self.coeffs[:last]

    def __eq__(self, other):
        if not isinstance(other, TruncPoly):
            return NotImplemented
        return self._stripped() == other._stripped()

    def __hash__(self):
        return hash(self._stripped())

    def __add__(self, other):
        if isinstance(other, int):
            other = TruncPoly((other,))
        if not isinstance(other, TruncPoly):
            return NotImplemented
        size = max(len(self.coeffs), len(other.coeffs))
        return TruncPoly(tuple(self.coeff(i) + other.coeff(i) for i in range(size)))

    __radd__ = __add__

    def __neg__(self):
        return TruncPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if isinstance(other, int):
            other = TruncPoly((other,))
        if not isinstance(other, TruncPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return TruncPoly(tuple(c * other for c in self.coeffs))
        if not isinstance(other, TruncPoly):
            return NotImplemented
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return TruncPoly(tuple(out))

    __rmul__ = __mul__

    def truncated(self, through: int) -> "TruncPoly":
        """Coefficients 0..through, padding with zeros beyond the stored bound."""
        if through < 0:
            raise ValueError(f"truncation degree must be >= 0, got {through}")
        return TruncPoly(tuple(self.coeff(i) for i in range(through + 1)))

    def __repr__(self):
        return f"TruncPoly({list(self.coeffs)!r})"


def phi_apply(x: TruncPoly, p: int) -> TruncPoly:
    """Frobenius: substitute (1+T)^p - 1 for T, exactly. Degree grows p-fold."""
    _require_prime(p)
    u = TruncPoly(tuple(comb(p, i) for i in range(p + 1))) - 1
    acc = TruncPoly.zero()
    for c in reversed(x.coeffs):
        acc = acc * u + c
    return acc.truncated(max(p * x.degree_bound, 0))


def _shift_by_one(coeffs: list[int]) -> list[int]:
    """Coefficients of f(X+1) from those of f(X), by additions only: each pass
    is a synthetic division by X - 1, a running sum from the top coefficient
    down whose last value is the next coefficient of f(X+1)."""
    top_down = coeffs[::-1]
    shifted = []
    while top_down:
        top_down = list(accumulate(top_down))
        shifted.append(top_down.pop())
    return shifted


def psi_apply(x: TruncPoly, p: int) -> TruncPoly:
    """Extract x_0 from x = sum_{i=0}^{p-1} (1+T)^i phi(x_i).

    Two Taylor shifts by integer additions only, writing S = 1+T:
      1. T-basis to S-basis: the coefficients c of x(S-1) are a shift by -1,
         done as a shift by +1 between two sign flips of the odd coefficients.
      2. S^(i + p j) = S^i phi((1+T)^j) with i < p lies in the x_i part, so
         x_0 = sum_j c_(p j) (1+T)^j, the shift by +1 of c_0, c_p, c_2p, ...
    The output has degree bound floor(D/p).
    """
    _require_prime(p)
    c = _shift_by_one([-v if i & 1 else v for i, v in enumerate(x.coeffs)])
    row = [-v if (p * j) & 1 else v for j, v in enumerate(c[::p])]
    return TruncPoly(tuple(_shift_by_one(row)))


def psi_power(x: TruncPoly, p: int, a: int) -> TruncPoly:
    """a-fold application of psi; degree bound floor(D / p^a)."""
    if a < 1:
        raise ValueError(f"iteration count must be >= 1, got {a}")
    for _ in range(a):
        x = psi_apply(x, p)
    return x


def monomial_twisted(n: int, r: int, p: int, a: int, l_max: int) -> TruncPoly:
    """psi^a applied to T^n (1+T)^(-r), exact through degree l_max and
    truncated there.

    For r > 0 the argument is an infinite series, so it is rewritten as
    T^n (1+T)^e times a Frobenius-power image: with r1 = ceil(r / p^a) and
    e = p^a r1 - r in [0, p^a), the projection rule psi(x phi(y)) = psi(x) y
    iterates to

        psi^a(T^n (1+T)^(-r)) = psi^a(T^n (1+T)^e) * (1+T)^(-r1).

    The inner argument is a polynomial, so psi^a of it is exact, and the
    final multiplication by the unit (1+T)^(-r1) is exact coefficient by
    coefficient through l_max.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if a < 1:
        raise ValueError(f"a must be >= 1, got {a}")
    if l_max < 0:
        raise ValueError(f"l_max must be >= 0, got {l_max}")
    _require_prime(p)
    pa = p ** a
    r1 = -((-r) // pa)
    e = pa * r1 - r
    inner = TruncPoly.monomial(n) * TruncPoly.one_plus_t_power(e)
    core = psi_power(inner, p, a)
    unit = TruncPoly.one_plus_t_power(-r1, through=l_max)
    return (core * unit).truncated(l_max)


def projection_rule_check(x: TruncPoly, y: TruncPoly, p: int) -> bool:
    """Whether psi(x * phi(y)) equals psi(x) * y; true for all exact polynomials.

    Both sides carry the same degree bound floor(deg x / p) + deg y, so the
    comparison is plain polynomial equality.
    """
    return psi_apply(x * phi_apply(y, p), p) == psi_apply(x, p) * y
