"""The cyclotomic Frobenius/psi operator pair on integer power series in T.

Frobenius phi substitutes (1+T)^p - 1 for T. Its one-sided inverse psi
extracts the component x_0 of x = sum_{i<p} (1+T)^i phi(x_i). The two are
mirrors in the basis S = 1+T (_s_basis): phi(S^i) = S^(p i), so phi spreads
the S-coefficients to every p-th place and psi keeps every p-th one. Both
directions are Taylor shifts by integer additions only, so on polynomials
they are exact and no division by p ever occurs.

monomial_twisted, the operator side of the psi-identity check, sums images
psi^a(T^i) truncated to a few degrees. Only the first p^a of them take
Taylor shifts: the projection rule psi^a(x phi^a(y)) = psi^a(x) y gives each
later image from the p^a before it, in O(p^a) products per degree
(_monomial_images).
"""

from dataclasses import dataclass
from itertools import accumulate
from math import comb
from operator import mul

from .exactmath import _require_prime


@dataclass(frozen=True, eq=False)
class TruncPoly:
    """Integer polynomial in T; coeffs[i] is the coefficient of T^i.

    The tuple length records the tracked degree bound; trailing zeros are
    allowed and ignored by equality, which compares the underlying
    polynomials. Its one operation is the exact product of two polynomials.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("a TruncPoly needs at least one coefficient")

    @classmethod
    def of(cls, values) -> "TruncPoly":
        coeffs = tuple(int(v) for v in values)
        return cls(coeffs if coeffs else (0,))

    @classmethod
    def monomial(cls, n: int) -> "TruncPoly":
        if n < 0:
            raise ValueError(f"degree must be >= 0, got {n}")
        return cls((0,) * n + (1,))

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

    def __mul__(self, other):
        if not isinstance(other, TruncPoly):
            return NotImplemented
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return TruncPoly(tuple(out))

    def truncated(self, through: int) -> "TruncPoly":
        """Coefficients 0..through, padding with zeros beyond the stored bound."""
        if through < 0:
            raise ValueError(f"truncation degree must be >= 0, got {through}")
        return TruncPoly(tuple(self.coeff(i) for i in range(through + 1)))

    def __repr__(self):
        return f"TruncPoly({list(self.coeffs)!r})"


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


def _s_basis(coeffs) -> list[int]:
    """The coefficients c of x in powers of S = 1+T, x(T) = sum_i c_i S^i.

    They are those of x(S-1), a shift by -1, done as a shift by +1 between
    two sign flips of the odd coefficients.
    """
    shifted = _shift_by_one([-v if i & 1 else v for i, v in enumerate(coeffs)])
    return [-v if i & 1 else v for i, v in enumerate(shifted)]


def phi_apply(x: TruncPoly, p: int) -> TruncPoly:
    """Frobenius: substitute (1+T)^p - 1 for T, exactly. Degree grows p-fold.

    The mirror of psi_apply: phi(S^i) = S^(p i), so x = sum_i c_i S^i maps to
    sum_i c_i S^(p i), whose T-coefficients are a shift by +1 of c spread to
    every p-th place. Additions only, like psi_apply.
    """
    _require_prime(p)
    c = _s_basis(x.coeffs)
    spread = [0] * (p * len(c) - p + 1)
    spread[::p] = c
    return TruncPoly(tuple(_shift_by_one(spread)))


def psi_apply(x: TruncPoly, p: int) -> TruncPoly:
    """Extract x_0 from x = sum_{i=0}^{p-1} (1+T)^i phi(x_i).

    Two Taylor shifts by integer additions only, writing S = 1+T: _s_basis
    gives x = sum_k c_k S^k, and S^(i + p j) = S^i phi((1+T)^j) with i < p
    lies in the x_i part, so x_0 = sum_j c_(p j) (1+T)^j, the shift by +1
    of c_0, c_p, c_2p, ... The output has degree bound floor(D/p).
    """
    _require_prime(p)
    return TruncPoly(tuple(_shift_by_one(_s_basis(x.coeffs)[::p])))


def psi_power(x: TruncPoly, p: int, a: int) -> TruncPoly:
    """a-fold application of psi; degree bound floor(D / p^a)."""
    if a < 1:
        raise ValueError(f"iteration count must be >= 1, got {a}")
    for _ in range(a):
        x = psi_apply(x, p)
    return x


# (p, a, through) -> [column d for d = 0..through], entry i of column d the coefficient of T^d in psi^a(T^i)
_images: dict[tuple[int, int, int], list[list[int]]] = {}


def _monomial_images(p: int, a: int, through: int, last: int) -> list[list[int]]:
    """The memo behind monomial_twisted: the images psi^a(T^i) truncated after
    degree through, for every i up to at least last, stored by columns: entry
    i of columns[d] is the coefficient of T^d in psi^a(T^i).

    With q = p^a, phi^a(T) = (1+T)^q - 1 gives T^q = phi^a(T) - sum_{0<k<q}
    binom(q, k) T^k, and the projection rule psi^a(x phi^a(y)) = psi^a(x) y
    turns T^i = T^(i-q) T^q into

        psi^a(T^i) = T psi^a(T^(i-q)) - sum_{0<k<q} binom(q, k) psi^a(T^(i-q+k)),

    exact after truncation, since T only raises degrees. So the images below q
    come from psi_power, and for i >= q, entry i of a column comes from its
    entries i-q+1..i-1 and from entry i - q of the column below, which the T
    shift moves up. A sweep's blocks each empty the memo before their first
    tuple, so it holds what one block needs.
    """
    key = p, a, through
    columns = _images.get(key) or _images.setdefault(key, [[] for _ in range(through + 1)])
    start = len(columns[0])
    if start > last:
        return columns
    q = p ** a
    for i in range(start, min(q, last + 1)):
        for column, c in zip(columns, psi_power(TruncPoly.monomial(i), p, a).truncated(through).coeffs):
            column.append(c)
    weights = [comb(q, k) for k in range(1, q)]
    below = [0] * (last + 1)  # T psi^a(T^(i-q)) has no constant term
    for column in columns:
        for i in range(max(start, q), last + 1):
            column.append(below[i - q] - sum(map(mul, weights, column[i - q + 1:i])))
        below = column
    return columns


def monomial_twisted(n: int, r: int, p: int, a: int, l_max: int) -> TruncPoly:
    """psi^a applied to T^n (1+T)^(-r), exact through degree l_max and
    truncated there.

    For r > 0 the argument is an infinite series, so it is rewritten as
    T^n (1+T)^e times a Frobenius-power image: with r1 = ceil(r / p^a) and
    e = p^a r1 - r in [0, p^a), the projection rule psi(x phi(y)) = psi(x) y
    iterates to

        psi^a(T^n (1+T)^(-r)) = psi^a(T^n (1+T)^e) * (1+T)^(-r1).

    The inner argument is a polynomial, and psi is linear, so

        psi^a(T^n (1+T)^e) = sum_j binom(e, j) psi^a(T^(n+j)),

    an exact sum per degree over entries n..n+e of a _monomial_images column;
    the final multiplication by the unit (1+T)^(-r1) forms only the product
    coefficients 0..l_max, each a dot product with a reversed row of _twist.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if a < 1:
        raise ValueError(f"a must be >= 1, got {a}")
    if l_max < 0:
        raise ValueError(f"l_max must be >= 0, got {l_max}")
    _require_prime(p)
    e, weights, rows = _twist(p ** a, r, l_max)
    core = [sum(map(mul, weights, column[n:n + e + 1])) for column in _monomial_images(p, a, l_max, n + e)]
    return TruncPoly(tuple([sum(map(mul, core, row)) for row in rows]))


# (p^a, r, l_max) -> monomial_twisted's constants, which repeat for every n of a block
_twists: dict[tuple[int, int, int], tuple[int, list[int], list[list[int]]]] = {}


def _twist(pa: int, r: int, l_max: int) -> tuple[int, list[int], list[list[int]]]:
    """(e, [binom(e, j) for j = 0..e], rows) with r1 = ceil(r / pa), e = pa r1 - r
    and rows[k] = [binom(-r1, i) for i = k..0], the unit (1+T)^(-r1) through
    degree k reversed, so coefficient k of a product with the unit is one dot
    product. Memoized in _twists; a sweep's blocks each empty the memo before
    their first tuple, like the images.
    """
    twist = _twists.get((pa, r, l_max))
    if twist is None:
        r1 = -((-r) // pa)
        e = pa * r1 - r
        # unit[i] = binom(-r1, i), each from the one before by an exact division
        unit = [1]
        for i in range(l_max):
            unit.append(unit[i] * (-r1 - i) // (i + 1))
        twist = _twists[pa, r, l_max] = e, [comb(e, j) for j in range(e + 1)], [unit[k::-1] for k in range(l_max + 1)]
    return twist


def projection_rule_check(x: TruncPoly, y: TruncPoly, p: int) -> bool:
    """Whether psi(x * phi(y)) equals psi(x) * y; true for all exact polynomials.

    Both sides carry the same degree bound floor(deg x / p) + deg y, so the
    comparison is plain polynomial equality.
    """
    return psi_apply(x * phi_apply(y, p), p) == psi_apply(x, p) * y
