"""Independent brute-force routes used as test oracles.

Deliberately naive and separate from the library: binomials come from the
literal falling product divided by k!, and the alternating sums iterate k
over a window wider than [0, n] so the finite-support property is exercised
rather than assumed. Congruences of rationals come from valuations counted
by dividing p out of numerator and denominator. modulus_factorization_identity
is the direct form of lem3.1's convolution, which the library computes as a
dot product, and index_reduction_oracle the term-by-term form of lem2.2's
identity, which the library reads from lines of sums. Polynomials here are
coefficient lists, and phi is Horner's substitution, where the library
takes Taylor shifts through the basis 1+T.
"""

from fractions import Fraction

from cycpsi.coefficients import _factorization_j_max, _truncation_error, fleck_sum_general


def binom_product(x: int, k: int) -> int:
    if k < 0:
        return 0
    num = 1
    for i in range(k):
        num *= x - i
    den = 1
    for i in range(1, k + 1):
        den *= i
    q, rem = divmod(num, den)
    assert rem == 0, f"product {num} not divisible by {den}"
    return q


def one_plus_t_power(e: int, through: int) -> list[int]:
    """Coefficients 0..through of (1+T)^e, the binomials binom(e, i) by the
    falling product; for e < 0 the series is infinite and this is its head."""
    return [binom_product(e, i) for i in range(through + 1)]


def valuation(x: Fraction, p: int) -> int:
    """ord_p of a nonzero rational: the factors p of its numerator less those of its denominator."""
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def congruent_by_valuation(x, y, p: int, e: int) -> bool | None:
    """Whether the rationals x and y agree mod p^e, as ord_p(x - y) >= e with
    ord_p(0) above every bound; None when a side has negative valuation."""
    x, y = Fraction(x), Fraction(y)
    if any(v != 0 and valuation(v, p) < 0 for v in (x, y)):
        return None
    return x == y or valuation(x - y, p) >= e


def fleck_oracle(n: int, r: int, m: int, l: int) -> int:
    total = 0
    for k in range(-2 * m, n + 2 * m + 1):
        if (k - r) % m:
            continue
        sign = 1 if k % 2 == 0 else -1
        total += sign * binom_product(n, k) * binom_product((k - r) // m, l)
    return total


def psi_oracle(coeffs, p: int) -> list[int]:
    """psi by two binomial basis changes, writing S = 1+T: the S-coefficients
    c_m = sum_i (-1)^(i-m) binom(i, m) a_i, then the residue-0 row
    b_j = sum_j' binom(j', j) c_(p j'). Both sums run over every index, so
    the vanishing binomials below the diagonal are exercised, not skipped."""
    d = len(coeffs) - 1
    c = [
        sum((-1 if (i - m) & 1 else 1) * binom_product(i, m) * coeffs[i] for i in range(d + 1))
        for m in range(d + 1)
    ]
    top = d // p
    return [sum(binom_product(jp, j) * c[p * jp] for jp in range(top + 1)) for j in range(top + 1)]


def poly_add(x, y) -> list[int]:
    """The coefficientwise sum of two coefficient lists, the shorter padded with zeros."""
    size = max(len(x), len(y))
    return [(x[i] if i < len(x) else 0) + (y[i] if i < len(y) else 0) for i in range(size)]


def poly_mul(x, y) -> list[int]:
    """The product of two coefficient lists by the schoolbook rule."""
    out = [0] * (len(x) + len(y) - 1)
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            out[i + j] += a * b
    return out


def phi_by_substitution(coeffs, p: int) -> list[int]:
    """phi by Horner's rule: x(u) with u = (1+T)^p - 1, as (...(a_D u + a_(D-1)) u
    + ...) u + a_0, cut to the p D + 1 coefficients of degree p D."""
    u = poly_add(one_plus_t_power(p, p), [-1])
    acc = [0]
    for c in reversed(coeffs):
        acc = poly_add(poly_mul(acc, u), [c])
    return acc[:p * (len(coeffs) - 1) + 1]


def nested_expand(axes, grid):
    """The tuples of a check's axes (name, fields, values), outermost first, by the
    nested loops the verifier expanded with before it took products, each
    axis' values read with every outer axis bound: one tuple per point, one
    value per axis, in axis order."""
    *outer, (_, _, values) = axes
    for bound in _bind(grid, outer, {}):
        prefix = tuple(bound.values())
        for value in values(grid, bound):
            yield prefix + (value,)


def row_tuples(rows):
    """The tuples of a check's rows (*outer, values), one per value, in order:
    what nested_expand gives for the same axes."""
    return [(*outer, value) for *outer, values in rows for value in values]


def _bind(grid, axes, bound: dict):
    """Bind each of axes (at least one) in turn and yield bound (one dict,
    updated in place) per combination.

    Keys enter bound on the first descent, outermost first, so its values are
    in axis order whichever values later replace them.
    """
    (name, _, values), rest = axes[0], axes[1:]
    for value in values(grid, bound):
        bound[name] = value
        if rest:
            yield from _bind(grid, rest, bound)
        else:
            yield bound


def modulus_factorization_identity(d: int, q: int, n: int, r: int, t: int, l: int) -> tuple[int, int]:
    """Both sides of the exact convolution collapsing moduli d and q into dq,
    each sum term by term, with factorization_sides' validation and error texts.

    lhs = sum_j (-1)^j S_d(n,t,j) S_q(j,r,l), rhs = S_dq(n, dr+t, l), where
    S_m(n,c,i) is the general Fleck sum. Requires t < d so the inner index
    (k-t)/d is a nonnegative integer for every contributing k; the j-sum is
    finite and its truncation point is checked, not assumed.
    """
    j_max = _factorization_j_max(d, q, n, t, l)
    lhs = 0
    for j in range(j_max + 1):
        term = fleck_sum_general(n, t, d, j) * fleck_sum_general(j, r, q, l)
        lhs += -term if j & 1 else term
    # every term beyond j_max has a vanishing first factor
    if j_max >= 0 and fleck_sum_general(n, t, d, j_max + 1) != 0:
        raise _truncation_error(j_max, d, q, n, r, t, l)
    rhs = fleck_sum_general(n, d * r + t, d * q, l)
    return lhs, rhs


def index_reduction_oracle(n: int, r: int, l: int, m: int) -> tuple[int, int]:
    """Both sides of lem2.2's order-lowering identity, the right one summed
    term by term over j, each sum a separate fleck_sum_general call:

    left  = S(n,r,l) - binom(floor((n-r)/m), l) S(n,r,0)
    right = -sum_j binom(n,j) S(j,r,0) S(n-j-1, r-j+m-1, l-1)
    """
    left = fleck_sum_general(n, r, m, l) - binom_product((n - r) // m, l) * fleck_sum_general(n, r, m, 0)
    right = 0
    for j in range(n):
        term = fleck_sum_general(j, r, m, 0) * fleck_sum_general(n - j - 1, r - j + m - 1, m, l - 1)
        right -= binom_product(n, j) * term
    return left, right
