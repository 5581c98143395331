"""Fleck-type alternating binomial sums, their prime-power normalizations, and
the exact reduction identities they satisfy."""

from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from math import comb
from operator import mul, sub

from .exactmath import _require_prime, binom, factorial


class IntegrityError(RuntimeError):
    """A divisibility guaranteed by the integrality theorem failed; implementation bug."""


def totient_prime_power(p: int, a: int) -> int:
    """Euler totient of p^a, i.e. p^(a-1) (p-1)."""
    return p ** (a - 1) * (p - 1)


def _require_prime_power(p: int, a: int) -> None:
    _require_prime(p)
    if not isinstance(a, int) or a < 1:
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


# The sum without fleck_sum_general's memo, which now serves only t_coeff (cor1.3):
# lem2.2's sums and lem3.1's columns live in _lines and normalized values in
# normalized_table, but lem3.1's right side is a direct sum, one per tuple (354,240
# at SweepGrid()), and thm1.0 sums a class directly only where a binding with a
# positive bound is off the raw-sum records.
_direct_fleck_sum = fleck_sum_general.__wrapped__

# (m, l, r, slope) -> [S(i, r + slope i, m, l) for i = 0, 1, ...], grown in place
# by _line through _direct_fleck_sum; lem2.2 and lem3.1 read them, clear_caches empties them.
_lines: dict[tuple[int, int, int, int], list[int]] = {}


def _line(m: int, l: int, r: int, slope: int, length: int) -> list[int]:
    """The line _lines[m, l, r, slope], grown to at least length values."""
    line = _lines.setdefault((m, l, r, slope), [])
    if len(line) < length:
        line.extend(_direct_fleck_sum(i, r + slope * i, m, l) for i in range(len(line), length))
    return line


def _fleck_row(n: int, r: int, m: int, l_max: int) -> list[int]:
    """[fleck_sum_general(n, r, m, l) for l in 0..l_max] in one pass over k, unmemoized.

    Each k = r (mod m) adds (-1)^k binom(n, k) binom(j, l) to the l-th sum,
    with j = (k - r)/m; binom(j, l+1) = binom(j, l) (j - l)/(l + 1) steps l,
    and the division is exact for every integer j, negative included.
    """
    row = [0] * (l_max + 1)
    for k in range(r % m, n + 1, m):
        j = (k - r) // m
        term = -comb(n, k) if k & 1 else comb(n, k)
        for l in range(l_max + 1):
            row[l] += term
            term = term * (j - l) // (l + 1)
    return row


def _fleck_residues(n: int, m: int, l: int) -> list[int]:
    """[fleck_sum_general(n, r0, m, l) for r0 in 0..min(n, m - 1)] in one pass over k, unmemoized;
    a larger residue has no term k <= n.

    Each k adds (-1)^k binom(n, k) binom(k // m, l) to the sum of its residue
    k % m. The k below l m are skipped: binom(j, l) = 0 for 0 <= j < l.
    """
    row = [0] * min(n + 1, m)
    for k in range(l * m, n + 1):
        c = comb(n, k) * comb(k // m, l)
        row[k % m] += -c if k & 1 else c
    return row


def _divide(raw: int, exponent: int, p: int, a: int, n: int, r: int, l: int) -> int:
    """raw / p^exponent, the normalized value of the sum raw of (p, a, n, r, l).

    When exponent >= 0 the integrality theorem makes the division exact, and a
    remainder raises IntegrityError as a bug trap; when it is negative, raw is
    scaled up by p^(-exponent). Every normalized value, direct or filled, comes from here.
    """
    if exponent < 0:
        return raw * p ** (-exponent)
    normalized, rem = divmod(raw, p ** exponent)
    if rem:
        raise IntegrityError(
            f"p^{exponent} does not divide the sum {raw} "
            f"(p={p}, a={a}, n={n}, r={r}, l={l})"
        )
    return normalized


def normalized_parts(p: int, a: int, n: int, r: int, l: int) -> tuple[int, int, int]:
    """(raw_sum, exponent, normalized) for one coefficient, the sum computed directly.

    exponent = floor_exponent(p, a, n, l); normalized is raw divided by
    p^exponent through the bug trap of _divide.
    """
    _require_prime_power(p, a)
    raw = _direct_fleck_sum(n, r, p ** a, l)
    exponent = floor_exponent(p, a, n, l)
    return raw, exponent, _divide(raw, exponent, p, a, n, r, l)


@lru_cache(maxsize=None)
def normalized_table(p: int, a: int, l: int) -> dict:
    """The memo of normalized coefficients <n r>_{l,p^a} for one (p, a, l): a
    dict mapping r to (r, row, r % p^a, _shift(r // p^a, l)), where row[n] is
    the value at n, or None where none was asked for. normalized fills it from
    the record _sums[p, a, l]; every value in it went through _divide's trap.
    """
    _require_prime_power(p, a)
    if l < 0:
        raise ValueError(f"l must be >= 0, got {l}")
    return {}


# psi_sides asks for the same few (k, l) at every n of a block; bounded, since nothing clears it
@lru_cache(maxsize=128)
def _shift(k: int, l: int) -> tuple[int, ...]:
    """(binom(-k, i) for i = 1..l), cut before the first zero, so a residue
    itself (k = 0) gets the empty tuple.

    By Vandermonde, S(n, r0 + k m, m, l) = S(n, r0, m, l) + sum_i binom(-k, i)
    S(n, r0, m, l - i): every representative of a class comes from its residue.
    """
    coeffs = []
    c = 1
    for i in range(l):
        c = c * (-k - i) // (i + 1)
        if not c:
            break
        coeffs.append(c)
    return tuple(coeffs)


def _step(raw: list[list[int]], m: int) -> list[list[int]]:
    """The raw sums of a record at n + 1 from those at n, by Pascal's rule:
    S(n+1, r0) = S(n, r0) - S(n, r0 - 1) at every level l', where
    S(n, -1, m, l') = S(n, m-1, m, l') + S(n, m-1, m, l'-1) closes the row at r0 = 0.

    While a level holds fewer than m residues, S(n, m-1) has no term, so the
    boundary term is 0, and the level grows by S(n+1, n+1) = -S(n, n).
    """
    stepped = []
    below = 0  # S(n, m-1, m, l'-1); there is no level below l' = 0
    for level in raw:
        full = len(level) == m
        last = level[-1] if full else 0
        step = [level[0] - last - below, *map(sub, level[1:], level[:-1])]
        if not full:
            step.append(-level[-1])
        stepped.append(step)
        below = last
    return stepped


def _fill(p: int, a: int, n: int, l: int, raw: list[list[int]], targets) -> list[tuple[list, int]]:
    """[(row, value)] for each target (r, row, r0, shift) of a record: the
    normalized value at n, read from raw, the record's sums at n.

    Stores nothing; every value has passed _divide's trap when it returns.
    """
    exponent = floor_exponent(p, a, n, l)
    level = raw[l]
    values = []
    # the read of _class_sums at one level, inline: a call per filled value costs the catalog ~3%
    for r, row, r0, shift in targets:
        total = 0  # the empty sum of a residue r0 > n
        if r0 < len(level):
            total = level[r0]
            for i, c in enumerate(shift, 1):
                total += c * raw[l - i][r0]
        values.append((row, _divide(total, exponent, p, a, n, r, l)))
    return values


def _class_sums(raw: list[list[int]], r0: int, shift: tuple[int, ...]) -> list[int]:
    """[S(n, r0 + k m, m, l) for every level l of raw], read from raw, a
    record's sums at n, with shift = _shift(k, top level): each level's
    residue sum plus the Vandermonde terms of the levels below it, as _fill
    reads one level. A residue r0 > n has the empty sum at every level.
    """
    if r0 >= len(raw[0]):
        return [0] * len(raw)
    column = [level[r0] for level in raw]
    sums = []
    for l, total in enumerate(column):
        for i, c in enumerate(shift[:l], 1):
            total += c * column[l - i]
        sums.append(total)
    return sums


# (p, a, l) -> (n, raw): raw[l'][r0] is the raw sum S(n, r0, p^a, l') for every
# l' <= l and every residue r0 <= min(n, p^a - 1); a larger residue has no term
# k <= n. The one store of stepped sums: normalized, psi-identity and thm1.0 read it
# through _raw_at. Each sweep block empties it first, as clear_caches does, so a block steps
# its records from n = 0 wherever it runs, thm1.0's only as far as a positive bound needs.
_sums: dict[tuple[int, int, int], tuple[int, list[list[int]]]] = {}


def _raw_at(p: int, a: int, n: int, l: int) -> list[list[int]] | None:
    """The raw sums of levels 0..l at n of the record _sums[p, a, l], or None
    when n is neither the record's n nor one past it, where a caller sums
    directly. A record starts at n = 0, where S(0, 0, m, l') = binom(0, l'),
    and moves only by one _step.
    """
    at, raw = _sums.get((p, a, l)) or (0, [[1], *([0] for _ in range(l))])
    if n == at + 1:
        at, raw = n, _step(raw, p ** a)
    elif n != at:
        return None
    _sums[p, a, l] = at, raw
    return raw


def normalized(p: int, a: int, n: int, r: int, l: int) -> int:
    """The normalized coefficient <n r>_{l,p^a}, memoized in normalized_table(p, a, l).

    A miss reads the record _sums[p, a, l] through _raw_at: at the record's n,
    _fill reads r's value; one past it, the record steps and _fill writes the
    value at n + 1 into every row the table holds, plus r's; anywhere else,
    behind the record or more than one step ahead, normalized_parts sums it
    directly. The values are stored and r's row is registered only after
    every value passed the trap, though the record may have stepped before.
    """
    rows = normalized_table(p, a, l)
    target = rows.get(r)
    # a negative n never indexes a row: normalized_parts refuses it below
    if target is not None and 0 <= n < len(target[1]):
        value = target[1][n]
        if value is not None:
            return value
    if target is None:
        m = p ** a
        target = r, [], r % m, _shift(r // m, l)
    at = _sums.get((p, a, l), (0,))[0]
    raw = _raw_at(p, a, n, l)
    if raw is None:
        writes = [(target[1], normalized_parts(p, a, n, r, l)[2])]
    else:
        writes = _fill(p, a, n, l, raw, [target] if n == at else {**rows, r: target}.values())
    for row, value in writes:
        row.extend([None] * (n + 1 - len(row)))  # empty when n is already inside the row
        row[n] = value
    rows[r] = target
    return target[1][n]


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
    pa, base = p ** a, p ** (a - 1)
    phi = totient_prime_power(p, a)
    threshold = (n - (l + 1) * base) % phi
    acc = 0
    for j in range(n):
        if (j - base) % phi >= threshold:
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
    included, and for every integer r. Returns (left, right). Every sum is
    read from a line: S(j,r,0) and both sums at n from those of slope 0, and
    S(n-j-1, r-j+m-1, l-1) = S(i, r+m-n+i, l-1), i = n-j-1, from the line of
    slope 1 that starts at r + m - n, read backwards.
    """
    if n < 1 or l < 1 or m < 1:
        raise ValueError(f"need n, l, m >= 1, got n={n}, l={l}, m={m}")
    column = _line(m, 0, r, 0, n + 1)
    left = _line(m, l, r, 0, n + 1)[n] - binom((n - r) // m, l) * column[n]
    diagonal = _line(m, l - 1, r + m - n, 1, n)
    right = -sum(map(mul, map(mul, map(comb, repeat(n), range(n)), column), diagonal[n - 1::-1]))
    return left, right


def _factorization_j_max(d: int, q: int, n: int, t: int, l: int) -> int:
    """The last j whose first factor S_d(n,t,j) can be nonzero, -1 for an empty
    j-sum; refuses arguments outside the statement of the identity."""
    if d < 1 or q < 1:
        raise ValueError(f"moduli must be positive, got d={d}, q={q}")
    if n < 0 or l < 0:
        raise ValueError(f"need n, l >= 0, got n={n}, l={l}")
    if t >= d:
        raise ValueError(f"need t < d, got t={t}, d={d}")
    # the last contributing k is the largest k <= n with k = t (mod d)
    return (n - t) // d if t % d <= n else -1


def _truncation_error(j_max: int, d: int, q: int, n: int, r: int, t: int, l: int) -> IntegrityError:
    return IntegrityError(
        f"the j-sum does not end at j = {j_max} (d={d}, q={q}, n={n}, r={r}, t={t}, l={l})"
    )


# The signed rows of factorization_sides by (d, n, t); clear_caches empties them.
_signed_rows: dict[tuple[int, int, int], list[int]] = {}


def factorization_sides(d: int, q: int, n: int, r: int, t: int, l: int) -> tuple[int, int]:
    """Both sides of the exact convolution collapsing moduli d and q into dq, for t < d:
    lhs = sum_j (-1)^j S_d(n,t,j) S_q(j,r,l) as a dot product, rhs = S_dq(n, dr+t, l).

    The row (-1)^j S_d(n,t,j) for j <= j_max depends only on (d, n, t) and
    comes from one _fleck_row pass, whose extra entry at j_max + 1 is the
    truncation trap. The column S_q(j,r,l) is the line (q, l, r, 0), grown in
    place to the longest row it meets. The rhs is the direct sum, so the
    two sides share no memo. The arguments are validated on a row miss; on a
    hit (d, n, t) already were, and the rhs, computed first, refuses q < 1 and
    l < 0 before a column is made.
    """
    row = _signed_rows.get((d, n, t))
    if row is None:
        j_max = _factorization_j_max(d, q, n, t, l)
        *head, last = _fleck_row(n, t, d, j_max + 1)
        if last:
            raise _truncation_error(j_max, d, q, n, r, t, l)
        row = _signed_rows[d, n, t] = [-v if j & 1 else v for j, v in enumerate(head)]
    rhs = _direct_fleck_sum(n, d * r + t, d * q, l)
    column = _lines.get((q, l, r, 0))
    if column is None or len(column) < len(row):
        column = _line(q, l, r, 0, len(row))
    return sum(map(mul, row, column)), rhs


def clear_caches() -> None:
    """Drop the memoized Fleck sums, normalized rows, raw-sum records, lines and
    lem3.1 rows; sweeps call this when the grid changes, to bound memory by what
    one grid needs."""
    fleck_sum_general.cache_clear()
    normalized_table.cache_clear()
    _sums.clear()
    _signed_rows.clear()
    _lines.clear()
