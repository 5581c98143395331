"""Sweep engine: expands parameter grids and mechanically checks every
congruence in the catalog, producing machine-readable reports.

Each check in CHECKS is declared as named axes plus an evaluator. An axis is
a parameter name, the grid fields it reads and the values it takes; a filter
such as a >= 2 or n = l (mod p-1) lives on the axis it tests. A block axis
(one that binds a block, below) reads no axis, an inner one only block axes, so
_expander yields a block's rows, each one value per axis but the innermost plus
that axis' values, (*outer, values), from one itertools.product over the inner
axes; thm1.2, whose valid tuples depend on its digits and its row together,
filters each row's t values, and thm1.0 expands no row past n = 1 whose bound
says nothing, though its blocks count every tuple of its axes as checked. The
evaluator is called as evaluate(*outer, values), its parameters named after the
axes: it does the work the row's tuples share once and returns (value,
(expected, actual)) for each failing value, mostly decided from both sides by
_mod_p (integers mod p), _congruent (p-integral rationals mod p), _exact or
_ord_at_least. A report's params dict, keys in axis order, is built only for
a tuple it keeps. Evaluators look coefficient functions up in this module at
call time, never binding them earlier, so a tracer that rebinds those names
sees every call. Memos that grow from each other by Pascal's rule agree
under a wrong direct sum, so lem2.2's index_reduction_identity checks the last
value of each diagonal it stores first against a direct sum, as a bug trap.

Every evaluation is a pure function of its parameters, so a sweep splits
into blocks, its unit of work in any process. A block is one
binding of the axes before n (before m where n is a function of m), and at
least of the outermost axis, so one process evaluates every n of a block, in
order. The memos that step along n or repeat at every n of a block (the
raw-sum records per (p, a, l) that normalized, thm1.0 and psi-identity read,
psi images per (p, a, l_max) and the operator constants per (p^a, r, l_max))
live for one block, which empties them first. Every sweep deals its blocks
largest first by the tuples they count into one share per process, and
concatenating their rows in expansion order gives the report.
"""

import multiprocessing
from collections import Counter
from collections.abc import Callable, Collection, Iterable, Iterator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import wraps
from itertools import chain, product
from math import comb, prod
from time import perf_counter

from . import coefficients
from .coefficients import (
    IntegrityError,
    _class_row,
    _direct_fleck_sum,
    _fleck_residues,
    _raw_at,
    _shift,
    _sums,
    factorization_sides,
    floor_exponent,
    index_reduction_identity,
    normalized,
    recurrence_residue,
    t_coeff,
    totient_prime_power,
)
from .exactmath import NotPIntegralError, _require_prime, binom, congruent_mod_p_power, ord_p
from .psi_series import _images, _twists, monomial_twisted


def delta_for(p: int) -> int:
    """Valuation-gain constant: 0 for p = 2, 1 for p = 3, 2 for p >= 5."""
    _require_prime(p)
    if p == 2:
        return 0
    if p == 3:
        return 1
    return 2


def residue_system(p: int, a: int) -> tuple[int, ...]:
    """0 .. p^a - 1 plus two negative representatives, so r < 0 paths stay exercised."""
    pa = p ** a
    extras = (-1,) if pa == 2 else (-1, 1 - pa)
    return tuple(range(pa)) + extras


def _refuse_repeats(name: str, values: Iterable[int]) -> None:
    """Refuse a list of values that repeats one, which would check or print a tuple twice."""
    if repeated := sorted(v for v, k in Counter(values).items() if k > 1):
        raise ValueError(f"{name} has repeated values: {', '.join(map(str, repeated))}")


_RANGE_FLOORS = {
    "a_range": 1,
    "n_range": 0,
    "l_range": 0,
    "m_range": 1,
    "d_range": 1,
    "q_range": 1,
}


@dataclass(frozen=True)
class SweepGrid:
    """Parameter grid for a sweep. Ranges are inclusive (lo, hi) pairs.

    r_values = None means a full residue system per (p, a), including the
    negative representatives; s_values / t_values = None mean all digits
    0..p-1 and are filtered below p per prime at expansion time. Each check
    reads only some fields, those its axes name. primes and the explicit value
    lists may not repeat a value, which would check a tuple twice.
    """

    primes: tuple[int, ...] = (2, 3, 5)
    a_range: tuple[int, int] = (1, 2)
    n_range: tuple[int, int] = (0, 40)
    l_range: tuple[int, int] = (0, 3)
    r_values: tuple[int, ...] | None = None
    s_values: tuple[int, ...] | None = None
    t_values: tuple[int, ...] | None = None
    m_range: tuple[int, int] = (1, 6)
    d_range: tuple[int, int] = (1, 9)
    q_range: tuple[int, int] = (1, 9)
    abs_r_max: int = 10
    coeff_degree: int = 4

    def __post_init__(self):
        if not self.primes:
            raise ValueError("primes must be nonempty")
        for p in self.primes:
            _require_prime(p)
        for name, floor in _RANGE_FLOORS.items():
            lo, hi = getattr(self, name)
            if lo > hi:
                raise ValueError(f"{name} is empty: {lo} > {hi}")
            if lo < floor:
                raise ValueError(f"{name} must start at {floor} or above, got {lo}")
        if self.r_values is not None and not self.r_values:
            raise ValueError("r_values must be nonempty when given")
        for name in ("primes", "r_values", "s_values", "t_values"):
            _refuse_repeats(name, getattr(self, name) or ())
        if self.abs_r_max < 0:
            raise ValueError("abs_r_max must be >= 0")
        if self.coeff_degree < 0:
            raise ValueError("coeff_degree must be >= 0")

    def residues(self, p: int, a: int) -> tuple[int, ...]:
        if self.r_values is not None:
            return self.r_values
        return residue_system(p, a)

    def free_r(self, span: int) -> tuple[int, ...]:
        if self.r_values is not None:
            return self.r_values
        return tuple(range(-span, span + 1))

    def digits(self, p: int, custom: tuple[int, ...] | None) -> tuple[int, ...]:
        if custom is None:
            return tuple(range(p))
        return tuple(v for v in custom if 0 <= v < p)


@dataclass(frozen=True)
class CheckFailure:
    params: dict
    expected: str
    actual: str


@dataclass
class VerificationReport:
    theorem: str
    checked: int
    failures: list[CheckFailure]
    elapsed_ms: int
    extra: dict = field(default_factory=dict)

    @property
    def verdict(self) -> str:
        return "pass" if not self.failures else "fail"

    def to_json_dict(self) -> dict:
        doc = {
            "theorem": self.theorem,
            "checked": self.checked,
            "failures": [
                {"params": f.params, "expected": f.expected, "actual": f.actual}
                for f in self.failures
            ],
            "elapsed_ms": self.elapsed_ms,
            "verdict": self.verdict,
        }
        doc.update(self.extra)
        return doc


def _sign(k: int) -> int:
    """(-1)^k."""
    return -1 if k & 1 else 1


def _mod_p(lhs: int, rhs: int, p: int) -> tuple[str, str] | None:
    """None when the integers lhs and rhs agree mod p, else (rhs, lhs) as residues mod p."""
    if (lhs - rhs) % p == 0:
        return None
    return f"{rhs % p} (mod {p})", f"{lhs % p} (mod {p})"


def _congruent(lhs, rhs, p: int) -> tuple[str, str] | None:
    """None when the p-integral rationals lhs and rhs agree mod p, else (rhs, lhs)
    as written, each labelled mod p. A side that is not p-integral raises
    NotPIntegralError."""
    if congruent_mod_p_power(lhs, rhs, p, 1):
        return None
    return f"{rhs} (mod {p})", f"{lhs} (mod {p})"


def _exact(lhs, rhs) -> tuple[str, str] | None:
    """None when the two sides of an exact identity agree, else (rhs, lhs) as text."""
    return None if lhs == rhs else (str(rhs), str(lhs))


def _ord_at_least(value: int, bound: int, p: int) -> tuple[str, str] | None:
    """None when ord_p of the integer value reaches bound >= 0, that is when
    p^bound divides it, else both valuations as text. A zero bound holds at
    once: p^0 = 1 divides every integer."""
    if not bound or value % p ** bound == 0:
        return None
    return f"ord_{p} >= {bound}", f"ord_{p} = {ord_p(value, p)}"


def _rowwise(outcomes: Callable[..., Iterable]) -> Callable[..., list]:
    """The row evaluator of outcomes(*outer, values), which does the values' shared work once and gives
    each value's outcome in turn (None where it holds), or nothing when all hold. A bug trap fails the
    value whose outcome was due, and the values after it are evaluated as a row of their own, so a trap
    in shared work fails each tuple of the row with its own text, as one-value rows would."""
    @wraps(outcomes)
    def evaluate(*row):
        found, rest = [], ()
        try:
            for outcome in outcomes(*row):
                found.append(outcome)
        except (IntegrityError, NotPIntegralError) as err:
            found.append((f"no {type(err).__name__}", str(err)))
            rest = row[-1][len(found):]
        if found.count(None) == len(found):
            return []
        failures = [(value, outcome) for value, outcome in zip(row[-1], found) if outcome is not None]
        return failures + evaluate(*row[:-1], rest) if rest else failures

    return evaluate


# Axes: (name, fields, values), where values(grid, bound) gives the values of the axis' parameter as a
# collection, reading of grid exactly the SweepGrid fields named in fields, and bound maps names of outer
# axes to their values. A block axis (one before n, or before m, per _block_depth) reads no axis, and an
# inner axis reads only block axes: an axis that reads more raises KeyError.

Axis = tuple[str, tuple[str, ...], Callable[[SweepGrid, dict], Collection]]


def _names(axes: tuple[Axis, ...]) -> tuple[str, ...]:
    return tuple(name for name, _, _ in axes)


def _block_depth(axes: tuple[Axis, ...]) -> int:
    """How many leading axes bind a block: those before n, or before m where n is a
    function of m, and at least the outermost one."""
    return max(1, next(k for k, name in enumerate(_names(axes)) if name in ("n", "m")))


def _expander(*axes: Axis) -> tuple[Callable[..., Iterator[tuple]], Callable]:
    """(expand, blocks) over the rows of axes in the order of nested loops, each one value per axis
    but the innermost, whose values it holds as one sequence. expand(grid, block) yields those of one
    block binding, by itertools.product over the inner axes, and expand(grid) those of every block;
    blocks(grid) gives (binding, tuple count) of every block, with no row built."""
    depth = _block_depth(axes)
    outer, inner = _names(axes[:depth]), axes[depth:]

    def bindings(grid: SweepGrid) -> Iterator[tuple]:
        return product(*(values(grid, {}) for _, _, values in axes[:depth]))

    def columns(grid: SweepGrid, block: tuple) -> list[Collection]:
        bound = dict(zip(outer, block))
        return [values(grid, bound) for _, _, values in inner]

    def expand(grid: SweepGrid, block: tuple | None = None) -> Iterator[tuple]:
        if block is None:
            return chain.from_iterable(expand(grid, block) for block in bindings(grid))
        *middle, last = columns(grid, block)
        return product(*zip(block), *middle, (last,)) if last else iter(())

    def blocks(grid: SweepGrid) -> list[tuple[tuple, int]]:
        return [(block, prod(map(len, columns(grid, block)))) for block in bindings(grid)]

    return expand, blocks


def _span(name: str) -> Axis:
    """name over the grid's inclusive range, the field <name>_range."""
    field = f"{name}_range"

    def values(grid: SweepGrid, bound: dict) -> range:
        first, last = getattr(grid, field)
        return range(first, last + 1)

    return name, (field,), values


def _where(axis: Axis, keep: Callable[[int, dict], bool]) -> Axis:
    """axis restricted to the values v for which keep(v, bound) holds."""
    name, fields, values = axis
    return name, fields, lambda grid, bound: [v for v in values(grid, bound) if keep(v, bound)]


def _residues_at(depth: int) -> Axis:
    """r over the residue system mod p^depth, for checks stated at one depth."""
    return "r", ("r_values",), lambda grid, bound: grid.residues(bound["p"], depth)


_P = ("p", ("primes",), lambda grid, bound: grid.primes)
_A, _L, _N, _M = _span("a"), _span("l"), _span("n"), _span("m")
_R = ("r", ("r_values",), lambda grid, bound: grid.residues(bound["p"], bound["a"]))
_S = ("s", ("s_values",), lambda grid, bound: grid.digits(bound["p"], grid.s_values))
_T = ("t", ("t_values",), lambda grid, bound: grid.digits(bound["p"], grid.t_values))
_L_POSITIVE = _where(_L, lambda l, bound: l >= 1)
_N_POSITIVE = _where(_N, lambda n, bound: n >= 1)


# thm1.0: ord_p of every Fleck sum reaches the floor exponent, tested a row (p, a, l, n) of classes r
# at a time. A bound <= 0 says nothing (p^0 divides every sum), so such a row past n = 1 is never
# expanded, though its block counts it, and a direct call reads no sum; at n <= 1 (always a bound <= 0)
# the row starts the record _sums[p, a, l], as a block from n = 0 or 1 does. A positive bound first
# steps a record lagging behind n - 1 over the (vacuous) rows it skipped, then reads the residue row
# of the record at n, or off it one _fleck_residues pass. Any other r is read from the record as
# _fill reads one level (level l of r % p^a plus Vandermonde terms), or summed off it.

def _eval_thm1_0(p, a, l, n, rs):
    bound = floor_exponent(p, a, n, l)
    if bound <= 0:
        if n <= 1:
            _raw_at(p, a, n, l)
        return
    for k in range(_sums.get((p, a, l), (n,))[0] + 1, n):
        _raw_at(p, a, k, l)
    m = p ** a
    raw = _raw_at(p, a, n, l)
    row = _fleck_residues(n, m, l) if raw is None else raw[l]
    for r in rs:
        r0 = r % m
        if r0 > n:
            total = 0  # a residue past n has no term k <= n
        elif r == r0:
            total = row[r]
        elif raw is None:
            total = _direct_fleck_sum(n, r, m, l)
        else:
            total = row[r0]
            for i, c in enumerate(_shift(r // m, l), 1):
                total += c * raw[l - i][r0]
        yield _ord_at_least(total, bound, p)


_THM1_0_AXES = (_P, _A, _L, _N, _R)
_expand_thm1_0, _ = _expander(_P, _A, _L, _where(
    _N, lambda n, bound: n <= 1 or floor_exponent(bound["p"], bound["a"], n, bound["l"]) > 0), _R)
_, _blocks_thm1_0 = _expander(*_THM1_0_AXES)


# thm1.1 and lem3.2: <pn+s, pr+t> at depth a+1 against (-1)^t binom(s,t) <n,r> at depth a, mod p.
# thm1.1 (a >= 2) asserts the plain congruence on every row; lem3.2 (every depth) adds the stated
# correction term on the rows _lem3_2_exceptional picks out, so its classification is total. A row
# of digits t reads <n,r> (and the correction's <n-1,r>) once, before any t.

def _lem3_2_exceptional(p: int, a: int, l: int, n: int, s: int) -> bool:
    phi = totient_prime_power(p, a)
    return n > 0 and s != p - 1 and (n - (l + 1) * p ** (a - 1)) % phi == 0


def _lucas_check(corrected: bool) -> Callable[..., Iterator]:
    def evaluate(p, a, l, n, r, s, ts):
        base = normalized(p, a, n, r, l)
        exceptional = corrected and _lem3_2_exceptional(p, a, l, n, s)
        below = _sign(n - 1) * normalized(p, a, n - 1, r, l) if exceptional else None
        for t in ts:
            lhs = normalized(p, a + 1, p * n + s, p * r + t, l)
            rhs = _sign(t) * comb(s, t) * base
            if below is not None:
                rhs += below * normalized(p, 1, p * n + s, t, n - 1)
            yield _mod_p(lhs, rhs, p)

    return evaluate


_eval_thm1_1 = _lucas_check(corrected=False)
_eval_lem3_2 = _lucas_check(corrected=True)


# thm1.2: the depth-1 analogue. Branch 1 is thm1.1 at a = 1; branch 2 is the explicit rational value
# on digits s < t. Tuples in neither branch are outside the statement and are not expanded
# (counterexamples exist there); evaluating one is a caller's error. The branch reads s, t and n
# together, so thm1.2 keeps the t of a row in a branch (a row of none is dropped), and sizes its blocks
# by the tuples kept, counted apart from Check.expand, which a tracer wraps to count evaluations.

def _thm1_2_branch(p: int, l: int, n: int, s: int, t: int) -> int:
    if n % p == 0 or (n - l - 1) % (p - 1) != 0 or s == p - 1 or (s == 2 * t and p != 2):
        return 1
    if s < t:
        return 2
    return 0


_THM1_2_AXES = (_P, _L, _N, _residues_at(1), _S, _T)
_expand_thm1_2_axes, _blocks_thm1_2_axes = _expander(*_THM1_2_AXES)


def _expand_thm1_2(grid: SweepGrid, block: tuple | None = None) -> Iterator[tuple]:
    for p, l, n, r, s, ts in _expand_thm1_2_axes(grid, block):
        if kept := [t for t in ts if _thm1_2_branch(p, l, n, s, t)]:
            yield p, l, n, r, s, kept


def _blocks_thm1_2(grid: SweepGrid) -> list[tuple[tuple, int]]:
    return [(block, sum(len(row[-1]) for row in _expand_thm1_2(grid, block)))
            for block, _ in _blocks_thm1_2_axes(grid)]


def _eval_thm1_2(p, l, n, r, s, ts):
    plain = _eval_thm1_1(p, 1, l, n, r, s, [t for t in ts if _thm1_2_branch(p, l, n, s, t) == 1])
    for t in ts:
        branch = _thm1_2_branch(p, l, n, s, t)
        if branch == 1:
            yield next(plain)
        elif branch == 2:
            lhs, u = normalized(p, 2, p * n + s, p * r + t, l), (n - l - 1) // (p - 1)
            yield (_mod_p(lhs, 0, p) if n <= l + 1
                   else _congruent(lhs, Fraction(_sign(s + u) * n * binom(u - 1, l), t * binom(t - 1, s)), p))
        else:
            raise ValueError(f"no branch of thm1.2 covers p={p}, l={l}, n={n}, r={r}, s={s}, t={t}")


# cor1.3: Lucas-type congruence for the factorial-normalized rationals;
# _congruent traps a side that is not p-integral.

def _eval_cor1_3(p, l, n, rs):
    for r in rs:
        lhs = t_coeff(p, 2, n, r, l)
        yield _congruent(lhs, _sign(r % p) * binom(n % p, r % p) * t_coeff(p, 1, n // p, r // p, l), p)


# thm1.4: valuation of <pn,pr> - <n,r> is at least ceil((p-1)/p (2 ord_p(n) + delta)).

def _eval_thm1_4(p, a, l, n, rs):
    numerator = (p - 1) * (2 * ord_p(n, p) + delta_for(p))
    bound = -(-numerator // p)
    for r in rs:
        yield _ord_at_least(normalized(p, a + 1, p * n, p * r, l) - normalized(p, a, n, r, l), bound, p)


# thm1.5: on rows n = (l+1) p^(a-1) - 1 + m phi(p^a) the residue mod p is
# (-1)^(m-1) binom(m-1, l) for every class r. self-test is the same
# evaluation with the expected residue negated, on a fixed p = 3 grid (a
# sign flip is invisible mod 2): a healthy harness reports verdict "fail".

_SELF_TEST_GRID = SweepGrid(primes=(3,), a_range=(1, 1), l_range=(0, 0), m_range=(1, 4))


def _boundary_residue(m: int, l: int) -> int:
    """(-1)^(m-1) binom(m-1, l), unreduced."""
    return _sign(m - 1) * binom(m - 1, l)


def _boundary_check(sign: int) -> Callable[..., Iterator]:
    def evaluate(p, a, l, m, rs):
        n = (l + 1) * p ** (a - 1) - 1 + m * totient_prime_power(p, a)
        expected = sign * _boundary_residue(m, l)
        for r in rs:
            yield _mod_p(normalized(p, a, n, r, l), expected, p)

    return evaluate


# lem2.2: exact order-lowering identity over any modulus m >= 1. Here, in
# lem3.1 and in psi-identity the axis names are the parameters, in order, of
# the function that computes both sides.

def _eval_lem2_2(n, r, l, ms):
    for m in ms:
        yield _exact(*index_reduction_identity(n, r, l, m))


# lem3.1: exact convolution collapsing moduli d and q into dq, t < d.

def _lem3_1_t(grid: SweepGrid, bound: dict) -> Iterable[int]:
    """t over -2..2 and d - 1, each below d, in increasing order."""
    d = bound["d"]
    low = range(-2, min(d, 3))
    return (*low, d - 1) if d > 3 else low


_LEM3_1_T = ("t", (), _lem3_1_t)


def _eval_lem3_1(d, q, n, r, t, ls):
    lhs, rhs = factorization_sides(d, q, n, r, t, ls)
    return () if lhs == rhs else map(_exact, lhs, rhs)


# lem3.3: explicit value of the correction coefficient <pn+s, t> at order n-1,
# plus the independent divisibility by p of the auxiliary sigma's numerator (sigma may be 0).

def _sigma(p: int, n: int, s: int, t: int) -> Fraction:
    num = 1
    for i in range(1, p + 1):
        if i != p - t:
            num *= p * (n - 1) + t + i
    den = 1
    for i in range(1, p + 1):
        if i != p - (s - t):
            den *= s - t + i
    ratio = Fraction(num, den)
    return 1 + (ratio if p == 2 else -ratio)


def _eval_lem3_3(p, n, s, ts):
    for t in ts:
        value = normalized(p, 1, p * n + s, t, n - 1)
        if s < t:
            yield _congruent(value, Fraction(_sign(n + s) * n, t * binom(t - 1, s)), p)
            continue
        sigma = _sigma(p, n, s, t)
        yield ((f"ord_{p}(sigma) >= 1", f"sigma = {sigma}") if sigma.numerator % p
               else _congruent(value, _sign(n + t) * n * binom(s, t) * sigma / p, p))


# lem4.1: depth-1 residues along rows with n = l (mod p-1); beyond n = l the
# row is the m-th boundary row of thm1.5 at a = 1, m = (n-l)/(p-1).

_LEM4_1_N = _where(_N, lambda n, bound: (n - bound["l"]) % (bound["p"] - 1) == 0)


def _eval_lem4_1(p, l, n, rs):
    expected = 0 if n <= l else _boundary_residue((n - l) // (p - 1), l)
    for r in rs:
        yield _mod_p(normalized(p, 1, n, r, l), expected, p)


# rem2.1: the order-lowering recurrence agrees with the coefficient mod p.

def _eval_rem2_1(p, a, l, n, rs):
    for r in rs:
        yield _mod_p(recurrence_residue(p, a, n, r, l), normalized(p, a, n, r, l), p)


# conj-perm: for qualifying n (p does not divide n, p-1 divides n-1, n != 1)
# and s = 0, the residues over t in (0, p-1] are r-independent and form a
# permutation of 1..p-1. One work unit per (p, n), whose row holds one value, the classes r.

_CONJ_PERM_N = _where(_N, lambda n, bound: n != 1 and n % bound["p"] and (n - 1) % (bound["p"] - 1) == 0)
_CONJ_PERM_R = ("r_values", ("r_values",), lambda grid, bound: [list(grid.residues(bound["p"], 2))])


def _eval_conj_perm(p, n, r_lists):
    (r_values,) = r_lists
    residues = []
    for t in range(1, p):
        seen = {normalized(p, 2, p * n, p * r + t, 0) % p for r in r_values}
        if len(seen) != 1:
            yield "one residue per t over all r", f"t={t} gave {sorted(seen)}"
            return
        residues.append(seen.pop())
    permutation = sorted(residues) == list(range(1, p))
    yield None if permutation else (f"a permutation of 1..{p - 1}", f"{residues} for t=1..{p - 1}")


# psi-identity: coefficients of psi^a(T^n (1+T)^(-r)) equal the sign-adjusted
# Fleck sums through degree coeff_degree. n is the axis after the block (p, a),
# so a sweep steps the record (p, a, coeff_degree) once per n.

def psi_sides(p: int, a: int, n: int, r: int, l_max: int) -> tuple[list[int], list[int]]:
    """(operator coefficients, sign-adjusted Fleck sums) of degrees 0..l_max.

    The operator side comes from monomial_twisted alone, never from the sums,
    so the two routes stay independent; _class_row reads the sums of r at
    every level from the raw-sum record (p, a, l_max), or sums them directly.
    """
    got = list(monomial_twisted(n, r, p, a, l_max).coeffs)
    want = _class_row(p, a, n, r, l_max)
    return got, [-v for v in want] if n & 1 else want


def _eval_psi_identity(p, a, n, r, l_maxes):
    for l_max in l_maxes:
        yield _exact(*psi_sides(p, a, n, r, l_max))


@dataclass(frozen=True)
class Check:
    """expand(grid, block=None) yields rows (*outer, values), one value per axis but the innermost,
    in axis order, and that axis' values as one sequence; evaluate(*outer, values) returns (value,
    outcome) for each value that fails. blocks(grid) gives (binding, tuples checked) of every block
    of grid, in expansion order; fields names every SweepGrid field that the axes read."""

    expand: Callable[..., Iterator[tuple]]
    evaluate: Callable[..., list]
    axes: tuple[Axis, ...]
    blocks: Callable[[SweepGrid], list[tuple[tuple, int]]]

    @property
    def names(self) -> tuple[str, ...]:
        return _names(self.axes)

    @property
    def fields(self) -> frozenset[str]:
        return frozenset(chain.from_iterable(fields for _, fields, _ in self.axes))


def _check(outcomes: Callable[..., Iterator], *axes: Axis) -> Check:
    """The check of outcomes (as _rowwise takes it) over the rows of axes, outermost first."""
    expand, blocks = _expander(*axes)
    return Check(expand, _rowwise(outcomes), axes, blocks)


_THM1_5_AXES = (_P, _A, _L, _M, _R)
# self-test reads _SELF_TEST_GRID whatever grid a sweep passes, in expansion and block plan alike
_SELF_TEST_AXES = tuple((name, (), lambda grid, bound, values=values: values(_SELF_TEST_GRID, bound))
                        for name, _, values in _THM1_5_AXES)

CHECKS: dict[str, Check] = {
    "thm1.0": Check(_expand_thm1_0, _rowwise(_eval_thm1_0), _THM1_0_AXES, _blocks_thm1_0),
    "thm1.1": _check(_eval_thm1_1, _P, _where(_A, lambda a, bound: a >= 2), _L, _N, _R, _S, _T),
    "thm1.2": Check(_expand_thm1_2, _rowwise(_eval_thm1_2), _THM1_2_AXES, _blocks_thm1_2),
    "cor1.3": _check(_eval_cor1_3, _P, _L, _N, _residues_at(2)),
    "thm1.4": _check(_eval_thm1_4, _P, _A, _L, _N_POSITIVE, _R),
    "thm1.5": _check(_boundary_check(1), *_THM1_5_AXES),
    "lem2.2": _check(_eval_lem2_2, _N_POSITIVE,
                     ("r", ("r_values", "abs_r_max"), lambda grid, bound: grid.free_r(grid.abs_r_max)),
                     _L_POSITIVE, _M),
    "lem3.1": _check(_eval_lem3_1, _span("d"), _span("q"), _N,
                     ("r", ("r_values",), lambda grid, bound: grid.free_r(2)), _LEM3_1_T, _L),
    "lem3.2": _check(_eval_lem3_2, _P, _A, _L, _N, _R, _S, _T),
    "lem3.3": _check(_eval_lem3_3, _P, _N_POSITIVE, _where(_S, lambda s, bound: s != bound["p"] - 1), _T),
    "lem4.1": _check(_eval_lem4_1, _P, _L, _LEM4_1_N, _residues_at(1)),
    "rem2.1": _check(_eval_rem2_1, _P, _A, _L_POSITIVE, _N_POSITIVE, _R),
    "conj-perm": _check(_eval_conj_perm, _P, _CONJ_PERM_N, _CONJ_PERM_R),
    "psi-identity": _check(_eval_psi_identity, _P, _A, _N, _R,
                           ("l_max", ("coeff_degree",), lambda grid, bound: (grid.coeff_degree,))),
    "self-test": _check(_boundary_check(-1), *_SELF_TEST_AXES),
}

CHECK_IDS: tuple[str, ...] = tuple(CHECKS)


def _check_of(target: str) -> Check:
    """The check of target, a check id or "rem1.2", as CHECKS and _expand_rem1_2 bind it now."""
    return CHECKS.get(target) or Check(_expand_rem1_2, _margin_rem1_2, _REM1_2_AXES, _blocks_rem1_2)


def _block(target: str, grid: SweepGrid, block: tuple) -> list:
    """[(params, outcome)] for each failing tuple of one block of target (a check
    id or "rem1.2"), one evaluate call per row its expand gives; a bug trap is
    a failure outcome (_rowwise). params maps the axis names to the tuple's
    values; only a kept tuple builds it. The stepping memos are emptied first,
    so a block does the same work anywhere. The evaluators are looked up on
    each call, so rebinding CHECKS entries, _expand_rem1_2 or _margin_rem1_2
    (as a tracer does) takes effect.
    """
    _sums.clear()
    _images.clear()
    _twists.clear()
    check = _check_of(target)
    evaluate, names = check.evaluate, check.names
    rows = []
    for row in check.expand(grid, block):
        for value, outcome in evaluate(*row):
            rows.append((dict(zip(names, (*row[:-1], value))), outcome))
    return rows


_last_grid: SweepGrid | None = None


class WorkerExited(RuntimeError):
    """A worker process of a sweep ended without sending its rows."""


def _run_share(send, target: str, grid: SweepGrid, share: list[tuple]) -> None:
    """Send the rows of each block of share, in turn, or the exception that stopped them."""
    try:
        send.send([_block(target, grid, block) for block in share])
    except Exception as err:
        send.send(err)


def _sweep(target: str, grid: SweepGrid, workers: int) -> tuple[int, list, int]:
    """(checked, rows in expansion order, elapsed_ms) over the nonempty blocks of
    target, dealt largest first by the tuples blocks() counts, thm1.0's pruned rows
    included (ties in expansion order), each to the share of fewest tuples so far,
    of min(workers, blocks) shares. This process runs share 0, and a worker process
    each other one, which sends back its rows or the exception it raised, raised
    here; a worker that ends without sending raises WorkerExited. The rows are put
    back in expansion order, and checked is the blocks' sizes summed.

    The coefficient memos are kept while sweeps run on the same grid, so
    checks on one grid share them, and cleared when the grid changes; _block
    empties the stepping memos. A grid that gives target no tuples raises
    ValueError before any evaluation, since a sweep that checked nothing
    proves nothing.
    """
    global _last_grid
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if grid != _last_grid:
        coefficients.clear_caches()
        _last_grid = grid
    start = perf_counter()
    blocks = [(block, size) for block, size in _check_of(target).blocks(grid) if size]
    if not blocks:
        raise ValueError(f"the grid gives {target} no tuples to check")
    shares, loads = [[] for _ in blocks[:workers]], [0] * min(workers, len(blocks))
    for k in sorted(range(len(blocks)), key=lambda k: -blocks[k][1]):
        least = loads.index(min(loads))
        shares[least].append(k)
        loads[least] += blocks[k][1]
    children = []
    try:
        for share in shares[1:]:
            receive, send = multiprocessing.Pipe(duplex=False)
            child = multiprocessing.Process(target=_run_share, args=(send, target, grid, [blocks[k][0] for k in share]))
            child.start()
            send.close()
            children.append((child, receive))
        parts = [[_block(target, grid, blocks[k][0]) for k in shares[0]]]
        for child, receive in children:
            try:
                parts.append(receive.recv())
            except EOFError:
                child.join()
                raise WorkerExited(f"a worker process exited with code {child.exitcode} before it sent its rows")
            if isinstance(parts[-1], Exception):
                raise parts[-1]
    finally:
        for child, receive in children:
            child.kill()
            child.join()
            receive.close()
    done = dict(zip(chain.from_iterable(shares), chain.from_iterable(parts)))
    rows = [row for k in sorted(done) for row in done[k]]
    return sum(size for _, size in blocks), rows, int((perf_counter() - start) * 1000)


def run_sweep(check_id: str, grid: SweepGrid | None = None, workers: int = 1) -> VerificationReport:
    """Expand the grid for one check, evaluate every tuple, and report.

    workers > 1 runs the check's blocks in up to that many processes, this one
    included; the report is identical apart from elapsed_ms. An unknown check
    id, and a grid that gives the check no tuples, raise ValueError; the CLI
    prints the text.
    """
    if check_id not in CHECKS:
        raise ValueError(f"unknown check id {check_id!r}; valid ids: {', '.join(CHECK_IDS)}")
    grid = grid if grid is not None else SweepGrid()
    checked, rows, elapsed_ms = _sweep(check_id, grid, workers)
    failures = [CheckFailure(params, *outcome) for params, outcome in rows]
    return VerificationReport(theorem=check_id, checked=checked, failures=failures, elapsed_ms=elapsed_ms)


# rem1.2 exploration: measures how much slack the p-power digit shift has
# over the conjectured strengthened exponent 2a - [p == 3]. Informational:
# margins are reported, never asserted, so only a bug trap makes it fail.

_REM1_2_AXES = (_where(_P, lambda p, bound: p != 2), _A, _L, _N_POSITIVE, _residues_at(1))
_expand_rem1_2, _blocks_rem1_2 = _expander(*_REM1_2_AXES)


@_rowwise
def _margin_rem1_2(p, a, l, n, rs):
    target = 2 * a - (1 if p == 3 else 0)
    for r in rs:
        diff = normalized(p, a + 1, p ** a * n, p * r, l) - normalized(p, a, p ** (a - 1) * n, r, l)
        observed = ord_p(diff, p) if diff else None
        yield None if observed is None else {"target": target, "observed": observed, "margin": observed - target}


def run_explore(grid: SweepGrid | None = None, workers: int = 1) -> VerificationReport:
    """Tabulate valuation margins for the strengthened-exponent conjecture.

    A tuple that hits a bug trap is a failure; a grid with no tuples raises ValueError.
    """
    grid = grid if grid is not None else SweepGrid()
    checked, rows, elapsed_ms = _sweep("rem1.2", grid, workers)
    # a bug trap's outcome is an (expected, actual) pair, not a margin; ties keep expansion order
    failures = [CheckFailure(params, *outcome) for params, outcome in rows if isinstance(outcome, tuple)]
    margins = sorted((row for row in rows if isinstance(row[1], dict)), key=lambda row: row[1]["margin"])
    extra = {
        "conjectured_exponent": "2a - [p == 3]",
        "min_margin": str(margins[0][1]["margin"]) if margins else "infinite",
        "infinite_margins": checked - len(rows),
        "worst": [{"params": params, **outcome} for params, outcome in margins[:10]],
    }
    return VerificationReport(
        theorem="rem1.2", checked=checked, failures=failures, elapsed_ms=elapsed_ms, extra=extra
    )
