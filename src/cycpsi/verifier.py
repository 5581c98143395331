"""Sweep engine: expands parameter grids and mechanically checks every
congruence in the catalog, producing machine-readable reports.

Each check in CHECKS is declared as named axes plus an evaluator. An axis
is a parameter name and the values it takes once the outer axes are bound;
a filter such as a >= 2 or n = l (mod p-1) lives on the axis it tests.
_expander turns the axes, outermost first, into the nested loops that yield
one parameter dict per tuple, keys in axis order. The evaluator is a plain
function of the axis names, called as evaluate(**params); it returns None
when the statement holds there, else an (expected, actual) pair. Evaluators
look coefficient functions up in this module at call time, never binding
them earlier, so a tracer that rebinds those names sees every call.

Every evaluation is a pure function of its parameters, so a sweep splits
into shards: shard k of w takes the tuples whose expansion index i has
i % w == k. One worker runs the single shard in process, w > 1 workers one
shard each in a pool; merging on i restores expansion order either way.
"""

import multiprocessing
from collections import Counter
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from time import perf_counter

from . import coefficients
from .coefficients import (
    _direct_fleck_sum,
    fleck_sum_general,
    floor_exponent,
    index_reduction_identity,
    modulus_factorization_identity,
    normalized,
    recurrence_residue,
    t_coeff,
    totient_prime_power,
)
from .exactmath import INFINITE, _require_prime, binom, congruent_mod_p_power, ord_p
from .psi_series import monomial_twisted


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
    0..p-1 and are filtered below p per prime at expansion time. m_range
    doubles as the multiplier range (thm1.5) and the modulus range (lem2.2);
    abs_r_max bounds |r| for the arbitrary-modulus identities and
    coeff_degree is the comparison depth for psi-identity. primes and the
    explicit value lists may not repeat a value, which would check a tuple twice.
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
            repeated = sorted(v for v, k in Counter(getattr(self, name) or ()).items() if k > 1)
            if repeated:
                raise ValueError(f"{name} has repeated values: {', '.join(map(str, repeated))}")
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


def _mod_p(holds: bool, expected, actual, p: int) -> tuple[str, str] | None:
    """None when the congruence holds, else both sides labelled mod p."""
    if holds:
        return None
    return f"{expected} (mod {p})", f"{actual} (mod {p})"


def _exact(lhs, rhs) -> tuple[str, str] | None:
    """None when the two sides of an exact identity agree, else (rhs, lhs) as text."""
    return None if lhs == rhs else (str(rhs), str(lhs))


def _ord_at_least(value, bound: int, p: int) -> tuple[str, str] | None:
    """None when ord_p(value) reaches bound, else both valuations as text."""
    v = ord_p(value, p)
    return None if v >= bound else (f"ord_{p} >= {bound}", f"ord_{p} = {v}")


# Axes: values(grid, bound) gives the values of the axis' parameter, where
# bound maps the names of the outer axes to their current values.

Axis = tuple[str, Callable[[SweepGrid, dict], Iterable]]


def _expander(*axes: Axis) -> Callable[[SweepGrid], Iterator[dict]]:
    """The nested loops over axes, outermost first, as an expand function.

    Every tuple is a fresh dict whose keys follow the order of the axes.
    """
    *outer, (name, values) = axes

    def expand(grid: SweepGrid) -> Iterator[dict]:
        for bound in _bind(grid, outer, {}):
            for value in values(grid, bound):
                params = bound.copy()
                params[name] = value
                yield params

    return expand


def _bind(grid: SweepGrid, axes: list[Axis], bound: dict) -> Iterator[dict]:
    """Bind each axis in turn and yield bound (one dict, updated in place) per combination.

    Keys enter bound on the first descent, outermost first, so their order is
    the axis order whichever values later replace them.
    """
    if not axes:
        yield bound
        return
    (name, values), rest = axes[0], axes[1:]
    for value in values(grid, bound):
        bound[name] = value
        yield from _bind(grid, rest, bound)


def _span(name: str) -> Axis:
    """name over the grid's inclusive range, the field <name>_range."""
    field = f"{name}_range"

    def values(grid: SweepGrid, bound: dict) -> range:
        first, last = getattr(grid, field)
        return range(first, last + 1)

    return name, values


def _where(axis: Axis, keep: Callable[[int, dict], bool]) -> Axis:
    """axis restricted to the values v for which keep(v, bound) holds."""
    name, values = axis
    return name, lambda grid, bound: [v for v in values(grid, bound) if keep(v, bound)]


def _residues_at(depth: int) -> Axis:
    """r over the residue system mod p^depth, for checks stated at one depth."""
    return "r", lambda grid, bound: grid.residues(bound["p"], depth)


_P = ("p", lambda grid, bound: grid.primes)
_A, _L, _N, _M = _span("a"), _span("l"), _span("n"), _span("m")
_R = ("r", lambda grid, bound: grid.residues(bound["p"], bound["a"]))
_S = ("s", lambda grid, bound: grid.digits(bound["p"], grid.s_values))
_T = ("t", lambda grid, bound: grid.digits(bound["p"], grid.t_values))
_L_POSITIVE = _where(_L, lambda l, bound: l >= 1)
_N_POSITIVE = _where(_N, lambda n, bound: n >= 1)


# thm1.0: ord_p of every Fleck sum reaches the floor exponent.

def _eval_thm1_0(p, a, l, n, r):
    raw = fleck_sum_general(n, r, p ** a, l)
    return _ord_at_least(raw, max(floor_exponent(p, a, n, l), 0), p)


# thm1.1 and lem3.2: <pn+s, pr+t> at depth a+1 against (-1)^t binom(s,t) <n,r>
# at depth a, mod p. thm1.1 (a >= 2) asserts the plain congruence on every
# row; lem3.2 (every depth) adds the stated correction term on the rows
# _lem3_2_exceptional picks out, so its classification is total.

def _lem3_2_exceptional(p: int, a: int, l: int, n: int, s: int) -> bool:
    phi = totient_prime_power(p, a)
    return n > 0 and s != p - 1 and (n - (l + 1) * p ** (a - 1)) % phi == 0


def _lucas_check(corrected: bool) -> Callable[..., tuple[str, str] | None]:
    def evaluate(p, a, l, n, r, s, t):
        lhs = normalized(p, a + 1, p * n + s, p * r + t, l)
        rhs = binom(s, t) * normalized(p, a, n, r, l)
        if t & 1:
            rhs = -rhs
        if corrected and _lem3_2_exceptional(p, a, l, n, s):
            correction = normalized(p, a, n - 1, r, l) * normalized(p, 1, p * n + s, t, n - 1)
            rhs += -correction if (n - 1) & 1 else correction
        if (lhs - rhs) % p == 0:
            return None
        return f"{rhs % p} (mod {p})", f"{lhs % p} (mod {p})"

    return evaluate


_eval_thm1_1 = _lucas_check(corrected=False)
_eval_lem3_2 = _lucas_check(corrected=True)


# thm1.2: the depth-1 analogue. Branch 1 is thm1.1 at a = 1; branch 2 is
# the explicit rational value on digits s < t. Tuples in neither branch are
# outside the statement and are not expanded (counterexamples exist there).

def _thm1_2_branch(p: int, l: int, n: int, s: int, t: int) -> int:
    if n % p == 0 or (n - l - 1) % (p - 1) != 0 or s == p - 1 or (s == 2 * t and p != 2):
        return 1
    if s < t:
        return 2
    return 0


_THM1_2_T = _where(
    _T, lambda t, bound: _thm1_2_branch(bound["p"], bound["l"], bound["n"], bound["s"], t)
)


def _eval_thm1_2(p, l, n, r, s, t):
    branch = _thm1_2_branch(p, l, n, s, t)
    if branch == 1:
        return _eval_thm1_1(p, 1, l, n, r, s, t)
    if branch == 2:
        lhs = normalized(p, 2, p * n + s, p * r + t, l)
        if n <= l + 1:
            return _mod_p(lhs % p == 0, 0, lhs % p, p)
        u = (n - l - 1) // (p - 1)
        sign = -1 if (s + u) & 1 else 1
        rhs = Fraction(sign * n * binom(u - 1, l), t * binom(t - 1, s))
        return _mod_p(congruent_mod_p_power(lhs, rhs, p, 1), rhs, lhs, p)
    return "a covered branch", "no branch matched"


# cor1.3: Lucas-type congruence for the factorial-normalized rationals,
# with p-integrality of both sides certified first.

def _eval_cor1_3(p, l, n, r):
    lhs = t_coeff(p, 2, n, r, l)
    rhs = binom(n % p, r % p) * t_coeff(p, 1, n // p, r // p, l)
    if (r % p) & 1:
        rhs = -rhs
    for side, value in (("lhs", lhs), ("rhs", rhs)):
        if ord_p(value, p) < 0:
            return f"{side} {p}-integral", f"{side} = {value}"
    return _mod_p(congruent_mod_p_power(lhs, rhs, p, 1), rhs, lhs, p)


# thm1.4: valuation of <pn,pr> - <n,r> is at least ceil((p-1)/p (2 ord_p(n) + delta)).

def _eval_thm1_4(p, a, l, n, r):
    diff = normalized(p, a + 1, p * n, p * r, l) - normalized(p, a, n, r, l)
    numerator = (p - 1) * (2 * ord_p(n, p) + delta_for(p))
    return _ord_at_least(diff, -(-numerator // p), p)


# thm1.5: on rows n = (l+1) p^(a-1) - 1 + m phi(p^a) the residue mod p is
# (-1)^(m-1) binom(m-1, l) for every class r. self-test is the same
# evaluation with the expected residue negated, on a fixed p = 3 grid (a
# sign flip is invisible mod 2): a healthy harness reports verdict "fail".

_BOUNDARY_ROWS = _expander(_P, _A, _L, _M, _R)
_SELF_TEST_GRID = SweepGrid(primes=(3,), a_range=(1, 1), l_range=(0, 0), m_range=(1, 4))


def _boundary_residue(p: int, m: int, l: int) -> int:
    rhs = binom(m - 1, l)
    return (-rhs if (m - 1) & 1 else rhs) % p


def _boundary_check(sign: int) -> Callable[..., tuple[str, str] | None]:
    def evaluate(p, a, l, m, r):
        n = (l + 1) * p ** (a - 1) - 1 + m * totient_prime_power(p, a)
        actual = normalized(p, a, n, r, l) % p
        expected = sign * _boundary_residue(p, m, l) % p
        return _mod_p(actual == expected, expected, actual, p)

    return evaluate


# lem2.2: exact order-lowering identity over any modulus m >= 1. Here, in
# lem3.1 and in psi-identity the axis names are the parameter names of the
# function that computes both sides.

def _eval_lem2_2(**params):
    return _exact(*index_reduction_identity(**params))


# lem3.1: exact convolution collapsing moduli d and q into dq, t < d.

_LEM3_1_T = _where(
    ("t", lambda grid, bound: sorted({-2, -1, 0, 1, 2, bound["d"] - 1})),
    lambda t, bound: t < bound["d"],
)


def _eval_lem3_1(**params):
    return _exact(*modulus_factorization_identity(**params))


# lem3.3: explicit value of the correction coefficient <pn+s, t> at order n-1,
# plus the independent divisibility of the auxiliary sigma by p.

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


def _eval_lem3_3(p, n, s, t):
    value = normalized(p, 1, p * n + s, t, n - 1)
    if s < t:
        sign = -1 if (n + s) & 1 else 1
        rhs = Fraction(sign * n, t * binom(t - 1, s))
        return _mod_p(congruent_mod_p_power(value, rhs, p, 1), rhs, value, p)
    sigma = _sigma(p, n, s, t)
    if ord_p(sigma, p) < 1:
        return f"ord_{p}(sigma) >= 1", f"sigma = {sigma}"
    rhs = n * binom(s, t) * sigma / p
    if (n + t) & 1:
        rhs = -rhs
    return _mod_p(congruent_mod_p_power(value, rhs, p, 1), rhs, value, p)


# lem4.1: depth-1 residues along rows with n = l (mod p-1); beyond n = l the
# row is the m-th boundary row of thm1.5 at a = 1, m = (n-l)/(p-1).

_LEM4_1_N = _where(_N, lambda n, bound: (n - bound["l"]) % (bound["p"] - 1) == 0)


def _eval_lem4_1(p, l, n, r):
    actual = normalized(p, 1, n, r, l) % p
    expected = 0 if n <= l else _boundary_residue(p, (n - l) // (p - 1), l)
    return _mod_p(actual == expected, expected, actual, p)


# rem2.1: the order-lowering recurrence agrees with the coefficient mod p.

def _eval_rem2_1(p, a, l, n, r):
    actual = recurrence_residue(p, a, n, r, l)
    expected = normalized(p, a, n, r, l) % p
    return _mod_p(actual == expected, expected, actual, p)


# conj-perm: for qualifying n (p does not divide n, p-1 divides n-1, n != 1)
# and s = 0, the residues over t in (0, p-1] are r-independent and form a
# permutation of 1..p-1. One work unit per (p, n).

_CONJ_PERM_N = _where(
    _N, lambda n, bound: n != 1 and n % bound["p"] and (n - 1) % (bound["p"] - 1) == 0
)
_CONJ_PERM_R = ("r_values", lambda grid, bound: [list(grid.residues(bound["p"], 2))])


def _eval_conj_perm(p, n, r_values):
    residues = []
    for t in range(1, p):
        seen = {normalized(p, 2, p * n, p * r + t, 0) % p for r in r_values}
        if len(seen) != 1:
            return "one residue per t over all r", f"t={t} gave {sorted(seen)}"
        residues.append(seen.pop())
    if sorted(residues) != list(range(1, p)):
        return f"a permutation of 1..{p - 1}", f"{residues} for t=1..{p - 1}"
    return None


# psi-identity: coefficients of psi^a(T^n (1+T)^(-r)) equal the sign-adjusted
# Fleck sums through degree coeff_degree. No tuple repeats another's sums, so
# they come from the undecorated sum and leave both memos empty.

def psi_sides(p: int, a: int, n: int, r: int, l_max: int) -> tuple[list[int], list[int]]:
    """(operator coefficients, sign-adjusted Fleck sums) of degrees 0..l_max.

    The operator side comes from monomial_twisted alone, never from the sums,
    so the two routes stay independent.
    """
    got = list(monomial_twisted(n, r, p, a, l_max).coeffs)
    sign = -1 if n & 1 else 1
    want = [sign * _direct_fleck_sum(n, r, p ** a, l) for l in range(l_max + 1)]
    return got, want


def _eval_psi_identity(**params):
    return _exact(*psi_sides(**params))


@dataclass(frozen=True)
class Check:
    expand: Callable[[SweepGrid], Iterator[dict]]
    evaluate: Callable[..., tuple[str, str] | None]


CHECKS: dict[str, Check] = {
    "thm1.0": Check(_expander(_P, _A, _L, _N, _R), _eval_thm1_0),
    "thm1.1": Check(_expander(_P, _where(_A, lambda a, bound: a >= 2), _L, _N, _R, _S, _T),
                    _eval_thm1_1),
    "thm1.2": Check(_expander(_P, _L, _N, _residues_at(1), _S, _THM1_2_T), _eval_thm1_2),
    "cor1.3": Check(_expander(_P, _L, _N, _residues_at(2)), _eval_cor1_3),
    "thm1.4": Check(_expander(_P, _A, _L, _N_POSITIVE, _R), _eval_thm1_4),
    "thm1.5": Check(_BOUNDARY_ROWS, _boundary_check(1)),
    "lem2.2": Check(_expander(_N_POSITIVE, ("r", lambda grid, bound: grid.free_r(grid.abs_r_max)),
                              _L_POSITIVE, _M), _eval_lem2_2),
    "lem3.1": Check(_expander(_span("d"), _span("q"), _N, ("r", lambda grid, bound: grid.free_r(2)),
                              _LEM3_1_T, _L), _eval_lem3_1),
    "lem3.2": Check(_expander(_P, _A, _L, _N, _R, _S, _T), _eval_lem3_2),
    "lem3.3": Check(_expander(_P, _N_POSITIVE, _where(_S, lambda s, bound: s != bound["p"] - 1), _T),
                    _eval_lem3_3),
    "lem4.1": Check(_expander(_P, _L, _LEM4_1_N, _residues_at(1)), _eval_lem4_1),
    "rem2.1": Check(_expander(_P, _A, _L_POSITIVE, _N_POSITIVE, _R), _eval_rem2_1),
    "conj-perm": Check(_expander(_P, _CONJ_PERM_N, _CONJ_PERM_R), _eval_conj_perm),
    "psi-identity": Check(_expander(_P, _A, _N, _R, ("l_max", lambda grid, bound: (grid.coeff_degree,))),
                          _eval_psi_identity),
    "self-test": Check(lambda grid: _BOUNDARY_ROWS(_SELF_TEST_GRID), _boundary_check(-1)),
}

CHECK_IDS: tuple[str, ...] = tuple(CHECKS)


def _shard(target: str, grid: SweepGrid, index: int, workers: int) -> tuple[int, list]:
    """(tuples evaluated, [(i, params, outcome)] for each outcome not None) over
    the tuples of target (a check id or "rem1.2") with i % workers == index.

    The evaluators are looked up on each call, so rebinding CHECKS entries,
    _expand_rem1_2 or _margin_rem1_2 (as a tracer does) takes effect.
    """
    check = CHECKS.get(target) or Check(_expand_rem1_2, _margin_rem1_2)
    checked = 0
    rows = []
    for i, params in islice(enumerate(check.expand(grid)), index, None, workers):
        checked += 1
        outcome = check.evaluate(**params)
        if outcome is not None:
            rows.append((i, params, outcome))
    return checked, rows


_last_grid: SweepGrid | None = None


def _sweep(target: str, grid: SweepGrid, workers: int) -> tuple[int, list, int]:
    """(checked, rows in expansion order, elapsed_ms): one shard in process, or one per pool worker.

    The coefficient memos are kept while sweeps run on the same grid, so
    checks on one grid share them, and cleared when the grid changes.
    """
    global _last_grid
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if grid != _last_grid:
        coefficients.clear_caches()
        _last_grid = grid
    start = perf_counter()
    if workers == 1:
        shards = [_shard(target, grid, 0, 1)]
    else:
        with multiprocessing.Pool(workers) as pool:
            shards = pool.starmap(_shard, [(target, grid, index, workers) for index in range(workers)])
    rows = sorted((row for _, part in shards for row in part), key=lambda row: row[0])
    return sum(checked for checked, _ in shards), rows, int((perf_counter() - start) * 1000)


def run_sweep(check_id: str, grid: SweepGrid | None = None, workers: int = 1) -> VerificationReport:
    """Expand the grid for one check, evaluate every tuple, and report.

    workers > 1 spreads the shards over a process pool; the report is
    identical apart from elapsed_ms. A grid that gives the check no tuples
    raises ValueError, since a sweep that checked nothing proves nothing.
    """
    if check_id not in CHECKS:
        raise ValueError(f"unknown check id {check_id!r}; known: {', '.join(CHECK_IDS)}")
    grid = grid if grid is not None else SweepGrid()
    checked, rows, elapsed_ms = _sweep(check_id, grid, workers)
    if checked == 0:
        raise ValueError(f"the grid gives {check_id} no tuples to check")
    failures = [CheckFailure(params, *outcome) for _, params, outcome in rows]
    return VerificationReport(theorem=check_id, checked=checked, failures=failures, elapsed_ms=elapsed_ms)


# rem1.2 exploration: measures how much slack the p-power digit shift has
# over the conjectured strengthened exponent 2a - [p == 3]. Informational:
# the verdict is always "pass"; margins are reported, never asserted.

_expand_rem1_2 = _expander(
    _where(_P, lambda p, bound: p != 2),
    _A, _L, _N_POSITIVE, _residues_at(1),
)


def _margin_rem1_2(p, a, l, n, r):
    diff = normalized(p, a + 1, p ** a * n, p * r, l) - normalized(p, a, p ** (a - 1) * n, r, l)
    target = 2 * a - (1 if p == 3 else 0)
    observed = ord_p(diff, p)
    if observed is INFINITE:
        return None
    return {"target": target, "observed": observed, "margin": observed - target}


def run_explore(grid: SweepGrid | None = None, workers: int = 1) -> VerificationReport:
    """Tabulate valuation margins for the strengthened-exponent conjecture."""
    grid = grid if grid is not None else SweepGrid()
    checked, rows, elapsed_ms = _sweep("rem1.2", grid, workers)
    rows.sort(key=lambda row: row[2]["margin"])  # stable: ties stay in expansion order
    extra = {
        "conjectured_exponent": "2a - [p == 3]",
        "min_margin": str(rows[0][2]["margin"]) if rows else "infinite",
        "infinite_margins": checked - len(rows),
        "worst": [{"params": params, **outcome} for _, params, outcome in rows[:10]],
    }
    return VerificationReport(
        theorem="rem1.2", checked=checked, failures=[], elapsed_ms=elapsed_ms, extra=extra
    )
