"""Mutants of the package. Each one rewrites one expression in the real
source of one function, and the sweeps must report it: psi-identity for the
psi route, and a pinned set of checks for the coefficient functions and
the congruence test."""

import inspect
from dataclasses import replace
from types import ModuleType, SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycpsi import (CHECK_IDS, IntegrityError, SweepGrid, coefficients, exactmath, normalized_parts, psi_series,
                    run_explore, run_sweep, verifier)
from cycpsi.coefficients import normalized

SMALL = SweepGrid(primes=(2, 3), a_range=(1, 2), n_range=(0, 8), coeff_degree=3)

# name -> (module, function, source text, its replacement)
PSI_ROUTE_MUTANTS = {
    "image index n + j + 1": (psi_series, "monomial_twisted", "[n:n + e + 1]", "[n + 1:n + e + 2]"),
    "weight binom(e, j) as 1": (psi_series, "_twist", "[comb(e, j) for j in range(e + 1)]", "[1] * (e + 1)"),
    "row step (j + l)": (coefficients, "_fleck_row", "term * (j - l)", "term * (j + l)"),
    "unit step (-r1 + i)": (psi_series, "_twist", "(-r1 - i)", "(-r1 + i)"),
    # coefficient k of the product with the unit dots the core with unit[k], ..., unit[0]
    "unit row unreversed": (psi_series, "_twist", "unit[k::-1]", "unit[:k + 1]"),
    # the record read: level l - i times the i-th shift coefficient, read from level i - 1 instead
    "class sums shift level i - 1": (coefficients, "_class_row", "column[l - i]", "column[i - 1]"),
    # the recurrence psi^a(T^i) = T psi^a(T^(i-q)) - sum_{0<k<q} binom(q, k) psi^a(T^(i-q+k)), per degree:
    # entries i-q+1..i-1 of the degree's own column, and the T-shift, entry i-q of the degree below
    "recurrence T-shift at the top": (psi_series, "_monomial_images", "(below[i - q]", "(column[i - q]"),
    "recurrence weight binom(q, k - 1)": (psi_series, "_monomial_images", "comb(q, k)", "comb(q, k - 1)"),
    "recurrence sum added": (psi_series, "_monomial_images", " - sum(", " + sum("),
    "recurrence column slice one back": (psi_series, "_monomial_images", "column[i - q + 1:i]",
                                         "column[i - q:i - 1]"),
}
# psi-identity steps the record _sums along n from 0, so its Fleck side reaches _fleck_row only
# where a block's n starts past the record's next step
PSI_ROUTE_GRIDS = {"row step (j + l)": replace(SMALL, n_range=(3, 8))}


def _mutant(module, name: str, old: str, new: str):
    """module.<name> compiled from its source with the one occurrence of old replaced by new."""
    source = inspect.getsource(getattr(module, name))
    assert source.count(old) == 1, (name, old)
    namespace = dict(vars(module))
    exec(compile(source.replace(old, new), module.__file__, "exec"), namespace)
    return namespace[name]


def test_unmutated_route_passes():
    assert run_sweep("psi-identity", SMALL).verdict == "pass"


@pytest.mark.parametrize("mutant", PSI_ROUTE_MUTANTS)
def test_psi_identity_catches(mutant, monkeypatch):
    module, name, old, new = PSI_ROUTE_MUTANTS[mutant]
    # psi-identity looks both routes up in the verifier at call time, and monomial_twisted
    # looks its images and constants up in psi_series
    monkeypatch.setattr(verifier if hasattr(verifier, name) else module, name, _mutant(module, name, old, new))
    assert run_sweep("psi-identity", PSI_ROUTE_GRIDS.get(mutant, SMALL)).verdict == "fail"


# Every check but self-test, on a grid small enough to sweep the catalog per mutant.
CATALOG_GRID = SweepGrid(primes=(2, 3), a_range=(1, 2), n_range=(0, 14), l_range=(0, 2), m_range=(1, 3),
                         d_range=(1, 4), q_range=(1, 4), abs_r_max=4, coeff_degree=3)
CATALOG_IDS = [c for c in CHECK_IDS if c != "self-test"]
# psi-identity's Fleck side is the raw-sum record or _fleck_row and divides by no power of p, so no mutant
# of fleck_sum_general or floor_exponent reaches it
ALL_BUT_PSI = set(CATALOG_IDS) - {"psi-identity"}
NORMALIZED_READERS = ALL_BUT_PSI - {"thm1.0", "cor1.3", "lem2.2", "lem3.1"}

# The checks whose reads on CATALOG_GRID are values the Pascal fill wrote, or direct sums with
# no term in range (r % p^a > n), so no mutant of the direct sum reaches them.
FILLED = {"thm1.1", "thm1.5"}

# name -> (module, function, source text, its replacement, the checks that fail)
COEFFICIENT_MUTANTS = {
    # the term it drops, k = r for 0 <= r < m, is 0 at l >= 1; lem3.3's l = 0 values are filled. Rows are
    # kept while the grid stays, so lem4.1, which sums nothing itself, reads values earlier sweeps left;
    # since the Lucas checks read a row's <n,r> before its digits' <pn+s,pr+t>, those values are the
    # fill's, not the mutant's. thm1.0 reads every class from its record on CATALOG_GRID, so it sums
    # nothing directly there
    "sum from k = r % m + m": (coefficients, "fleck_sum_general", "range(r % m, n + 1, m)",
                               "range(r % m + m, n + 1, m)", ALL_BUT_PSI - FILLED - {"lem3.3", "thm1.0", "lem4.1"}),
    # without the sign, the direct sums that lem4.1, thm1.2 and thm1.4 read keep their verdicts on CATALOG_GRID.
    # lem2.2 sums directly only a line read before its neighbour: a line of slope 1 sums only
    # S(0, s), which has no odd term, and the slope-0 lines at m = 1 and 3 that grow from a wrong first line are
    # wrong at every level, yet satisfy the identity on all its tuples; the direct sum of each new diagonal's
    # last value, compared with the value Pascal's rule grew, sees them
    "sum without (-1)^k": (coefficients, "fleck_sum_general", "total += -term if k & 1 else term",
                           "total += term",
                           ALL_BUT_PSI - FILLED - {"lem4.1", "thm1.2", "thm1.4", "thm1.0"}),
    "floor_exponent + 1": (coefficients, "floor_exponent", "// totient_prime_power(p, a)",
                           "// totient_prime_power(p, a) + 1", ALL_BUT_PSI - {"cor1.3", "lem2.2", "lem3.1"}),
    # lem3.1's signed rows come from _fleck_row too; psi-identity reads the record on CATALOG_GRID
    "row step (j + l)": (*PSI_ROUTE_MUTANTS["row step (j + l)"], {"lem3.1"}),
    "row without (-1)^j": (coefficients, "factorization_sides",
                           "[-v if j & 1 else v for j, v in enumerate(head)]", "head", {"lem3.1"}),
    # thm1.0's rows of every residue of a binding off the record (OFF_RECORD_GRID); no other check reads them
    "residues without (-1)^k": (coefficients, "_fleck_residues", "row[k % m] += -c if k & 1 else c",
                                "row[k % m] += c", {"thm1.0"}),
    "residues from k = l m + 1": (coefficients, "_fleck_residues", "range(l * m, n + 1)",
                                  "range(l * m + 1, n + 1)", {"thm1.0"}),
    # the Pascal steps of the lines L_r[i+1] = L_r[i] - L_(r-1)[i] (slope 0), which lem2.2 and lem3.1's
    # columns read, and L_s[i+1] = L_(s+1)[i] - L_s[i] (slope 1), which only lem2.2 reads
    "line step at slope 0 reversed": (coefficients, "_line", "line[i] - neighbour[i] if",
                                      "neighbour[i] - line[i] if", {"lem2.2", "lem3.1"}),
    "line step at slope 1 reversed": (coefficients, "_line", "else neighbour[i] - line[i]",
                                      "else line[i] - neighbour[i]", {"lem2.2"}),
    # the Pascal step of the raw-sum records that normalized, psi-identity and thm1.0 read
    "fill step S(n-1, r-1) - S(n-1, r)": (coefficients, "_step", "map(sub, level[1:], level[:-1])",
                                          "map(sub, level[:-1], level[1:])",
                                          NORMALIZED_READERS | {"psi-identity", "thm1.0"}),
    "fill boundary term + S(n-1, m-1, l-1)": (coefficients, "_step", "level[0] - last - below",
                                              "level[0] - last + below",
                                              (NORMALIZED_READERS - {"thm1.1", "conj-perm", "lem3.2"})
                                              | {"psi-identity"}),
    # a level holds the residues r0 <= n only, and grows by S(n+1, n+1) = -S(n, n) until it has p^a
    "fill growth S(n+1, n+1) = S(n, n)": (coefficients, "_step", "-level[-1]", "level[-1]",
                                          (NORMALIZED_READERS - {"conj-perm"}) | {"psi-identity", "thm1.0"}),
    # a read more than one step past a record steps it once, as if one past it; thm1.0, psi-identity and
    # thm1.1 ask each record for n = 0, 1, 2, ... in turn on CATALOG_GRID, so they never jump; lem4.1
    # reads the values earlier sweeps left, as under the first mutant
    "record advance past a jump": (coefficients, "_raw_at", "if n == at + 1:", "if n > at:",
                                   NORMALIZED_READERS - {"thm1.1", "lem4.1"}),
    # binom(-k, i) for i >= 1 multiplies a sum that p^(e+1) divides, so no congruence sees it; psi-identity
    # compares the sums of the classes -1 and 1 - p^a exactly, and so does
    # test_the_differential_route_catches_fill_mutants; the last two also break thm1.4's valuation bound
    "fill shift step (-k + i)": (coefficients, "_shift", "c * (-k - i)", "c * (-k + i)", {"psi-identity"}),
    "fill shift step (k - i)": (coefficients, "_shift", "c * (-k - i)", "c * (k - i)", {"psi-identity"}),
    "fill shift step (-k - i - 1)": (coefficients, "_shift", "c * (-k - i)", "c * (-k - i - 1)",
                                     {"psi-identity", "thm1.4"}),
    "fill shift step (1 - k - i)": (coefficients, "_shift", "c * (-k - i)", "c * (1 - k - i)",
                                    {"psi-identity", "thm1.4"}),
    # the congruence _congruent calls: p^e divides the numerator of x - y, which is 0 when the sides agree
    "congruence numerator mod p^(e+1)": (exactmath, "congruent_mod_p_power", "(x - y).numerator % p ** e",
                                         "(x - y).numerator % p ** (e + 1)", {"thm1.2", "cor1.3", "lem3.3"}),
    "congruence refuses a zero difference": (exactmath, "congruent_mod_p_power", "(x - y).numerator % p ** e",
                                             "((x - y).numerator or 1) % p ** e", {"thm1.2", "cor1.3", "lem3.3"}),
}
# thm1.0 and psi-identity step the record _sums along n from 0, so a direct row is summed only where a
# block's n starts past the record's next step; these mutants are pinned on such a grid
OFF_RECORD_GRID = replace(CATALOG_GRID, n_range=(5, 14))
OFF_RECORD = {"residues without (-1)^k", "residues from k = l m + 1"}
# explore fails only on a bug trap, which these mutants spring in its reads
TRAPPED_IN_EXPLORE = {"sum from k = r % m + m", "sum without (-1)^k", "floor_exponent + 1",
                      "record advance past a jump"}


def _rebind_everywhere(monkeypatch, module, name: str, mutant) -> None:
    """Bind mutant wherever coefficients or verifier bind module.<name>, and its
    undecorated form wherever they bind the original's (as _direct_fleck_sum)."""
    original = getattr(module, name)
    pairs = [(original, mutant)]
    if hasattr(original, "__wrapped__"):
        pairs.append((original.__wrapped__, mutant.__wrapped__))
    for namespace in (coefficients, verifier):
        for attr, value in list(vars(namespace).items()):
            for old, new in pairs:
                if value is old:
                    monkeypatch.setattr(namespace, attr, new)


def test_unmutated_catalog_passes():
    assert all(run_sweep(c, CATALOG_GRID).verdict == "pass" for c in CATALOG_IDS)


@pytest.mark.parametrize("mutant", COEFFICIENT_MUTANTS)
def test_catalog_catches(mutant, monkeypatch):
    module, name, old, new, failing = COEFFICIENT_MUTANTS[mutant]
    _rebind_everywhere(monkeypatch, module, name, _mutant(module, name, old, new))
    grid = OFF_RECORD_GRID if mutant in OFF_RECORD else CATALOG_GRID
    # a bug trap is a failure row, so every sweep returns a report
    reports = {c: run_sweep(c, grid) for c in CATALOG_IDS}
    assert {c for c, report in reports.items() if report.verdict == "fail"} == failing
    assert (run_explore(grid).verdict == "fail") == (mutant in TRAPPED_IN_EXPLORE)


FILL_MUTANTS = [name for name, spec in COEFFICIENT_MUTANTS.items() if spec[1] in ("_step", "_shift")]


def test_every_coefficient_mutant_fails_some_check():
    assert FILL_MUTANTS and all(spec[-1] for spec in COEFFICIENT_MUTANTS.values())


@pytest.mark.parametrize("mutant", FILL_MUTANTS)
def test_the_differential_route_catches_fill_mutants(mutant, monkeypatch):
    module, name, old, new, _ = COEFFICIENT_MUTANTS[mutant]
    _rebind_everywhere(monkeypatch, module, name, _mutant(module, name, old, new))
    # at m = 3, r = -7 and -1 lie 3 and 1 moduli below their residues; l = 2 reads two shift coefficients
    wrong = set()
    for n in range(30):
        for r in (-7, -1, 0, 2):
            try:
                if normalized(3, 1, n, r, 2) != normalized_parts(3, 1, n, r, 2)[2]:
                    wrong.add(r)
            except IntegrityError:
                wrong.add(r)
    assert wrong


# Mutants of the verifier's own logic: each compiles a fresh copy of the
# module with one source text replaced, so its CHECKS, evaluators and helpers
# are all built from the mutated source, and sweeps run through that copy.
# A mutant's pin is the set of check ids whose verdict it changes: a catalog
# check on CATALOG_GRID that fails, or self-test (which must fail) passing.

# the congruence checks that reach a verdict through _mod_p (integers) or _congruent (rationals)
MOD_P_ROUTED = {"thm1.1", "lem3.2", "thm1.2", "thm1.5", "lem4.1", "rem2.1"}
CONGRUENT_ROUTED = {"thm1.2", "cor1.3", "lem3.3"}
LUCAS = {"thm1.1", "lem3.2", "thm1.2"}

# name -> (verifier source text, its replacement, the checks whose verdict changes)
VERIFIER_MUTANTS = {
    "Lucas rhs without (-1)^t": ("rhs = _sign(t) * comb(s, t)", "rhs = comb(s, t)", LUCAS),
    "Lucas binom(t, s)": ("_sign(t) * comb(s, t)", "_sign(t) * comb(t, s)", LUCAS),
    "boundary residue sign flipped": ("return _sign(m - 1) * binom(m - 1, l)",
                                      "return -_sign(m - 1) * binom(m - 1, l)", {"thm1.5", "lem4.1", "self-test"}),
    "sigma with the odd-prime sign at p = 2": ("ratio if p == 2 else -ratio", "-ratio if p == 2 else -ratio",
                                               {"lem3.3"}),
    # p must divide sigma's numerator, and no more: some sigma has valuation 1, and some is 0
    "sigma test mod p^2": ("sigma.numerator % p", "sigma.numerator % p ** 2", {"lem3.3"}),
    "sigma test refuses sigma = 0": ("sigma.numerator % p", "(sigma.numerator or 1) % p", {"lem3.3"}),
    # a helper that decides on anything but its two sides breaks exactly the checks routed through it
    "_mod_p on lhs + rhs": ("(lhs - rhs) % p", "(lhs + rhs) % p", MOD_P_ROUTED | {"self-test"}),
    "_congruent against -rhs": ("congruent_mod_p_power(lhs, rhs, p, 1)", "congruent_mod_p_power(lhs, -rhs, p, 1)",
                                CONGRUENT_ROUTED),
    # _ord_at_least decides by divisibility; asking one power of p too many fails the valuation checks
    "_ord_at_least one power too high": ("value % p ** bound == 0", "value % p ** (bound + 1) == 0",
                                         {"thm1.0", "thm1.4"}),
}

# Evaluators take a row's outer values positionally, so one whose parameters are
# out of axis order reads the wrong values: (source text, its replacement, the
# ids whose evaluator no longer names the outer axes in order, the checks whose
# verdict changes). A sweep sees the swap only where the statement tells the two
# values apart; thm1.0's bound holds with n and l swapped.
SWAPPED_PARAMETER_MUTANTS = {
    "thm1.0 with l and n swapped": ("def _eval_thm1_0(p, a, l, n, rs):", "def _eval_thm1_0(p, a, n, l, rs):",
                                    {"thm1.0"}, set()),
    "boundary rows with l and m swapped": ("def evaluate(p, a, l, m, rs):", "def evaluate(p, a, m, l, rs):",
                                           {"thm1.5", "self-test"}, {"thm1.5"}),
}

# the first sign flip of the odd coefficients dropped from _s_basis, the S-basis kernel that psi_apply and
# phi_apply share: (source text, replacement, the checks whose verdict changes)
PSI_APPLY_MUTANT = ("[-v if i & 1 else v for i, v in enumerate(coeffs)]", "list(coeffs)", {"psi-identity"})


def _mutated_verifier(old: str, new: str) -> ModuleType:
    """A fresh verifier module compiled from its source with the one occurrence of old replaced by new."""
    source = inspect.getsource(verifier)
    assert source.count(old) == 1, old
    module = ModuleType("cycpsi.verifier")
    module.__package__ = "cycpsi"
    exec(compile(source.replace(old, new), verifier.__file__, "exec"), vars(module))
    return module


def _verdict_changes(sweeps) -> set[str]:
    """The ids whose verdict under sweeps (a verifier module) differs from the unmutated verifier's."""
    changed = {c for c in CATALOG_IDS if sweeps.run_sweep(c, CATALOG_GRID).verdict == "fail"}
    if sweeps.run_sweep("self-test").verdict == "pass":
        changed.add("self-test")
    return changed


def test_unmutated_copy_changes_nothing():
    # a copy that replaces a text by itself is the control for the table below
    assert _verdict_changes(_mutated_verifier("def _sign(", "def _sign(")) == set()


@pytest.mark.parametrize("mutant", VERIFIER_MUTANTS)
def test_verifier_mutant_changes(mutant):
    old, new, changed = VERIFIER_MUTANTS[mutant]
    assert _verdict_changes(_mutated_verifier(old, new)) == changed


@pytest.mark.parametrize("mutant", SWAPPED_PARAMETER_MUTANTS)
def test_swapped_parameters_are_caught(mutant):
    old, new, out_of_order, changed = SWAPPED_PARAMETER_MUTANTS[mutant]
    sweeps = _mutated_verifier(old, new)
    assert {c for c, check in sweeps.CHECKS.items()
            if tuple(inspect.signature(check.evaluate).parameters)[:-1] != check.names[:-1]} == out_of_order
    assert _verdict_changes(sweeps) == changed


def test_psi_apply_mutant_changes(monkeypatch):
    old, new, changed = PSI_APPLY_MUTANT
    # psi_apply looks _s_basis up in psi_series, and every sweep empties the image memo
    monkeypatch.setattr(psi_series, "_s_basis", _mutant(psi_series, "_s_basis", old, new))
    assert _verdict_changes(verifier) == changed


def test_every_check_changes_verdict_under_some_mutant():
    caught = {"psi-identity"}  # by every mutant of PSI_ROUTE_MUTANTS
    for table in (COEFFICIENT_MUTANTS, VERIFIER_MUTANTS, {"psi_apply": PSI_APPLY_MUTANT}):
        for mutant in table.values():
            caught |= mutant[-1]
    assert caught == set(CHECK_IDS)


class _InProcessWorkers:
    """multiprocessing's Pipe and Process as _sweep uses them, run in this process: a Process runs its
    target when started, and a Pipe's receiving end gives what its sending end was sent. started lists the
    share (its blocks, in order) of each Process, in start order."""

    def __init__(self):
        self.started = []

    def Pipe(self, duplex=True):
        sent = []
        return (SimpleNamespace(recv=lambda: sent.pop(0), close=lambda: None),
                SimpleNamespace(send=sent.append, close=lambda: None))

    def Process(self, target, args):
        def start():
            self.started.append(args[-1])
            target(*args)

        return SimpleNamespace(start=start, kill=lambda: None, join=lambda: None)


def _in_process(monkeypatch, workers=None):
    """Run the worker processes of every sweep in this process, through workers (a new _InProcessWorkers
    by default), and return it."""
    workers = workers or _InProcessWorkers()
    monkeypatch.setattr(verifier, "multiprocessing", workers)
    return workers


def _doc(report) -> dict:
    doc = report.to_json_dict()
    del doc["elapsed_ms"]
    return doc


GRIDS = st.builds(
    SweepGrid,
    primes=st.sampled_from([(2,), (3,), (2, 3), (5,)]),
    a_range=st.tuples(st.just(1), st.integers(1, 2)),
    n_range=st.tuples(st.integers(0, 2), st.integers(2, 7)),
    l_range=st.tuples(st.just(0), st.integers(0, 2)),
    m_range=st.tuples(st.just(1), st.integers(1, 3)),
    d_range=st.tuples(st.just(1), st.integers(1, 2)),
    q_range=st.tuples(st.just(1), st.integers(1, 2)),
    # explicit digits thin or empty thm1.2's filtered blocks, and digits >= p drop out per prime
    s_values=st.none() | st.lists(st.integers(0, 5), unique=True).map(tuple),
    t_values=st.none() | st.lists(st.integers(0, 5), unique=True).map(tuple),
    abs_r_max=st.integers(0, 3),
    coeff_degree=st.integers(0, 3),
)


@settings(max_examples=80, deadline=None)
@given(grid=GRIDS, target=st.sampled_from(CHECK_IDS + ("rem1.2",)), workers=st.sampled_from([2, 3]),
       marked=st.integers(2, 4))
def test_pooled_blocks_give_the_serial_report(grid, target, workers, marked):
    """A sweep of 2 or 3 workers, run in process, gives the serial report.
    Tuples whose params print to a length divisible by marked are made to
    fail, so every block's failure rows must come back in expansion order;
    every other tuple is evaluated as a row of its own."""
    with pytest.MonkeyPatch.context() as mp:
        _in_process(mp)
        if target == "rem1.2":
            sweep = run_explore
        else:
            check = verifier.CHECKS[target]

            def evaluate(*row):
                *outer, values = row
                failures = []
                for value in values:
                    params = dict(zip(check.names, (*outer, value)))
                    if len(repr(params)) % marked == 0:
                        failures.append((value, ("an unmarked tuple", repr(params))))
                    else:
                        failures += check.evaluate(*outer, (value,))
                return failures

            mp.setitem(verifier.CHECKS, target, replace(check, evaluate=evaluate))

            def sweep(grid, workers=1):
                return run_sweep(target, grid, workers)

        try:
            serial = _doc(sweep(grid))
        except ValueError as err:  # a grid that gives target no tuples
            with pytest.raises(ValueError) as merged_err:
                sweep(grid, workers)
            assert str(merged_err.value) == str(err)
            return
        assert _doc(sweep(grid, workers)) == serial


def test_results_left_in_dispatch_order_break_the_failure_list(monkeypatch):
    mutated = _mutated_verifier("for k in sorted(done)", "for k in done")
    mutated.multiprocessing = _InProcessWorkers()
    _in_process(monkeypatch)
    # self-test's evaluator on thm1.5's axes fails every tuple at p = 3, l = 0, so the failures
    # list the tuples; a = 1 and a = 2 are blocks of 20 and 44 tuples, and the larger goes first
    for sweeps in (verifier, mutated):
        monkeypatch.setitem(sweeps.CHECKS, "thm1.5",
                            replace(sweeps.CHECKS["thm1.5"], evaluate=sweeps.CHECKS["self-test"].evaluate))
    grid = SweepGrid(primes=(3,), a_range=(1, 2), l_range=(0, 0), m_range=(1, 4))
    serial = run_sweep("thm1.5", grid)
    assert serial.checked == len(serial.failures) == 64
    assert [f.params["a"] for f in serial.failures] == [1] * 20 + [2] * 44
    assert run_sweep("thm1.5", grid, workers=2).failures == serial.failures
    # with one share or two alike, the a = 2 block is dealt first, so its failures come back ahead
    for workers in (1, 2):
        dispatched = mutated.run_sweep("thm1.5", grid, workers=workers)
        assert dispatched.checked == serial.checked
        assert sorted(map(repr, dispatched.failures)) == sorted(map(repr, serial.failures))
        assert [f.params["a"] for f in dispatched.failures] == [2] * 44 + [1] * 20
    assert mutated.multiprocessing.started == [[(3, 1, 0)]]  # the a = 1 block, in the second share
