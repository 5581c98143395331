"""Mutants of the package. Each one rewrites one expression in the real
source of one function, and the sweeps must report it: psi-identity for the
psi route, and a pinned set of checks for the coefficient functions."""

import inspect

import pytest

from cycpsi import CHECK_IDS, SweepGrid, coefficients, psi_series, run_explore, run_sweep, verifier

SMALL = SweepGrid(primes=(2, 3), a_range=(1, 2), n_range=(0, 8), coeff_degree=3)

# name -> (module, function, source text, its replacement)
PSI_ROUTE_MUTANTS = {
    "image index n + j + 1": (psi_series, "monomial_twisted", "_monomial_image(n + j,",
                              "_monomial_image(n + j + 1,"),
    "weight binom(e, j) as 1": (psi_series, "monomial_twisted", "weight = comb(e, j)", "weight = 1"),
    "row step (j + l)": (coefficients, "_fleck_row", "term * (j - l)", "term * (j + l)"),
}


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
    # psi-identity looks both routes up in the verifier at call time
    monkeypatch.setattr(verifier, name, _mutant(module, name, old, new))
    assert run_sweep("psi-identity", SMALL).verdict == "fail"


# Every check but self-test, on a grid small enough to sweep the catalog per mutant.
CATALOG_GRID = SweepGrid(primes=(2, 3), a_range=(1, 2), n_range=(0, 14), l_range=(0, 2), m_range=(1, 3),
                         d_range=(1, 4), q_range=(1, 4), abs_r_max=4, coeff_degree=3)
CATALOG_IDS = [c for c in CHECK_IDS if c != "self-test"]
# psi-identity's Fleck side is _fleck_row, so no mutant of these functions reaches it
ALL_BUT_PSI = set(CATALOG_IDS) - {"psi-identity"}

# name -> (module, function, source text, its replacement, the checks that fail)
COEFFICIENT_MUTANTS = {
    "sum from k = r % m + m": (coefficients, "fleck_sum_general", "range(r % m, n + 1, m)",
                               "range(r % m + m, n + 1, m)", ALL_BUT_PSI),
    "sum without (-1)^k": (coefficients, "fleck_sum_general", "total += -term if k & 1 else term",
                           "total += term", ALL_BUT_PSI),
    "floor_exponent + 1": (coefficients, "floor_exponent", "// totient_prime_power(p, a)",
                           "// totient_prime_power(p, a) + 1", ALL_BUT_PSI - {"cor1.3", "lem2.2", "lem3.1"}),
}


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
    # a bug trap is a failure row, so every sweep returns a report
    reports = {c: run_sweep(c, CATALOG_GRID) for c in CATALOG_IDS}
    assert {c for c, report in reports.items() if report.verdict == "fail"} == failing
    assert run_explore(CATALOG_GRID).verdict == "fail"
