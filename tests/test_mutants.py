"""Mutants of the psi-identity route. Each one rewrites one expression in the
real source of one function, and the psi-identity sweep must report it."""

import inspect

import pytest

from cycpsi import SweepGrid, coefficients, psi_series, run_sweep, verifier

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
