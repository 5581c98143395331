import ast
from pathlib import Path

import pytest

import cycpsi
from cycpsi import (
    SweepGrid,
    TruncPoly,
    delta_for,
    monomial_twisted,
    normalized_parts,
    phi_apply,
    psi_apply,
    t_coeff,
)


def test_every_exported_name_resolves():
    assert [name for name in cycpsi.__all__ if not hasattr(cycpsi, name)] == []
    assert len(set(cycpsi.__all__)) == len(cycpsi.__all__)


def test_star_import():
    namespace = {}
    exec("from cycpsi import *", namespace)
    assert set(cycpsi.__all__) <= set(namespace)


def test_package_has_no_assert_statements():
    # python -O strips assert, so no check in the package may rely on one
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(cycpsi.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


@pytest.mark.parametrize(
    "call",
    [
        lambda: phi_apply(TruncPoly.one(), 4),
        lambda: psi_apply(TruncPoly.one(), 4),
        lambda: monomial_twisted(1, 0, 4, 1, 2),
        lambda: normalized_parts(4, 1, 1, 0, 0),
        lambda: t_coeff(4, 1, 1, 0, 0),
        lambda: delta_for(4),
        lambda: SweepGrid(primes=(4,)),
    ],
)
def test_one_non_prime_message(call):
    with pytest.raises(ValueError, match="^p must be prime, got 4$"):
        call()
