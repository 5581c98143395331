import ast
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cycpsi
from cycpsi import (
    TruncPoly,
    fleck_sum_general,
    monomial_twisted,
    phi_apply,
    projection_rule_check,
    psi_apply,
    psi_power,
)
from oracles import fleck_oracle, psi_oracle

small_polys = st.lists(st.integers(-9, 9), min_size=1, max_size=10).map(TruncPoly.of)
small_primes = st.sampled_from((2, 3, 5))
oracle_primes = st.sampled_from((2, 3, 5, 7))
# Degree 0..120 drawn first, so long inputs are as likely as short ones.
wide_coeffs = st.integers(0, 120).flatmap(
    lambda d: st.lists(st.integers(-10**12, 10**12), min_size=d + 1, max_size=d + 1)
)


class TestTruncPoly:
    def test_equality_ignores_trailing_zeros(self):
        assert TruncPoly.of([1, 2, 0, 0]) == TruncPoly.of([1, 2])
        assert TruncPoly.of([1, 2, 0, 0]).degree_bound == 3
        assert TruncPoly.of([0]) == TruncPoly.of([0, 0, 0])
        assert hash(TruncPoly.of([1, 0])) == hash(TruncPoly.of([1]))

    def test_coeff_beyond_bound_is_zero(self):
        x = TruncPoly.of([3, 1])
        assert x.coeff(0) == 3
        assert x.coeff(5) == 0
        assert x.coeff(-1) == 0

    def test_arithmetic(self):
        x = TruncPoly.of([1, 1])
        assert x + x == TruncPoly.of([2, 2])
        assert x - x == TruncPoly.zero()
        assert 3 * x == TruncPoly.of([3, 3])
        assert x * x == TruncPoly.of([1, 2, 1])
        assert x + 1 == TruncPoly.of([2, 1])

    def test_truncated(self):
        x = TruncPoly.of([1, 2, 3])
        assert x.truncated(1) == TruncPoly.of([1, 2])
        assert x.truncated(4).degree_bound == 4

    def test_one_plus_t_power(self):
        assert TruncPoly.one_plus_t_power(3) == TruncPoly.of([1, 3, 3, 1])
        assert TruncPoly.one_plus_t_power(-2, through=4) == TruncPoly.of([1, -2, 3, -4, 5])
        with pytest.raises(ValueError):
            TruncPoly.one_plus_t_power(-1)

    def test_monomial_validation(self):
        with pytest.raises(ValueError):
            TruncPoly.monomial(-1)


class TestPhi:
    def test_examples(self):
        assert phi_apply(TruncPoly.monomial(1), 2) == TruncPoly.of([0, 2, 1])
        assert phi_apply(TruncPoly.one(), 5) == TruncPoly.one()
        # (3T + 3T^2 + T^3)^2 expanded by the polynomial-multiplication oracle
        u = TruncPoly.of([0, 3, 3, 1])
        assert phi_apply(TruncPoly.monomial(2), 3) == u * u
        assert phi_apply(TruncPoly.monomial(2), 3) == TruncPoly.of([0, 0, 9, 18, 15, 6, 1])

    def test_ring_morphism(self):
        x = TruncPoly.of([1, -2, 3])
        y = TruncPoly.of([0, 4, 1, 1])
        for p in (2, 3):
            assert phi_apply(x * y, p) == phi_apply(x, p) * phi_apply(y, p)
            assert phi_apply(x + y, p) == phi_apply(x, p) + phi_apply(y, p)

    def test_rejects_non_prime(self):
        with pytest.raises(ValueError):
            phi_apply(TruncPoly.one(), 6)


class TestPsi:
    def test_left_inverse_examples(self):
        y = TruncPoly.of([1, 2, 0, 5])
        for p in (2, 3, 5):
            assert psi_apply(phi_apply(y, p), p) == y

    def test_values(self):
        assert psi_apply(TruncPoly.monomial(1), 2) == TruncPoly.of([-1])
        assert psi_apply(TruncPoly.of([1, 1]), 2) == TruncPoly.zero()

    def test_not_right_inverse(self):
        # witness per prime: psi(1+T) = 0, so phi(psi(1+T)) != 1+T
        x = TruncPoly.of([1, 1])
        for p in (2, 3, 5, 7):
            assert phi_apply(psi_apply(x, p), p) != x

    @given(small_polys, small_polys, small_primes)
    def test_additive(self, x, y, p):
        assert psi_apply(x + y, p) == psi_apply(x, p) + psi_apply(y, p)

    @given(small_polys, small_primes)
    @settings(max_examples=60)
    def test_round_trip_property(self, y, p):
        assert psi_apply(phi_apply(y, p), p) == y

    @given(small_polys, small_primes)
    def test_degree_contract(self, x, p):
        image = psi_apply(x, p)
        assert image.degree_bound <= x.degree_bound // p

    @given(wide_coeffs, oracle_primes)
    @example([1] + [0] * 20, 2)
    @example([1] + [0] * 20, 7)
    @settings(max_examples=60, deadline=None)
    def test_matches_binomial_oracle(self, coeffs, p):
        # .coeffs keeps trailing zeros, so the output length is compared too
        got = psi_apply(TruncPoly.of(coeffs), p).coeffs
        assert len(got) == (len(coeffs) - 1) // p + 1
        assert got == tuple(psi_oracle(coeffs, p))


class TestPsiPower:
    def test_double_round_trip(self):
        y = TruncPoly.of([2, 0, -1, 4])
        for p in (2, 3):
            assert psi_power(phi_apply(phi_apply(y, p), p), p, 2) == y

    def test_matches_single_application(self):
        x = TruncPoly.of([5, 1, 1, 0, 2])
        assert psi_power(x, 3, 1) == psi_apply(x, 3)

    def test_coefficients_of_t4(self):
        got = psi_power(TruncPoly.monomial(4), 2, 2)
        want = TruncPoly.of([fleck_sum_general(4, 0, 4, l) for l in range(3)])
        assert got == want

    def test_rejects_bad_iteration(self):
        with pytest.raises(ValueError):
            psi_power(TruncPoly.one(), 2, 0)

    @given(wide_coeffs, oracle_primes, st.sampled_from((1, 2, 3)))
    @settings(max_examples=40, deadline=None)
    def test_matches_iterated_oracle(self, coeffs, p, a):
        want = coeffs
        for _ in range(a):
            want = psi_oracle(want, p)
        assert psi_power(TruncPoly.of(coeffs), p, a).coeffs == tuple(want)


class TestMonomialTwisted:
    def test_examples(self):
        assert monomial_twisted(1, 0, 2, 1, 3).coeffs == (-1, 0, 0, 0)
        assert monomial_twisted(0, 0, 5, 2, 2).coeffs == (1, 0, 0)
        got = monomial_twisted(5, -2, 3, 1, 4).coeffs
        want = tuple(-fleck_sum_general(5, -2, 3, l) for l in range(5))
        assert got == want

    def test_matches_oracle_on_grid(self):
        for p, a in ((2, 1), (2, 2), (3, 1)):
            pa = p**a
            for n in range(0, 9):
                for r in range(-4, 5):
                    got = monomial_twisted(n, r, p, a, 3).coeffs
                    sign = 1 if n % 2 == 0 else -1
                    want = tuple(sign * fleck_oracle(n, r, pa, l) for l in range(4))
                    assert got == want, (p, a, n, r)

    def test_positive_r_twist(self):
        # r > 0 makes the argument a genuine infinite series
        got = monomial_twisted(12, 5, 2, 2, 4).coeffs
        want = tuple(fleck_sum_general(12, 5, 4, l) for l in range(5))
        assert got == want

    def test_valid_degree(self):
        # truncated to exactly l_max, the degree it is exact through
        assert monomial_twisted(3, 1, 2, 1, 6).degree_bound == 6

    def test_validation(self):
        with pytest.raises(ValueError):
            monomial_twisted(-1, 0, 2, 1, 3)
        with pytest.raises(ValueError):
            monomial_twisted(1, 0, 2, 0, 3)
        with pytest.raises(ValueError):
            monomial_twisted(1, 0, 2, 1, -1)


class TestProjectionRule:
    def test_examples(self):
        assert projection_rule_check(TruncPoly.monomial(3), TruncPoly.of([1, 1]), 2)
        assert projection_rule_check(TruncPoly.of([4, 0, 2]), TruncPoly.one(), 3)

    @given(small_polys, small_polys, small_primes)
    @settings(max_examples=60)
    def test_property(self, x, y, p):
        assert projection_rule_check(x, y, p)


PACKAGE_DIR = Path(cycpsi.__file__).parent


def _module_tree(short: str) -> ast.Module:
    return ast.parse((PACKAGE_DIR / f"{short}.py").read_text(encoding="utf-8"))


def _package_imports(short: str) -> set[str]:
    """The cycpsi modules that cycpsi/<short>.py imports, by file stem.

    A name that is not a module of the package (``from . import f``, ``import
    cycpsi``) counts as ``__init__``, which imports everything.
    """
    names = []
    for node in ast.walk(_module_tree(short)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            prefix = "cycpsi." if node.level else ""
            if node.module:
                names.append(prefix + node.module)
            else:
                names += [prefix + alias.name for alias in node.names]
    found = set()
    for name in names:
        if name == "cycpsi" or name.startswith("cycpsi."):
            stem = name.removeprefix("cycpsi").lstrip(".").split(".")[0]
            found.add(stem if (PACKAGE_DIR / f"{stem}.py").is_file() else "__init__")
    return found


class TestOperatorRouteIndependence:
    def test_psi_series_reaches_no_fleck_sums(self):
        # psi-identity compares this module against the Fleck sums; the two
        # routes stay independent only if nothing here can read the sums
        reached, todo = set(), ["psi_series"]
        while todo:
            for stem in _package_imports(todo.pop()) - reached:
                reached.add(stem)
                todo.append(stem)
        assert not reached & {"__init__", "coefficients", "verifier", "cli"}

    def test_import_walker_sees_known_imports(self):
        # verifier has both "from . import coefficients" and "from .x import y"
        assert _package_imports("verifier") == {"coefficients", "exactmath", "psi_series"}

    def test_psi_apply_calls_no_binomial(self):
        functions = {
            node.name: node for node in _module_tree("psi_series").body
            if isinstance(node, ast.FunctionDef)
        }
        for name in ("psi_apply", "_shift_by_one"):
            called = {
                getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                for node in ast.walk(functions[name]) if isinstance(node, ast.Call)
            }
            assert not called & {"binom", "comb", "binom_product"}, name
