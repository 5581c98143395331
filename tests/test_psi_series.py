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
from oracles import fleck_oracle, one_plus_t_power, phi_by_substitution, poly_add, psi_oracle
from work import count_work, empty_memos

small_polys = st.lists(st.integers(-9, 9), min_size=1, max_size=10).map(TruncPoly.of)
small_primes = st.sampled_from((2, 3, 5))
oracle_primes = st.sampled_from((2, 3, 5, 7))
# Degree 0..120 drawn first, so long inputs are as likely as short ones.
wide_coeffs = st.integers(0, 120).flatmap(
    lambda d: st.lists(st.integers(-10**12, 10**12), min_size=d + 1, max_size=d + 1)
)
# phi's output has p D + 1 coefficients and its oracle is quadratic in them, so degree 0..30
phi_coeffs = st.integers(0, 30).flatmap(
    lambda d: st.lists(st.integers(-10**12, 10**12), min_size=d + 1, max_size=d + 1)
)


def _sum(x: TruncPoly, y: TruncPoly) -> TruncPoly:
    return TruncPoly.of(poly_add(x.coeffs, y.coeffs))


class TestTruncPoly:
    def test_equality_ignores_trailing_zeros(self):
        assert TruncPoly.of([1, 2, 0, 0]) == TruncPoly.of([1, 2])
        assert len(TruncPoly.of([1, 2, 0, 0]).coeffs) - 1 == 3
        assert TruncPoly.of([0]) == TruncPoly.of([0, 0, 0])

    def test_refuses_an_empty_tuple(self):
        with pytest.raises(ValueError, match="at least one coefficient"):
            TruncPoly(())
        assert TruncPoly.of([]) == TruncPoly.of([0]) and TruncPoly.of([]).coeffs == (0,)

    def test_coeff_beyond_bound_is_zero(self):
        x = TruncPoly.of([3, 1])
        assert x.coeff(0) == 3
        assert x.coeff(5) == 0
        assert x.coeff(-1) == 0

    def test_arithmetic(self):
        # the product is TruncPoly's one operation; sums are the oracle's, on coefficient lists
        x = TruncPoly.of([1, 1])
        assert _sum(x, x) == TruncPoly.of([2, 2])
        assert x * x == TruncPoly.of([1, 2, 1])
        assert x * TruncPoly((0,)) == TruncPoly((0,))

    def test_truncated(self):
        x = TruncPoly.of([1, 2, 3])
        assert x.truncated(1) == TruncPoly.of([1, 2])
        assert len(x.truncated(4).coeffs) - 1 == 4

    def test_one_plus_t_power(self):
        # the oracle's (1+T)^e, which _twisted_direct below builds its polynomials from
        assert TruncPoly.of(one_plus_t_power(3, 3)) == TruncPoly.of([1, 3, 3, 1])
        assert TruncPoly.of(one_plus_t_power(-2, 4)) == TruncPoly.of([1, -2, 3, -4, 5])

    def test_monomial_validation(self):
        with pytest.raises(ValueError):
            TruncPoly.monomial(-1)


class TestPhi:
    def test_examples(self):
        assert phi_apply(TruncPoly.monomial(1), 2) == TruncPoly.of([0, 2, 1])
        assert phi_apply(TruncPoly.of([1]), 5) == TruncPoly.of([1])
        # (3T + 3T^2 + T^3)^2 expanded by the polynomial-multiplication oracle
        u = TruncPoly.of([0, 3, 3, 1])
        assert phi_apply(TruncPoly.monomial(2), 3) == u * u
        assert phi_apply(TruncPoly.monomial(2), 3) == TruncPoly.of([0, 0, 9, 18, 15, 6, 1])

    def test_ring_morphism(self):
        x = TruncPoly.of([1, -2, 3])
        y = TruncPoly.of([0, 4, 1, 1])
        for p in (2, 3):
            assert phi_apply(x * y, p) == phi_apply(x, p) * phi_apply(y, p)
            assert phi_apply(_sum(x, y), p) == _sum(phi_apply(x, p), phi_apply(y, p))

    def test_rejects_non_prime(self):
        with pytest.raises(ValueError):
            phi_apply(TruncPoly.of([1]), 6)

    @given(phi_coeffs, oracle_primes)
    @example([0, 1], 7)
    @example([1] + [0] * 20, 2)
    @settings(max_examples=60, deadline=None)
    def test_matches_substitution_oracle(self, coeffs, p):
        # .coeffs keeps trailing zeros, so the output length p D + 1 is compared too
        assert phi_apply(TruncPoly.of(coeffs), p).coeffs == tuple(phi_by_substitution(coeffs, p))


class TestPsi:
    def test_left_inverse_examples(self):
        y = TruncPoly.of([1, 2, 0, 5])
        for p in (2, 3, 5):
            assert psi_apply(phi_apply(y, p), p) == y

    def test_values(self):
        assert psi_apply(TruncPoly.monomial(1), 2) == TruncPoly.of([-1])
        assert psi_apply(TruncPoly.of([1, 1]), 2) == TruncPoly((0,))

    def test_not_right_inverse(self):
        # witness per prime: psi(1+T) = 0, so phi(psi(1+T)) != 1+T
        x = TruncPoly.of([1, 1])
        for p in (2, 3, 5, 7):
            assert phi_apply(psi_apply(x, p), p) != x

    @given(small_polys, small_polys, small_primes)
    def test_additive(self, x, y, p):
        assert psi_apply(_sum(x, y), p) == _sum(psi_apply(x, p), psi_apply(y, p))

    @given(small_polys, small_primes)
    @settings(max_examples=60)
    def test_round_trip_property(self, y, p):
        assert psi_apply(phi_apply(y, p), p) == y

    @given(small_polys, small_primes)
    def test_degree_contract(self, x, p):
        image = psi_apply(x, p)
        assert len(image.coeffs) - 1 <= (len(x.coeffs) - 1) // p

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
            psi_power(TruncPoly.of([1]), 2, 0)

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
        assert len(monomial_twisted(3, 1, 2, 1, 6).coeffs) - 1 == 6

    def test_validation(self):
        with pytest.raises(ValueError):
            monomial_twisted(-1, 0, 2, 1, 3)
        with pytest.raises(ValueError):
            monomial_twisted(1, 0, 2, 0, 3)
        with pytest.raises(ValueError):
            monomial_twisted(1, 0, 2, 1, -1)


def _twisted_direct(n: int, r: int, p: int, a: int, l_max: int) -> tuple[int, ...]:
    """monomial_twisted's value without the memo: psi^a of the whole polynomial
    T^n (1+T)^e, times the unit (1+T)^(-r1)."""
    pa = p ** a
    r1 = -((-r) // pa)
    e = pa * r1 - r
    inner = TruncPoly.monomial(n) * TruncPoly.of(one_plus_t_power(e, e))
    unit = TruncPoly.of(one_plus_t_power(-r1, l_max))
    return (psi_power(inner, p, a) * unit).truncated(l_max).coeffs


class TestMonomialImageMemo:
    @given(st.integers(0, 150), st.integers(-60, 60), oracle_primes, st.sampled_from((1, 2, 3)),
           st.integers(0, 6))
    @example(150, 1, 7, 3, 6)  # e = 342, the most images one tuple sums
    @example(0, 60, 2, 1, 0)
    @settings(max_examples=40, deadline=None)
    def test_matches_direct_route_cold_and_warm(self, n, r, p, a, l_max):
        want = _twisted_direct(n, r, p, a, l_max)
        empty_memos()
        # cold: psi^a(T^i) for i in 0..n+e, grown in order of i; warm: every image read back
        for images in (n + -r % p ** a + 1, 0):
            with count_work() as work:
                assert monomial_twisted(n, r, p, a, l_max).coeffs == want
            assert work["images"] == images

    def test_deep_row_does_not_recurse(self):
        # 3,004 images of psi(T^i), each from the two before it
        want = tuple(fleck_sum_general(3000, 5, 2, l) for l in range(4))  # n even: no sign flip
        assert monomial_twisted(3000, 5, 2, 1, 3).coeffs == want


def _image_oracle(i: int, p: int, a: int, through: int) -> tuple[int, ...]:
    return psi_power(TruncPoly.monomial(i), p, a).truncated(through).coeffs


class TestMonomialImages:
    """The recurrence images against psi_power, each run from a cold memo, with
    the images asked for out of order so that one request grows the list past
    the images a later one reads back; monomial_twisted(i, 0, ...) is psi^a(T^i)."""

    @pytest.mark.parametrize("a", (1, 2, 3))
    @pytest.mark.parametrize("p", (2, 3, 5, 7))
    def test_descending_to_three_periods(self, p, a):
        q = p ** a
        with count_work() as work:
            for i in (3 * q, 3 * q - 1, 2 * q + 1, q, q - 1, 1, 0):
                assert monomial_twisted(i, 0, p, a, 6).coeffs == _image_oracle(i, p, a, 6), i
        # the first request builds every image up to 3 q
        assert work["images"] == 3 * q + 1

    @given(oracle_primes, st.sampled_from((1, 2, 3)), st.integers(0, 6), st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_psi_power_in_any_order(self, p, a, through, data):
        q = p ** a
        wanted = data.draw(st.lists(st.integers(0, 3 * q), min_size=1, max_size=6, unique=True))
        if data.draw(st.booleans(), label="descending"):
            wanted.sort(reverse=True)
        else:
            wanted = data.draw(st.permutations(wanted), label="shuffled")
        empty_memos()
        with count_work() as work:
            for i in wanted:
                assert monomial_twisted(i, 0, p, a, through).coeffs == _image_oracle(i, p, a, through), i
        assert work["images"] == max(wanted) + 1


class TestProjectionRule:
    def test_examples(self):
        assert projection_rule_check(TruncPoly.monomial(3), TruncPoly.of([1, 1]), 2)
        assert projection_rule_check(TruncPoly.of([4, 0, 2]), TruncPoly.of([1]), 3)

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
        # phi and psi are additions-only Taylor shifts through the S-basis kernel
        functions = {
            node.name: node for node in _module_tree("psi_series").body
            if isinstance(node, ast.FunctionDef)
        }
        for name in ("psi_apply", "phi_apply", "_s_basis", "_shift_by_one"):
            called = {
                getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                for node in ast.walk(functions[name]) if isinstance(node, ast.Call)
            }
            assert not called & {"binom", "comb", "binom_product"}, name
