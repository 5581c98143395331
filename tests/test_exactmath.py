from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cycpsi import (
    NotPIntegralError,
    SweepGrid,
    binom,
    congruent_mod_p_power,
    factorial,
    is_prime,
    ord_p,
)
from cycpsi.coefficients import _require_prime_power
from oracles import binom_product, congruent_by_valuation

PRIMES = (2, 3, 5, 7)


class TestBinom:
    @pytest.mark.parametrize(
        "x, k, expected",
        [
            (5, 3, 10),
            (-7, 0, 1),
            (0, 0, 1),
            (12, 0, 1),
            (-2, 2, 3),
            (3, -1, 0),
            (2, 5, 0),
            (-1, 3, -1),
        ],
    )
    def test_values(self, x, k, expected):
        assert binom(x, k) == expected

    def test_against_product_formula(self):
        for x in range(-12, 13):
            for k in range(-3, 13):
                assert binom(x, k) == binom_product(x, k), (x, k)

    @given(st.integers(-200, 200), st.integers(1, 40))
    def test_pascal_recurrence(self, x, k):
        assert binom(x, k) == binom(x - 1, k - 1) + binom(x - 1, k)

    def test_factorial_identity(self):
        for x in range(0, 31):
            for k in range(0, x + 1):
                assert binom(x, k) * factorial(k) == factorial(x) // factorial(x - k)


class TestOrdP:
    def test_examples(self):
        assert ord_p(72, 3) == 2
        assert ord_p(-9, 3) == 2

    def test_rationals(self):
        assert ord_p(Fraction(1, 3), 3) == -1
        assert ord_p(Fraction(9, 2), 3) == 2

    def test_rejects_non_prime(self):
        with pytest.raises(ValueError):
            ord_p(10, 4)

    @pytest.mark.parametrize("zero", [0, Fraction(0)])
    def test_refuses_zero(self, zero):
        # every bound on a valuation is decided by divisibility, so nothing needs ord_p(0)
        with pytest.raises(ValueError, match="^ord_5 needs a nonzero value, got 0$"):
            ord_p(zero, 5)

    @given(
        st.integers(-10**6, 10**6).filter(lambda v: v != 0),
        st.integers(-10**6, 10**6).filter(lambda v: v != 0),
        st.sampled_from(PRIMES),
    )
    def test_additivity(self, x, y, p):
        assert ord_p(x * y, p) == ord_p(x, p) + ord_p(y, p)


@st.composite
def _congruence_cases(draw):
    """(x, y, p): integers and rationals, with p in the numerator or the
    denominator, zero, and y drawn as x, as x plus a multiple of a power of p,
    or on its own."""
    p = draw(st.sampled_from(PRIMES))

    def rational():
        num = draw(st.integers(-30, 30)) * p ** draw(st.integers(0, 4))
        den = draw(st.integers(1, 12)) * p ** draw(st.integers(0, 1))
        return draw(st.sampled_from([num // den, Fraction(num, den)]))

    x = rational()
    y = draw(st.sampled_from(["same", "shifted", "own"]))
    if y == "same":
        return x, x, p
    if y == "shifted":
        return x, x + rational() * p ** draw(st.integers(0, 4)), p
    return x, rational(), p


class TestCongruence:
    def test_integer_case(self):
        assert congruent_mod_p_power(10, 1, 3, 1)
        assert not congruent_mod_p_power(10, 2, 3, 1)

    def test_rational_case(self):
        # 1/2 - 2 = -3/2 has 3-adic valuation 1
        assert congruent_mod_p_power(Fraction(1, 2), 2, 3, 1)
        assert not congruent_mod_p_power(Fraction(1, 2), 2, 3, 2)

    def test_rejects_non_integral(self):
        with pytest.raises(NotPIntegralError):
            congruent_mod_p_power(Fraction(1, 3), 0, 3, 1)

    def test_rejects_bad_exponent(self):
        with pytest.raises(ValueError):
            congruent_mod_p_power(1, 1, 3, 0)

    def test_zero_sides(self):
        # a zero difference is congruent at every exponent; a zero side is p-integral
        assert congruent_mod_p_power(0, Fraction(0), 5, 3)
        assert congruent_mod_p_power(Fraction(125, 2), 0, 5, 3)
        assert not congruent_mod_p_power(Fraction(125, 2), 0, 5, 4)
        with pytest.raises(NotPIntegralError):
            congruent_mod_p_power(0, Fraction(2, 5), 5, 1)

    @given(_congruence_cases(), st.integers(1, 3))
    @example((0, 0, 3), 3)
    @example((Fraction(9, 2), Fraction(-9, 4), 3), 3)
    @example((Fraction(9, 2), 0, 3), 3)
    @example((Fraction(1, 3), Fraction(1, 3), 3), 1)
    def test_matches_valuation_oracle(self, case, e):
        x, y, p = case
        want = congruent_by_valuation(x, y, p, e)
        if want is None:
            with pytest.raises(NotPIntegralError):
                congruent_mod_p_power(x, y, p, e)
        else:
            assert congruent_mod_p_power(x, y, p, e) is want


def test_is_prime_small():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1)
    assert not is_prime(-3)


def test_is_prime_memo_is_bounded():
    # nothing clears it, so a long-lived process asking about many moduli must not grow it without end
    for n in range(1000):
        is_prime(n)
    assert is_prime.cache_info().maxsize == 128 and is_prime.cache_info().currsize <= 128


class TestNonIntegerPrimes:
    """Only an int can be a prime p or an exponent a."""

    def test_is_prime(self):
        assert not is_prime(2.5)
        assert is_prime(3) and not is_prime(3.0)  # the entry of 3 is not read back for 3.0

    def test_ord_p(self):
        with pytest.raises(ValueError, match=r"^p must be prime, got 3\.5$"):
            ord_p(9, 3.5)

    def test_sweep_grid(self):
        with pytest.raises(ValueError, match=r"^p must be prime, got 3\.0$"):
            SweepGrid(primes=(3.0,))

    def test_prime_power_with_a_warm_cache(self):
        _require_prime_power(3, 1)
        with pytest.raises(ValueError, match=r"^p must be prime, got 3\.0$"):
            _require_prime_power(3.0, 1.0)
        with pytest.raises(ValueError, match=r"^a must be >= 1, got 1\.0$"):
            _require_prime_power(3, 1.0)
