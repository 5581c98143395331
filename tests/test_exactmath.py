from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cycpsi import (
    INFINITE,
    NotPIntegralError,
    binom,
    congruent_mod_p_power,
    factorial,
    is_prime,
    ord_p,
)
from oracles import binom_product

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
        assert ord_p(0, 5) is INFINITE
        assert ord_p(-9, 3) == 2

    def test_rationals(self):
        assert ord_p(Fraction(1, 3), 3) == -1
        assert ord_p(Fraction(9, 2), 3) == 2
        assert ord_p(Fraction(0), 7) is INFINITE

    def test_rejects_non_prime(self):
        with pytest.raises(ValueError):
            ord_p(10, 4)

    @given(
        st.integers(-10**6, 10**6).filter(lambda v: v != 0),
        st.integers(-10**6, 10**6).filter(lambda v: v != 0),
        st.sampled_from(PRIMES),
    )
    def test_additivity(self, x, y, p):
        assert ord_p(x * y, p) == ord_p(x, p) + ord_p(y, p)

    def test_infinite_ordering(self):
        assert INFINITE > 10**9
        assert not INFINITE < 5
        assert INFINITE >= INFINITE
        assert INFINITE == INFINITE
        assert 5 < INFINITE
        assert not 5 >= INFINITE
        assert (INFINITE + 3) is INFINITE
        assert (3 + INFINITE) is INFINITE


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


def test_is_prime_small():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1)
    assert not is_prime(-3)


def test_is_prime_memo_is_bounded():
    # nothing clears it, so a long-lived process asking about many moduli must not grow it without end
    for n in range(1000):
        is_prime(n)
    assert is_prime.cache_info().maxsize == 128 and is_prime.cache_info().currsize <= 128
