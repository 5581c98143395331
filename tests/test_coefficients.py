from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cycpsi.coefficients as coefficients
from cycpsi import (
    IntegrityError,
    fleck_sum_general,
    floor_exponent,
    index_reduction_identity,
    modulus_factorization_identity,
    normalized_parts,
    ord_p,
    recurrence_residue,
    t_coeff,
    totient_prime_power,
)
from cycpsi.coefficients import normalized, normalized_table
from oracles import fleck_oracle


class TestFleckSum:
    @pytest.mark.parametrize(
        "p, a, n, r, l, expected",
        [
            (3, 1, 5, 0, 0, -9),
            (3, 2, 15, 1, 0, 2988),
            (2, 3, 0, 0, 0, 1),
            (5, 1, 0, 0, 0, 1),
            (3, 1, 0, 0, 1, 0),
            (7, 2, 0, 0, 3, 0),
        ],
    )
    def test_spec_values(self, p, a, n, r, l, expected):
        assert fleck_sum_general(n, r, p**a, l) == expected

    def test_against_oracle(self):
        # the oracle iterates k over a wider window, so finite support is
        # checked rather than assumed
        for n in range(0, 13):
            for m in range(1, 7):
                for r in range(-5, 13):
                    for l in range(0, 4):
                        assert fleck_sum_general(n, r, m, l) == fleck_oracle(n, r, m, l)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            fleck_sum_general(-1, 0, 2, 0)
        with pytest.raises(ValueError):
            fleck_sum_general(1, 0, 0, 0)
        with pytest.raises(ValueError):
            fleck_sum_general(1, 0, 2, -1)


class TestNormalized:
    @pytest.mark.parametrize(
        "p, a, n, r, l, raw, exponent, normalized",
        [
            (3, 1, 5, 0, 0, -9, 2, -1),
            (3, 2, 15, 1, 0, 2988, 2, 332),
            (2, 1, 4, 0, 0, 8, 3, 1),
            # negative exponent scales the sum up by a power of p
            (2, 1, 1, -1, 1, -1, -2, -4),
            (3, 1, 0, 0, 0, 1, -1, 3),
        ],
    )
    def test_values(self, p, a, n, r, l, raw, exponent, normalized):
        assert normalized_parts(p, a, n, r, l) == (raw, exponent, normalized)
        assert floor_exponent(p, a, n, l) == exponent

    def test_reconstruction(self):
        for p, a in ((2, 1), (2, 2), (3, 1), (5, 1)):
            for n in range(0, 25):
                for r in (-2, 0, 1):
                    for l in (0, 1, 2):
                        raw, e, norm = normalized_parts(p, a, n, r, l)
                        if e >= 0:
                            assert raw == norm * p**e
                        else:
                            assert norm == raw * p ** (-e)

    def test_totient(self):
        assert totient_prime_power(3, 2) == 6
        assert totient_prime_power(2, 1) == 1
        assert totient_prime_power(5, 3) == 100

    def test_query_validation(self):
        bad = [
            ((4, 1, 0, 0, 0), "p must be prime, got 4"),
            ((3, 0, 0, 0, 0), "a must be >= 1, got 0"),
            ((3, 1, -1, 0, 0), "n must be >= 0, got -1"),
            ((3, 1, 0, 0, -1), "l must be >= 0, got -1"),
        ]
        for args, message in bad:
            for fn in (normalized_parts, t_coeff):
                with pytest.raises(ValueError, match=message):
                    fn(*args)

    def test_integrity_trap(self, monkeypatch):
        # force a sum that the guaranteed power of p cannot divide
        coefficients.clear_caches()
        monkeypatch.setattr(coefficients, "_direct_fleck_sum", lambda n, r, m, l: 7)
        with pytest.raises(IntegrityError):
            coefficients.normalized_parts(3, 1, 11, 1, 0)
        monkeypatch.undo()
        coefficients.clear_caches()

    def test_integrity_trap_through_the_memo(self, monkeypatch):
        # a memo miss goes through normalized_parts, so the trap fires and nothing is stored
        monkeypatch.setattr(coefficients, "_direct_fleck_sum", lambda n, r, m, l: 7)
        with pytest.raises(IntegrityError):
            normalized(3, 1, 11, 1, 0)
        assert normalized_table(3, 1) == {}


class TestNormalizedMemo:
    def test_values_and_hits(self):
        assert normalized(3, 2, 15, 1, 0) == 332
        assert normalized_table(3, 2) == {(15, 1, 0): 332}
        assert normalized(3, 2, 15, 1, 0) == 332
        assert normalized_table.cache_info().currsize == 1

    def test_validates_the_prime_power(self):
        for args, message in (((4, 1), "p must be prime, got 4"), ((3, 0), "a must be >= 1, got 0")):
            with pytest.raises(ValueError, match=message):
                normalized(*args, 0, 0, 0)
        assert normalized_table.cache_info().currsize == 0

    def test_clear_caches_empties_both_memos(self):
        normalized(2, 1, 4, 0, 0)
        fleck_sum_general(4, 0, 2, 0)
        coefficients.clear_caches()
        assert normalized_table.cache_info().currsize == 0
        assert fleck_sum_general.cache_info().currsize == 0

    @given(
        st.lists(
            st.tuples(
                st.sampled_from((2, 3, 5, 7)),
                st.integers(1, 3),
                st.integers(0, 300),
                st.integers(-60, -1),
                st.integers(0, 5),
            ),
            min_size=1,
            max_size=6,
        ),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_memo_matches_direct_route_and_oracle(self, coeffs, rng):
        coefficients.clear_caches()
        warm = list(coeffs)
        rng.shuffle(warm)
        for args in warm:
            normalized(*args)
        for p, a, n, r, l in coeffs:
            raw = fleck_oracle(n, r, p**a, l)
            # the guaranteed power of p, written out independently of floor_exponent
            e = (n - p ** (a - 1) - l * p**a) // ((p - 1) * p ** (a - 1))
            want = raw // p**e if e >= 0 else raw * p ** (-e)
            if e >= 0:
                assert raw % p**e == 0
            assert normalized_table(p, a)[n, r, l] == normalized(p, a, n, r, l) == want
            assert normalized_parts(p, a, n, r, l)[2] == want


class TestTCoeff:
    @pytest.mark.parametrize(
        "p, a, n, r, l, expected",
        [
            (2, 1, 2, 0, 0, Fraction(1)),
            (2, 2, 2, 0, 0, Fraction(1)),
            (3, 1, 0, 0, 0, Fraction(1)),
            (5, 1, 0, 0, 0, Fraction(1)),
        ],
    )
    def test_values(self, p, a, n, r, l, expected):
        assert t_coeff(p, a, n, r, l) == expected

    def test_p_integrality_on_grid(self):
        for p in (2, 3, 5):
            for a in (1, 2):
                for n in range(0, 20):
                    for r in (-1, 0, 1, p):
                        for l in (0, 1, 2):
                            value = t_coeff(p, a, n, r, l)
                            assert ord_p(value, p) >= 0, (p, a, n, r, l, value)


class TestRecurrence:
    @pytest.mark.parametrize(
        "p, a, n, r, l",
        [(3, 1, 5, 0, 1), (2, 1, 3, 0, 1), (2, 2, 4, 1, 1), (5, 1, 9, 2, 2), (3, 2, 12, -1, 3)],
    )
    def test_matches_normalized(self, p, a, n, r, l):
        assert recurrence_residue(p, a, n, r, l) == normalized_parts(p, a, n, r, l)[2] % p

    def test_preconditions(self):
        with pytest.raises(ValueError):
            recurrence_residue(3, 1, 5, 0, 0)
        with pytest.raises(ValueError):
            recurrence_residue(3, 1, 0, 0, 1)
        with pytest.raises(ValueError, match="a must be >= 1"):
            recurrence_residue(3, 0, 5, 0, 1)


class TestIndexReduction:
    @pytest.mark.parametrize(
        "n, r, l, m",
        [(4, 0, 1, 3), (1, 0, 1, 2), (5, -2, 2, 4), (7, 3, 2, 6), (9, -7, 3, 8)],
    )
    def test_spec_tuples(self, n, r, l, m):
        left, right = index_reduction_identity(n, r, l, m)
        assert left == right

    def test_small_grid_includes_composite_moduli(self):
        for n in range(1, 11):
            for r in range(-4, 5):
                for l in range(1, 4):
                    for m in range(1, 7):
                        left, right = index_reduction_identity(n, r, l, m)
                        assert left == right, (n, r, l, m)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            index_reduction_identity(0, 0, 1, 2)
        with pytest.raises(ValueError):
            index_reduction_identity(1, 0, 0, 2)
        with pytest.raises(ValueError):
            index_reduction_identity(1, 0, 1, 0)


class TestModulusFactorization:
    @pytest.mark.parametrize(
        "d, q, n, r, t, l",
        [
            (2, 2, 5, 0, 1, 0),
            (3, 9, 10, 0, 2, 1),
            (2, 3, 0, 0, 0, 0),
            (4, 3, 11, -2, -1, 2),
            # no k in [0, n] is congruent to t mod d: the j-sum is empty
            (5, 2, 2, 1, 4, 0),
            (5, 3, 2, 1, -1, 0),
            # negative t with n < d; the sum is nonzero
            (4, 2, 2, -1, -3, 1),
        ],
    )
    def test_spec_tuples(self, d, q, n, r, t, l):
        lhs, rhs = modulus_factorization_identity(d, q, n, r, t, l)
        assert lhs == rhs
        # the combined-modulus side is also checked against the naive oracle
        assert rhs == fleck_oracle(n, d * r + t, d * q, l)

    def test_trivial_case(self):
        assert modulus_factorization_identity(2, 3, 0, 0, 0, 0) == (1, 1)

    def test_rejects_t_not_below_d(self):
        with pytest.raises(ValueError):
            modulus_factorization_identity(2, 3, 5, 0, 2, 0)

    def test_truncation_trap(self, monkeypatch):
        # a first factor that never vanishes: the j-sum cannot end at j_max
        monkeypatch.setattr(coefficients, "fleck_sum_general", lambda n, r, m, l: 1)
        with pytest.raises(IntegrityError):
            modulus_factorization_identity(2, 2, 5, 0, 1, 0)
