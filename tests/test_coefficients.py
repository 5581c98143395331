import copy
import tracemalloc
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cycpsi.coefficients as coefficients
import oracles
from cycpsi import (
    IntegrityError,
    fleck_sum_general,
    floor_exponent,
    index_reduction_identity,
    normalized_parts,
    recurrence_residue,
    t_coeff,
    totient_prime_power,
    verifier,
)
from cycpsi.coefficients import factorization_sides, normalized, normalized_table
from cycpsi.exactmath import is_prime
from oracles import fleck_oracle, index_reduction_oracle, modulus_factorization_identity
from work import count_work, empty_memos, work_of


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

    # lem3.1's right side sums at moduli d q <= 81 and classes d r + t down to -92, with n <= 40;
    # r runs past n, so some sums take every term at j = (k - r)/m < 0, and l runs past j
    @given(st.tuples(st.integers(0, 45), st.integers(1, 81)).flatmap(lambda nm: st.tuples(
        st.just(nm[0]), st.integers(-100, nm[0] + 2 * nm[1]), st.just(nm[1]), st.integers(0, 6))))
    @example((45, -45, 81, 6))  # one term, at j = 1 < l
    @example((45, -100, 9, 6))  # every j in [12, 16]
    @example((45, 20, 7, 4))  # j from -2 to 3
    @example((30, 120, 50, 3))  # every j negative
    @settings(max_examples=300, deadline=None)
    def test_against_oracle_at_composite_moduli(self, args):
        assert coefficients._direct_fleck_sum(*args) == fleck_oracle(*args)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            fleck_sum_general(-1, 0, 2, 0)
        with pytest.raises(ValueError):
            fleck_sum_general(1, 0, 0, 0)
        with pytest.raises(ValueError):
            fleck_sum_general(1, 0, 2, -1)

    @given(st.integers(0, 150), st.integers(-60, 200), st.integers(1, 30), st.integers(0, 6))
    @example(6, 20, 3, 4)  # every k has k < r, so every (k - r)/m is negative
    @example(10, -7, 4, 6)
    @settings(max_examples=100, deadline=None)
    def test_one_pass_row_matches_every_sum(self, n, r, m, l_max):
        with count_work() as work:
            row = coefficients._fleck_row(n, r, m, l_max)
        assert work == Counter(fleck_rows=1)  # the row stores no sum
        assert row == [fleck_sum_general(n, r, m, l) for l in range(l_max + 1)]

    @given(st.integers(0, 60), st.integers(1, 90), st.integers(0, 6))
    @example(5, 3, 2)  # l m > n: every sum is empty
    @example(4, 9, 0)  # m > n + 1: the residues 5..8 have no term
    @example(20, 4, 0)
    @settings(max_examples=150, deadline=None)
    def test_residue_row_matches_the_oracle(self, n, m, l):
        row = coefficients._fleck_residues(n, m, l)
        assert len(row) == min(n + 1, m)
        assert row == [fleck_oracle(n, r0, m, l) for r0 in range(len(row))]
        assert all(fleck_oracle(n, r0, m, l) == 0 for r0 in range(len(row), m))


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
        assert normalized_table(3, 1, 0) == {} and coefficients._sums == {}


class TestNormalizedMemo:
    def test_values_and_hits(self):
        # n = 15 lies off the record, which starts at n = 0: one direct sum, then a read
        for expected in (Counter(normalized_parts=1, direct_sums=1), Counter()):
            with count_work() as work:
                assert normalized(3, 2, 15, 1, 0) == 332
            assert work == expected

    def test_a_row_serves_a_smaller_n_after_a_larger_one(self):
        want = normalized_parts(3, 2, 4, 1, 0)[2]
        with count_work() as work:
            assert [normalized(3, 2, n, 1, 0) for n in (15, 4, 15, 4)] == [332, want, 332, want]
        assert work == Counter(normalized_parts=2, direct_sums=2)

    def test_a_negative_n_is_refused_and_stores_nothing(self):
        values = [normalized_parts(3, 1, n, 0, 0)[2] for n in range(4)]
        # refused, so the record then starts at n = 0 as from empty memos; and with a row in place,
        # n = -1 must not read its last entry
        for expected in (Counter(steps=3, fill_writes=4), Counter()):
            with pytest.raises(ValueError, match="^n must be >= 0, got -1$"):
                normalized(3, 1, -1, 0, 0)
            with count_work() as work:
                assert [normalized(3, 1, n, 0, 0) for n in range(4)] == values
            assert work == expected

    def test_validates_the_prime_power(self):
        for args, message in (((4, 1), "p must be prime, got 4"), ((3, 0), "a must be >= 1, got 0")):
            with pytest.raises(ValueError, match=message):
                normalized(*args, 0, 0, 0)

    def test_each_prime_power_is_validated_once(self):
        # every query checks (p, a), and is_prime's cache runs the primality test once per prime
        is_prime.cache_clear()
        for n in range(5):
            assert normalized(3, 1, n, 0, 0) == normalized_parts(3, 1, n, 0, 0)[2]
        assert is_prime.cache_info().misses == 1
        # a refusal raises every time: both routes refuse p = 4 on each call
        for _ in range(2):
            for fn in (normalized_parts, normalized):
                with pytest.raises(ValueError, match="^p must be prime, got 4$"):
                    fn(4, 1, 1, 0, 0)
        assert is_prime.cache_info().misses == 2

    def test_clear_caches_empties_both_memos(self):
        # a row value summed directly and a memoized Fleck sum are worked out again
        def ask():
            normalized(2, 1, 4, 0, 0)
            t_coeff(2, 1, 4, 0, 0)

        first, again = work_of(ask), work_of(ask)
        coefficients.clear_caches()
        assert work_of(ask) == first == Counter(normalized_parts=1, direct_sums=1, memo_sums=1)
        assert again == Counter()

    # (p, a, n, r, l) with r < 0, asked in a random order first
    @given(st.lists(st.tuples(st.sampled_from((2, 3, 5, 7)), st.integers(1, 3), st.integers(0, 300),
                              st.integers(-60, -1), st.integers(0, 5)), min_size=1, max_size=6),
           st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_memo_matches_direct_route_and_oracle(self, coeffs, rng):
        coefficients.clear_caches()
        warm = list(coeffs)
        rng.shuffle(warm)
        for args in warm:
            normalized(*args)
        # every value asked is kept
        with count_work() as work:
            kept = [normalized(*args) for args in coeffs]
        assert work == Counter()
        for (p, a, n, r, l), value in zip(coeffs, kept):
            raw = fleck_oracle(n, r, p**a, l)
            # the guaranteed power of p, written out independently of floor_exponent
            e = (n - p ** (a - 1) - l * p**a) // ((p - 1) * p ** (a - 1))
            want = raw // p**e if e >= 0 else raw * p ** (-e)
            if e >= 0:
                assert raw % p**e == 0
            assert value == normalized_parts(p, a, n, r, l)[2] == want


# prime powers up to 125, each with p^a > 1
FILL_MODULI = [(2, 1), (2, 3), (2, 6), (3, 1), (3, 2), (3, 4), (5, 1), (5, 3), (7, 2), (11, 1)]


class TestPascalFill:
    @given(
        st.sampled_from(FILL_MODULI),
        st.integers(0, 2),
        st.lists(st.sampled_from((0, 1, 1, 1, 1, 2, 9)), max_size=300),
        # rows (k, residue, l, first query): r = k p^a + residue % p^a, asked from the first query on
        st.lists(st.tuples(st.integers(-5, 1), st.integers(0, 124), st.integers(0, 6), st.integers(0, 40)),
                 min_size=1, max_size=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_ascending_queries_match_the_direct_route(self, prime_power, start, steps, rows):
        coefficients.clear_caches()
        p, a = prime_power
        m = p ** a
        n = start
        for index, step in enumerate(steps):
            n += step
            if n > 300:
                break
            for k, residue, l, first in rows:
                if index >= first:
                    r = k * m + residue % m
                    # a query another row's step has filled reads the value the fill wrote
                    assert normalized(p, a, n, r, l) == normalized_parts(p, a, n, r, l)[2]

    def test_a_trapped_step_raises_the_direct_text_and_stores_nothing(self, monkeypatch):
        # the first n whose sum p^floor_exponent divides but p^(floor_exponent + 1) does not
        n = next(n for n in range(1, 40)
                 if floor_exponent(3, 1, n, 0) >= 0 and normalized_parts(3, 1, n, 1, 0)[2] % 3)
        for k in range(n):
            normalized(3, 1, k, 1, 0)
        before = copy.deepcopy(normalized_table(3, 1, 0))
        assert coefficients._sums[3, 1, 0][0] == n - 1 and list(before) == [1]
        exponent = coefficients.floor_exponent
        monkeypatch.setattr(coefficients, "floor_exponent", lambda p, a, n, l: exponent(p, a, n, l) + 1)
        with pytest.raises(IntegrityError) as direct:
            normalized_parts(3, 1, n, 1, 0)
        assert str(direct.value).startswith(f"p^{exponent(3, 1, n, 0) + 1} does not divide the sum")
        with pytest.raises(IntegrityError) as filled:
            normalized(3, 1, n, 1, 0)
        assert str(filled.value) == str(direct.value)
        # the rows are as before; the record has stepped to n, where the next read finds it
        assert normalized_table(3, 1, 0) == before
        assert coefficients._sums[3, 1, 0][0] == n
        monkeypatch.undo()
        assert normalized(3, 1, n, 1, 0) == normalized_parts(3, 1, n, 1, 0)[2]

    def test_a_trapped_or_refused_first_step_stores_no_value(self, monkeypatch):
        for n in (0, 1):
            with pytest.raises(ValueError, match="^l must be >= 0, got -1$"):
                normalized(3, 1, n, 0, -1)
        assert normalized_table.cache_info().currsize == 0 and coefficients._sums == {}
        # S(1, 0, 3, 0) = 1, which p^5 does not divide
        monkeypatch.setattr(coefficients, "floor_exponent", lambda p, a, n, l: 5)
        with pytest.raises(IntegrityError, match=r"^p\^5 does not divide the sum 1 \(p=3, a=1, n=1, r=0, l=0\)$"):
            normalized(3, 1, 1, 0, 0)
        # the record has stepped to n = 1, but the table holds no row
        assert normalized_table(3, 1, 0) == {} and coefficients._sums == {(3, 1, 0): (1, [[1, -1]])}
        assert normalized_table.cache_info().currsize == 1

    def test_only_a_miss_at_or_one_past_the_state_is_filled(self):
        def asked(*queries, p=3, a=2, l=1) -> Counter:
            with count_work() as work:
                values = [normalized(p, a, n, r, l) for n, r in queries]
            assert values == [normalized_parts(p, a, n, r, l)[2] for n, r in queries]
            return work

        direct = Counter(normalized_parts=1, direct_sums=1)
        # an isolated query far from n = 0 is one direct sum and makes no record, so n = 0 starts one
        assert asked((10_000, 7), p=5, a=3, l=2) == direct
        assert asked((0, 7), p=5, a=3, l=2) == Counter(fill_writes=1)
        assert asked(*((n, 4) for n in (0, 1, 2, 2, 3))) == Counter(steps=3, fill_writes=4)
        # a new row at the state's n, one past it, behind it, and two past it: the step to 4 writes
        # every row the state holds
        assert [asked((n, r)) for n, r in ((3, 5), (4, 6), (2, 7), (6, 4))] == [
            Counter(fill_writes=1), Counter(steps=1, fill_writes=3), direct, direct]
        # rows made since are written from the next step on, 7's included
        assert asked((5, 4)) == Counter(steps=1, fill_writes=4)
        assert asked(*((n, 4) for n in range(7)), (3, 5), (4, 5), (4, 6), *((5, r) for r in (5, 6, 7))) == Counter()
        assert asked((2, 5)) == direct

    def test_clear_caches_drops_the_states(self):
        # the record at n = 1 steps to n = 2; once it is dropped, n = 2 is summed directly
        for n in (0, 1):
            normalized(2, 1, n, 0, 0)
        assert work_of(normalized, 2, 1, 2, 0, 0) == Counter(steps=1, fill_writes=1)
        coefficients.clear_caches()
        assert work_of(normalized, 2, 1, 2, 0, 0) == Counter(normalized_parts=1, direct_sums=1)

    def test_a_record_holds_only_the_residues_up_to_its_n(self):
        # raw sums for all p^a (l + 1) = 4,121,204 residues from n = 0 would peak at ~31 MiB here
        tracemalloc.start()
        try:
            assert normalized(101, 3, 0, 0, 3) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_values_stay_correct_after_a_bare_cache_clear(self):
        # the tracer empties the rows by normalized_table.cache_clear() alone, and the record stays at its n
        for n in range(41):
            normalized(3, 1, n, 2, 1)
        normalized_table.cache_clear()
        assert coefficients._sums[3, 1, 1][0] == 40
        want = [normalized_parts(3, 1, n, 2, 1)[2] for n in range(41)]
        with count_work() as work:
            assert [normalized(3, 1, n, 2, 1) for n in range(41)] == want
        # every n behind the record is summed directly
        assert work == Counter(normalized_parts=40, direct_sums=40, fill_writes=1)
        # clear_caches empties the rows and the records together, so the record steps from n = 0 again
        coefficients.clear_caches()
        with count_work() as work:
            assert [normalized(3, 1, n, 2, 1) for n in range(41)] == want
        assert work == Counter(steps=40, fill_writes=41)


# the moduli q = p^a of the raw-sum record tests: 2, 4, 9 and 25
RECORD_MODULI = [(2, 1), (2, 2), (3, 2), (5, 2)]


class TestRawSumRecord:
    """The record _sums that normalized, psi-identity and thm1.0 step along n, against the oracle."""

    @pytest.mark.parametrize("p, a", RECORD_MODULI)
    def test_stepped_record_matches_the_oracle(self, p, a):
        q = p ** a
        for n in range(3 * q + 6):
            raw = coefficients._raw_at(p, a, n, 4)
            assert coefficients._sums[p, a, 4] == (n, raw)
            # every level at every residue r0 <= min(n, q - 1); a larger residue has no term
            assert raw == [[fleck_oracle(n, r0, q, l) for r0 in range(min(n + 1, q))] for l in range(5)]
            assert all(fleck_oracle(n, r0, q, l) == 0 for r0 in range(n + 1, q) for l in range(5))

    @pytest.mark.parametrize("p, a", RECORD_MODULI)
    def test_class_sums_match_the_oracle(self, p, a):
        # every class r in [-3q, 3q], read from the record at n at every level l <= 4 through one shift
        # of l_max = 4, with no step and no direct pass
        q = p ** a
        for n in (0, 1, 2, q - 1, q, q + 1, 2 * q + 3):
            coefficients._sums[p, a, 4] = n, [[fleck_oracle(n, r0, q, l) for r0 in range(min(n + 1, q))]
                                              for l in range(5)]
            for r in range(-3 * q, 3 * q + 1):
                assert work_of(coefficients._class_row, p, a, n, r, 4) == Counter(), (n, r)
                assert coefficients._class_row(p, a, n, r, 4) == [fleck_oracle(n, r, q, l) for l in range(5)], (n, r)

    def test_only_the_record_n_or_one_past_it_is_read(self):
        # a record starts at n = 0, so n = 2 is two past it, and a read that misses stores no record
        with count_work() as work:
            assert coefficients._raw_at(3, 1, 2, 1) is None
            assert coefficients._sums == {}
            for n in range(4):
                coefficients._raw_at(3, 1, n, 1)
        assert coefficients._sums[3, 1, 1][0] == 3 and work == Counter(steps=3)
        # at the record's n it reads without a step; behind it and two past it, it reads nothing
        with count_work() as work:
            assert coefficients._raw_at(3, 1, 3, 1) is coefficients._sums[3, 1, 1][1]
            assert coefficients._raw_at(3, 1, 2, 1) is None
            assert coefficients._raw_at(3, 1, 5, 1) is None
        assert coefficients._sums[3, 1, 1][0] == 3 and work == Counter()
        # each (p, a, l) has its own record
        assert coefficients._raw_at(3, 1, 1, 2) == [[1, -1], [0, 0], [0, 0]]
        assert set(coefficients._sums) == {(3, 1, 1), (3, 1, 2)}

    @given(st.sampled_from(FILL_MODULI[:7]), st.integers(0, 40), st.integers(-60, 60), st.integers(0, 4))
    @settings(max_examples=60, deadline=None)
    def test_a_record_stepped_to_n_reads_every_class(self, prime_power, n, r, l):
        p, a = prime_power
        q = p ** a
        coefficients._sums.clear()
        for k in range(n + 1):
            coefficients._raw_at(p, a, k, l)
        assert coefficients._class_row(p, a, n, r, l) == [fleck_oracle(n, r, q, i) for i in range(l + 1)]


    @given(
        st.sampled_from([(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)]),
        st.integers(0, 3),
        # (reader, step of n from the last read, r): n moves on by one mostly, and now and then stays,
        # jumps two ahead or falls behind
        st.lists(st.tuples(st.sampled_from(("normalized", "psi", "thm1.0")), st.sampled_from((0, 1, 1, 1, 2, -1, -4)),
                           st.integers(-30, 30)), min_size=1, max_size=60),
    )
    # thm1.0's bound n - 3 at (2, 1, 1) is positive from n = 4: it steps the record at 1 over 2..4 to read n = 5
    @example((2, 1), 1, [("psi", 0, 5), ("normalized", 1, -3), ("thm1.0", 2, 1), ("thm1.0", 2, -7),
                         ("thm1.0", 1, 4), ("normalized", 1, 2), ("thm1.0", -4, 9), ("psi", 2, 1), ("thm1.0", 1, -1)])
    @settings(max_examples=60, deadline=None)
    def test_three_readers_interleaved_on_one_record(self, prime_power, l, reads):
        p, a = prime_power
        q = p ** a
        empty_memos()
        n = 0
        for reader, step, r in reads:
            n = max(n + step, 0)
            if reader == "normalized":
                assert normalized(p, a, n, r, l) == normalized_parts(p, a, n, r, l)[2], (n, r)
            elif reader == "psi":
                got, want = verifier.psi_sides(p, a, n, r, l)
                assert want == [(-1) ** n * fleck_oracle(n, r, q, i) for i in range(l + 1)] == got, (n, r)
            else:
                # a stand-in verdict that returns the sum thm1.0 read for the class r; where the bound is
                # <= 0 it reads none, and a positive row steps a record lagging behind it up to n
                want = fleck_oracle(n, r, q, l) if floor_exponent(p, a, n, l) > 0 else None
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(verifier, "_ord_at_least", lambda value, bound, p: value)
                    got = verifier.CHECKS["thm1.0"].evaluate(p, a, l, n, (r,))
                    assert got == ([] if want is None else [(r, want)]), (n, r)

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
                            assert value.denominator % p != 0, (p, a, n, r, l, value)


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


@lru_cache(maxsize=None)
def _line_oracle(m: int, l: int, r: int, slope: int, i: int) -> int:
    """Value i of the line (m, l, r, slope), S(i, r + slope i, m, l), from the oracle."""
    return fleck_oracle(i, r + slope * i, m, l)


# one _line call (m, l, r, slope, length): composite moduli, classes and starts near each other so
# that calls meet stored neighbours (r - 1 at slope 0, r + 1 at slope 1), short ones and long ones
LINE_CALLS = st.lists(st.tuples(st.sampled_from((4, 6, 8, 9)), st.integers(0, 2), st.integers(-6, 4),
                                st.integers(0, 1), st.integers(0, 40)), min_size=1, max_size=14)


def _call_lines(calls, asked: dict) -> dict:
    """Make the calls in order; asked, updated to each key's longest call."""
    for m, l, r, slope, length in calls:
        assert len(coefficients._line(m, l, r, slope, length)) >= length
        asked[m, l, r, slope] = max(asked.get((m, l, r, slope), 0), length)
    return asked


def _assert_lines_match_the_oracle(asked: dict) -> None:
    # the store holds the lines asked for, each exactly as long as its longest call
    assert {key: len(line) for key, line in coefficients._lines.items()} == asked
    for key, line in coefficients._lines.items():
        assert line == [_line_oracle(*key, i) for i in range(len(line))], key


class TestLines:
    """The lines _line grows by Pascal's rule from stored neighbours, against the oracle."""

    @given(calls=LINE_CALLS, earlier=LINE_CALLS, data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_the_oracle_in_any_order(self, calls, earlier, data):
        # from empty memos, then in another order from a store that earlier calls partly filled
        coefficients.clear_caches()
        _assert_lines_match_the_oracle(_call_lines(calls, {}))
        coefficients.clear_caches()
        asked = _call_lines(data.draw(st.permutations(calls)), _call_lines(earlier, {}))
        _assert_lines_match_the_oracle(asked)

    def test_a_line_without_a_long_enough_neighbour_sums_directly(self):
        # line -1 (slope 0, m = 6) has no stored neighbour, so its 8 values are direct sums; line 0 then
        # takes its first value, S(0, 0) = binom(0, 1) = 0, and 8 more by one subtraction each
        with count_work() as work:
            coefficients._line(6, 1, -1, 0, 8)
            line = coefficients._line(6, 1, 0, 0, 9)
        assert work == Counter(direct_sums=8)
        assert line == [_line_oracle(6, 1, 0, 0, i) for i in range(9)]
        # asked for 12, line 0 needs 11 values of line -1, which holds 8: line 0 sums its 3 new values
        # directly, and line -1 is not grown
        assert work_of(coefficients._line, 6, 1, 0, 0, 12) == Counter(direct_sums=3)
        _assert_lines_match_the_oracle({(6, 1, -1, 0): 8, (6, 1, 0, 0): 12})


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

    @given(tuples=st.lists(st.tuples(st.integers(1, 30), st.integers(-12, 12), st.integers(1, 4),
                                     st.sampled_from((4, 6, 8, 9))), min_size=1, max_size=12),
           data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_the_oracle_on_composite_moduli(self, tuples, data):
        # tuples in any order grow the lines out of order; after clear_caches they grow again in another
        for order in (tuples, data.draw(st.permutations(tuples))):
            for n, r, l, m in order:
                assert index_reduction_identity(n, r, l, m) == index_reduction_oracle(n, r, l, m)
            coefficients.clear_caches()

    def test_a_wrong_direct_sum_fails_the_first_diagonal_grown_from_a_neighbour(self, monkeypatch):
        # lines that grow from each other by Pascal's rule agree with each other under a direct sum without
        # (-1)^k, so only the direct sum of a new diagonal's last value tells them apart. A diagonal summed
        # directly, or holding only S(0, c), which has no odd term, agrees with it; read in axis order, the
        # first diagonal that steps along a stored neighbour does not
        def unsigned(n, r, m, l):
            return sum(oracles.binom_product(n, k) * oracles.binom_product((k - r) // m, l)
                       for k in range(r % m, n + 1, m))

        monkeypatch.setattr(coefficients, "_direct_fleck_sum", unsigned)
        empty_memos()
        for n, r, l, m in product(range(1, 8), range(-3, 4), range(1, 3), range(1, 4)):
            s = r + m - n  # the diagonal (m, l - 1, s, 1) grows from the one that starts at s + 1
            if (m, l - 1, s, 1) not in coefficients._lines and n >= 2 and len(
                    coefficients._lines.get((m, l - 1, s + 1, 1), ())) >= n - 1:
                break
            index_reduction_identity(n, r, l, m)
        else:
            pytest.fail("no diagonal grew from a stored neighbour")
        with pytest.raises(IntegrityError, match=rf"^S\({n - 1}, {r + m - 1}, {m}, {l - 1}\) is -?\d+ on its line "
                                                 rf"but -?\d+ summed directly$"):
            index_reduction_identity(n, r, l, m)
        empty_memos()

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
        monkeypatch.setattr(oracles, "fleck_sum_general", lambda n, r, m, l: 1)
        with pytest.raises(IntegrityError):
            modulus_factorization_identity(2, 2, 5, 0, 1, 0)


# (d, n, t) of one signed row: t in {-2, -1, 0, d - 1}, each below d
FACTORIZATION_ROWS = st.integers(1, 6).flatmap(
    lambda d: st.tuples(st.just(d), st.integers(0, 30), st.sampled_from(sorted({-2, -1, 0, d - 1})))
)


def _pairs(sides: tuple[list[int], list[int]]) -> list[tuple[int, int]]:
    """factorization_sides' (lhs, rhs) lists as one (lhs, rhs) pair per l."""
    return list(zip(*sides))


class TestFactorizationSides:
    @given(q=st.integers(1, 6), r=st.integers(-10, 10), l=st.integers(0, 3),
           rows=st.lists(FACTORIZATION_ROWS, min_size=1, max_size=8))
    @example(q=2, r=-3, l=1, rows=[(1, 4, 0), (1, 30, -2), (3, 12, 2)])  # a short column, then extended
    @settings(max_examples=100, deadline=None)
    def test_matches_the_direct_form(self, q, r, l, rows):
        # the rows come in random order and share one column per l, which grows in place
        # whenever a longer row meets it; the memos persist from example to example
        for d, n, t in rows:
            assert _pairs(factorization_sides(d, q, n, r, t, (l,))) == [modulus_factorization_identity(d, q, n, r, t, l)]
            assert _pairs(factorization_sides(d, q, n, r, t, range(l, 4))) == [
                modulus_factorization_identity(d, q, n, r, t, k) for k in range(l, 4)]

    def test_a_column_grows_in_place(self):
        # the column S_2(j, -3, 1) of 5 values, then the 10 more a row of 15 needs; the signed row and the
        # right side are one _fleck_row pass each
        for (d, n, t), sums in (((1, 4, 0), 5), ((1, 12, -2), 10)):
            with count_work() as work:
                sides = factorization_sides(d, 2, n, -3, t, (1,))
            assert _pairs(sides) == [modulus_factorization_identity(d, 2, n, -3, t, 1)]
            assert work == Counter(fleck_rows=2, direct_sums=sums)

    def test_truncation_trap(self, monkeypatch):
        # a row whose entry past j_max does not vanish: nothing is stored
        monkeypatch.setattr(coefficients, "_fleck_row", lambda n, r, m, l_max: [0] * l_max + [1])
        with pytest.raises(IntegrityError, match=r"does not end at j = 2 \(d=2, q=2, n=5, r=0, t=1, l=2\)"):
            factorization_sides(2, 2, 5, 0, 1, range(2, 4))
        assert coefficients._signed_rows == {}

    def test_rejects_t_not_below_d(self):
        with pytest.raises(ValueError, match="need t < d"):
            factorization_sides(2, 3, 5, 0, 2, (0,))

    def test_refuses_q_and_l_on_a_row_hit(self):
        # the row of (d, n, t) = (2, 5, 1) is stored, so only q and the first l are checked again
        factorization_sides(2, 2, 5, 0, 1, (0,))
        with count_work() as work:
            for q, ls, message in ((0, (0,), "moduli must be positive, got d=2, q=0"),
                                   (2, (-1, 0), "need n, l >= 0, got n=5, l=-1")):
                with pytest.raises(ValueError, match=message):
                    factorization_sides(2, q, 5, 0, 1, ls)
        # no sum is made: neither the right side nor a column is summed
        assert work == Counter()

    def test_clear_caches_empties_both_memos(self):
        # the signed row and the column are summed again; a hit makes only the right side's pass
        args = 3, 2, 10, 1, 2, (1,)
        first, again = work_of(factorization_sides, *args), work_of(factorization_sides, *args)
        coefficients.clear_caches()
        assert work_of(factorization_sides, *args) == first == Counter(fleck_rows=2, direct_sums=3)
        assert again == Counter(fleck_rows=1)
