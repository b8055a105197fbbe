import functools
import math
import tracemalloc
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from collision_lab import analytics
from collision_lab.analytics import (
    LITERAL_CAP,
    BucketSpace,
    CollisionPmf,
    _eulerian_window,
    _log_falling_series,
    _pmf_eulerian,
    _pmf_exact_rational,
    _pmf_log_domain,
    _pmf_occupancy,
    _window_bound,
    collision_pmf_exact,
    collision_probability,
    collision_probability_naive,
    collision_probability_pbirthday,
    expected_collisions,
    expected_collisions_naive,
    min_bits_for_expected,
    pbirthday_sequence_length,
    probability_error_curve,
    sample_size_for_expected,
    stirling2,
    stirling_log_row,
)
from collision_lab.errors import BracketingError, CapacityError, DomainError
from collision_lab.stable_math import sum_log1p

N_HEADLINE = 10 ** 6


def k(bits):
    return BucketSpace.power_of_two(bits)


def oracle_collision_probability(n, space, chunk=1 << 20):
    """Slow reference: -expm1 of the compensated sum of all n-1 log1p(-i/b)
    terms, chunked, the O(n) evaluation the power-sum series replaced."""
    if n <= 1:
        return 0.0
    if n > space.count:
        return 1.0
    bf = float(space.count)
    partials = []
    for lo in range(1, n, chunk):
        i = np.arange(lo, min(n, lo + chunk), dtype=np.float64)
        partials.append(sum_log1p(-(i / bf)))
    return -math.expm1(math.fsum(partials))


def exact_collision_probability(n, b):
    """1 - prod_{i<n} (b - i)/b as an exact rational."""
    prod = Fraction(1)
    for i in range(n):
        prod *= Fraction(b - i, b)
    return 1 - prod


def ulps_apart(x, y):
    return abs(x - y) / math.ulp(max(abs(x), abs(y)))


spaces = st.one_of(st.integers(1, 64).map(k),
                   st.integers(1, 2 ** 63).map(BucketSpace.exact),
                   st.integers(1, 4 * 10 ** 5).map(BucketSpace.exact))


class TestBucketSpace:
    def test_power_of_two_is_exact(self):
        s = k(64)
        assert s.count == 2 ** 64
        assert s.inv_count == 2.0 ** -64
        assert all(k(bits).inv_count == 2.0 ** -bits for bits in range(1, 65))

    def test_exact_space(self):
        s = BucketSpace.exact(365)
        assert s.count == 365
        assert s.bits is None

    @pytest.mark.parametrize("bad", [0, 65, -3])
    def test_bits_range(self, bad):
        with pytest.raises(ValueError):
            BucketSpace.power_of_two(bad)

    def test_exact_range(self):
        with pytest.raises(ValueError):
            BucketSpace.exact(0)
        with pytest.raises(ValueError):
            BucketSpace.exact(2 ** 63 + 1)

    def test_mismatched_fields_rejected(self):
        with pytest.raises(ValueError):
            BucketSpace(bits=4, count=17)


class TestExpectedCollisions:
    def test_headline_32bit(self):
        assert expected_collisions(N_HEADLINE, k(32)) == pytest.approx(116.4062, abs=1e-4)
        assert expected_collisions_naive(N_HEADLINE, k(32)) == pytest.approx(116.4062, abs=1e-4)

    def test_52bit(self):
        assert expected_collisions(N_HEADLINE, k(52)) == pytest.approx(0.0001110223, rel=1e-6)

    def test_64bit(self):
        assert expected_collisions(N_HEADLINE, k(64)) == pytest.approx(2.712477e-08, rel=1e-6)

    def test_trivial(self):
        assert expected_collisions(0, k(32)) == 0.0
        assert expected_collisions(1, k(32)) == 0.0
        assert expected_collisions_naive(0, k(32)) == 0.0

    def test_single_bucket(self):
        assert expected_collisions(5, BucketSpace.exact(1)) == 4.0

    def test_naive_pathology_at_54_and_beyond(self):
        for bits in range(54, 65):
            assert expected_collisions_naive(N_HEADLINE, k(bits)) == float(N_HEADLINE)

    def test_pathology_onset_is_exactly_54(self):
        first = min(b for b in range(1, 65) if 1.0 - 2.0 ** -b == 1.0)
        assert first == 54
        assert 1.0 - 2.0 ** -53 != 1.0

    def test_agreement_region(self):
        # The naive form computes n - b*(1 - p^n) with p^n carrying a
        # half-ulp rounding that the cancellation amplifies by b: the
        # achievable agreement is |naive - stable| <= 2^(k-53).  Relative
        # 1e-6 agreement holds through k = 36; beyond that the absolute
        # bound is the honest statement (measured: k=38 differs by 8e-6
        # relative even with a correctly rounded pow).
        for bits in range(32, 37):
            naive = expected_collisions_naive(N_HEADLINE, k(bits))
            stable = expected_collisions(N_HEADLINE, k(bits))
            assert abs(naive - stable) <= 1e-6 * stable
        for bits in range(32, 41):
            naive = expected_collisions_naive(N_HEADLINE, k(bits))
            stable = expected_collisions(N_HEADLINE, k(bits))
            assert abs(naive - stable) <= 2.0 ** (bits - 53)

    def test_strictly_decreasing_in_k(self):
        values = [expected_collisions(N_HEADLINE, k(b)) for b in range(1, 65)]
        assert all(a > b for a, b in zip(values, values[1:]))

    @given(st.integers(min_value=0, max_value=10 ** 9),
           st.integers(min_value=1, max_value=64))
    @settings(max_examples=60)
    def test_bounds(self, n, bits):
        e = expected_collisions(n, k(bits))
        assert 0.0 <= e <= max(0, n - 1)

    @given(st.integers(min_value=1, max_value=64),
           st.integers(min_value=0, max_value=10 ** 7))
    @settings(max_examples=60)
    def test_nondecreasing_in_n(self, bits, n):
        assert expected_collisions(n, k(bits)) <= expected_collisions(n + 1, k(bits))

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            expected_collisions(-1, k(32))


class TestCollisionProbability:
    def test_headline_64bit(self):
        assert collision_probability(N_HEADLINE, k(64)) == pytest.approx(2.710503e-08, rel=1e-6)

    def test_three_draws_54bit(self):
        assert collision_probability(3, k(54)) == pytest.approx(1.665335e-16, rel=1e-6)

    def test_three_draws_53bit(self):
        assert collision_probability(3, k(53)) == pytest.approx(3.330669e-16, rel=1e-6)

    def test_pigeonhole_exact(self):
        assert collision_probability(3, BucketSpace.exact(2)) == 1.0
        assert collision_probability(100, BucketSpace.exact(99)) == 1.0

    def test_trivial(self):
        assert collision_probability(0, k(32)) == 0.0
        assert collision_probability(1, k(32)) == 0.0
        assert collision_probability_naive(1, k(32)) == 0.0

    def test_naive_three_draws_53bit(self):
        assert abs(collision_probability_naive(3, k(53)) - 3.330669e-16) <= 1e-22

    def test_naive_pigeonhole_through_zero_factor(self):
        # the literal product contains the factor (1 - b/b) = 0 once n > b
        assert collision_probability_naive(5, BucketSpace.exact(3)) == 1.0

    def test_naive_overflow_stays_nan(self):
        # the zero factor (1 - b/b) comes first: every factor below i = b
        # lies in (0, 1], so the running product is +-0 from there on, and a
        # later chunk's product overflows to inf; +-0 * inf is NaN, with no
        # warning raised
        assert math.isnan(collision_probability_naive(4 * 10 ** 6, BucketSpace.exact(10 ** 6)))

    def test_naive_birthday_365(self):
        # oracle: exact rational 1 - (364*363)/365^2 = 1093/133225
        exact = float(1 - Fraction(364 * 363, 365 ** 2))
        got = collision_probability_naive(3, BucketSpace.exact(365))
        assert got == pytest.approx(exact, rel=1e-12)

    def test_naive_agrees_with_stable_up_to_45_bits(self):
        for bits in range(32, 46):
            naive = collision_probability_naive(N_HEADLINE, k(bits))
            stable = collision_probability(N_HEADLINE, k(bits))
            assert abs(naive - stable) <= 1e-6 * stable

    @given(st.integers(min_value=0, max_value=5000),
           st.integers(min_value=1, max_value=64))
    @settings(max_examples=40)
    def test_in_unit_interval(self, n, bits):
        p = collision_probability(n, k(bits))
        assert 0.0 <= p <= 1.0

    def test_nondecreasing_in_n(self):
        values = [collision_probability(n, k(20)) for n in range(0, 3000, 37)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    @given(st.integers(0, 10 ** 5), spaces)
    @settings(max_examples=150, deadline=None)
    def test_within_two_ulps_of_the_log1p_sum(self, n, space):
        assert ulps_apart(collision_probability(n, space),
                          oracle_collision_probability(n, space)) <= 2

    @given(st.integers(0, 200), st.integers(1, 2 ** 63))
    @settings(max_examples=150)
    def test_exact_rational_oracle(self, n, b):
        # every regime is reached: saturated, series and the small space
        exact = float(exact_collision_probability(n, b))
        assert ulps_apart(collision_probability(n, BucketSpace.exact(b)), exact) <= 2

    def test_small_space_is_the_exact_value_rounded_once(self):
        # every unsaturated input the series leaves, 2(n-1) > b (so b < 320
        # and n < 161), comes from exact integers rounded once
        cases = [(n, b) for b in range(2, 320) for n in range(2, b + 1)
                 if 2 * (n - 1) > b and n * (n - 1) < 80 * b]
        assert len(cases) == 7226
        for n, b in cases:
            assert collision_probability(n, BucketSpace.exact(b)) == float(
                exact_collision_probability(n, b)), (n, b)

    @pytest.mark.parametrize("n, b", [
        # b at, below and above n(n-1)/80: saturated up to it, then the
        # small-space form or the series
        (81, 81), (81, 82), (96, 113), (96, 114), (96, 115),
        (161, 321), (161, 322), (161, 323),
        (10 ** 6, 12_499_987_499), (10 ** 6, 12_499_987_500),
        (10 ** 6, 12_499_987_501),
        # b at, below and above 2(n-1): the small-space form below, the
        # series from it
        (100, 197), (100, 198), (100, 199), (2, 2), (2, 3),
    ])
    def test_regime_boundaries(self, n, b):
        space = BucketSpace.exact(b)
        got = collision_probability(n, space)
        assert ulps_apart(got, oracle_collision_probability(n, space)) <= 2
        if n <= 200:
            assert ulps_apart(got, float(exact_collision_probability(n, b))) <= 2

    @pytest.mark.parametrize("n", [LITERAL_CAP + 1, 2 ** 31, 10 ** 9, 10 ** 10,
                                   38 * 10 ** 9])
    def test_large_n_matches_two_term_expansion(self, n):
        # -L = S_1/b + S_2/(2b^2) + O(S_3/b^3): the third term is below
        # 1e-12 of the first at b = 2^64 up to the saturation bound, which
        # 38e9 is just below
        b = 2 ** 64
        m = n - 1
        assert n * m < 80 * b
        two_term = Fraction(m * (m + 1), 2 * b) + Fraction(m * (m + 1) * (2 * m + 1), 12 * b * b)
        log_sum, terms = _log_falling_series(m, b)
        assert log_sum == pytest.approx(float(two_term), rel=1e-12)
        assert terms <= 4
        expected = -math.expm1(-float(two_term))
        assert collision_probability(n, k(64)) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("n, b, terms", [
        # r = (n-1)/b = 1/2, the slowest convergence the series regime allows
        (2, 2, 59), (3, 4, 59), (128, 254, 55),
        (10 ** 6, 2 ** 64, 2),
    ])
    def test_series_term_count(self, n, b, terms):
        assert _log_falling_series(n - 1, b)[1] == terms

    @given(st.integers(1, 10 ** 6), st.integers(0, 10 ** 9))
    @settings(max_examples=200)
    def test_series_needs_at_most_59_terms(self, m, extra):
        assert _log_falling_series(m, 2 * m + extra)[1] <= 59

    def test_numpy_integer_n(self):
        # n * (n - 1) would wrap in int64
        assert collision_probability(np.int64(2 ** 32), k(64)) == \
            collision_probability(2 ** 32, k(64))
        with pytest.raises(TypeError):
            collision_probability(1000.0, k(64))

    def test_literal_forms_capped(self):
        for literal in (collision_probability_naive, collision_probability_pbirthday):
            with pytest.raises(CapacityError):
                literal(LITERAL_CAP + 1, k(64))

    def test_error_curve_reports(self):
        reports = probability_error_curve(1000, 32, 40)
        assert [int(r.input) for r in reports] == list(range(32, 41))
        for r in reports:
            if r.stable_value != 0.0:
                assert r.relative_error is not None
                assert math.isfinite(r.relative_error)


class TestPbirthday:
    @pytest.mark.parametrize("bits, length", [
        *[(b, 1_000_001) for b in range(54, 60)],
        *[(b, 999_937) for b in range(60, 63)],
        (63, 1_000_449),
        (64, 999_425),
    ])
    def test_r_sequence_length_headline(self, bits, length):
        assert pbirthday_sequence_length(N_HEADLINE, k(bits)) == length

    def test_sequence_length_correct_below_54_bits(self):
        for bits in range(20, 54):
            assert pbirthday_sequence_length(N_HEADLINE, k(bits)) == N_HEADLINE

    @pytest.mark.parametrize("b", [*[2 ** bits for bits in range(54, 65)], 2 ** 53 + 2 ** 40 + 2,
                                   2 ** 54 + 1, 2 ** 54 + 4, 2 ** 55 + 24, 2 ** 62 + 2 ** 10,
                                   2 ** 63 - 1])
    def test_recycled_factors_are_one(self, b):
        # a sequence shorter than n recycles the indices j < n - length, and
        # c - j rounds to c for each: every recycled factor is exactly 1.0,
        # which is why only the sequence itself is multiplied
        space, c = _space(b), float(b)
        u = int(c - math.nextafter(c, 0))
        ns = {m * u // 2 + d for m in range(1, 40) for d in range(-3, 4)}
        ns |= {n + d for n in (10 ** 6, 3 * 10 ** 7 + 1, LITERAL_CAP - 5) for d in range(-3, 4)}
        recycled = 0
        for n in sorted(ns):
            length = pbirthday_sequence_length(n, space)
            if length < n:
                recycled += 1
                j = np.arange(min(length, n - length), dtype=np.float64)
                assert np.all(c - j == c), (n, length)
        assert recycled > 0

    def test_birthday_23_of_365(self):
        # oracle: exact rational 1 - 365_(23) / 365^23 = 0.5072972343...
        exact = float(1 - Fraction(math.perm(365, 23), 365 ** 23))
        got = collision_probability_pbirthday(23, BucketSpace.exact(365))
        assert got == pytest.approx(exact, rel=1e-12)

    def test_zero_factor_gives_exactly_one(self):
        assert collision_probability_pbirthday(5, BucketSpace.exact(3)) == 1.0
        # far above b the factors past the zero overflow; no NaN
        assert collision_probability_pbirthday(3 * 2 ** 20, BucketSpace.exact(1024)) == 1.0

    def test_trivial(self):
        assert collision_probability_pbirthday(0, k(32)) == 0.0
        assert collision_probability_pbirthday(1, k(32)) == 0.0
        assert collision_probability_pbirthday(0, k(64)) == 0.0
        assert collision_probability_pbirthday(1, k(64)) == 0.0

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            collision_probability_pbirthday(-1, k(32))

    @given(st.integers(min_value=0, max_value=5000),
           st.integers(min_value=1, max_value=4000))
    @settings(max_examples=40)
    def test_in_unit_interval(self, n, b):
        p = collision_probability_pbirthday(n, BucketSpace.exact(b))
        assert 0.0 <= p <= 1.0
        if n > b:
            assert p == 1.0


# Frozen reference: the literal products as they were computed before they
# were built in pieces and decided where fixed, one 2^20-factor chunk at a
# time.  A chunk product depends on nothing but its bounds, so each one is
# cached and shared by the inputs that hold it.
_REF_CHUNK = 1 << 20


@functools.cache
def _ref_naive_chunk(lo, hi, bf):
    i = np.arange(lo, hi, dtype=np.float64)
    with np.errstate(over="ignore"):
        return float(np.multiply.reduce(1.0 - i / bf))


def reference_naive(n, space):
    if n <= 1:
        return 0.0
    bf = float(space.count)
    prod = 1.0
    for lo in range(1, n, _REF_CHUNK):
        prod *= _ref_naive_chunk(lo, min(n, lo + _REF_CHUNK), bf)
    return 1.0 - prod


@functools.cache
def _ref_pbirthday_chunk(lo, hi, c, length):
    # called with min(length, hi): below hi both give i % length = i
    i = np.arange(lo, hi, dtype=np.int64) % length
    factors = (c - i) / c
    return float(np.multiply.reduce(factors)) if factors.all() else 0.0


def reference_pbirthday(n, space):
    c = float(space.count)
    length = pbirthday_sequence_length(n, space)
    total = max(length, n) if n else 0
    prod = 1.0
    for lo in range(0, total, _REF_CHUNK):
        hi = min(total, lo + _REF_CHUNK)
        prod *= _ref_pbirthday_chunk(lo, hi, c, min(length, hi))
        if prod == 0.0:
            return 1.0
    return 1.0 - prod


def _bits(x):
    return "nan" if math.isnan(x) else x.hex()


def _space(b):
    return k(64) if b == 2 ** 64 else BucketSpace.exact(b)


# n(n-1) at, just below and just above 80b: saturated, then multiplied
_SATURATION_EDGE = [(n, n * (n - 1) // 80 + d) for n in (81, 96, 161, 1601, 10 ** 6)
                    for d in (-1, 0, 1)]
# the zero factor at or past n, and 2b around n, near chunk bounds
_ZERO_FACTOR = [(n, b) for b in (2 ** 20 - 1, 2 ** 20, 2 ** 20 + 1, 3 * 2 ** 20 + 5)
                for n in (b - 1, b, b + 1, b + 2, 2 * b - 1, 2 * b, 2 * b + 1)]
# the last factor at the edge of a 2^16 piece for k = 30..64, and of a 2^20
# chunk at the k where the regime changes: saturated up to 33, multiplied
# from 34, the sequence recycled from 54 (a million factors cost ms each)
_STRADDLE = [*[(n, 2 ** bits) for bits in range(30, 65)
               for n in (2 ** 16, 2 ** 16 + 1, 2 ** 16 + 2)],
             *[(n, 2 ** bits) for bits in (30, 33, 34, 53, 54, 60, 64)
               for n in (2 ** 20, 2 ** 20 + 1, 2 ** 20 + 2)]]
# b = 2^k around the unit-map edge (one subtraction per factor, rounded
# once): the last factor at the edge of a 2^14 piece and of a 2^20 chunk
_POWER_EDGE = [(n, 2 ** bits) for bits in (52, 53, 54, 55, 64)
               for n in (2 ** 14 - 1, 2 ** 14, 2 ** 14 + 1, 3 * 2 ** 14 + 1,
                         2 ** 20, 2 ** 20 + 1, 2 ** 20 + 2)]
# b and 2b + 1 in one chunk, which multiplies out to +-0 unmultiplied: n
# inside that chunk, and past it into one finite chunk or one that
# overflows to NaN, for b = 2^k and for an explicit b
_ZERO_CHUNK = [(n, b) for b in (2 ** 18, 300_001)
               for n in (b + 1, 2 * b + 2, 2 ** 20 + 1, 2 ** 20 + 2, 2 ** 20 + 2 ** 16)] + \
              [(2 ** 20 + 10, 2 ** 19 - 1)]
# explicit b past 2^53, whose sequence is recycled, longer than n or exact:
# n at 1, 2, 3, u/2 +- 1, u +- 1 and 2049, with u the spacing of doubles
# just below double(b)
_RECYCLED_EXPLICIT = [(n, b) for b, u in ((2 ** 53 + 2, 2), (2 ** 54 + 1, 2),
                                          (2 ** 62 + 2 ** 10, 2 ** 10), (2 ** 63 - 1, 2 ** 10))
                      for n in sorted({1, 2, 3, u // 2 - 1, u // 2 + 1, u - 1, u + 1, 2049})]
_IDENTITY_INPUTS = [
    *_SATURATION_EDGE, *_ZERO_FACTOR, *_STRADDLE, *_POWER_EDGE, *_ZERO_CHUNK,
    *_RECYCLED_EXPLICIT,
    # past the zero factor the product sticks at a subnormal again
    (3 * 10 ** 6, 700_000),
    # the chunk that starts at i = 2b + 1 overflows: NaN
    (2 ** 21 + 2 ** 16, 2 ** 20),
    # pbirthday's sequence is shorter than n and recycled (length 1, 1 and
    # 4097; 20,481 and 1,050,625 wrap inside a piece of the second piece and
    # of the second chunk), or longer than n (70,145 factors past a piece edge)
    (3, 2 ** 64), (100, 2 ** 64), (5000, 2 ** 64), (21_000, 2 ** 64),
    (2 ** 20 + 3000, 2 ** 64), (70_000, 2 ** 62),
    (4 * 10 ** 6, 10 ** 6),
]


class TestLiteralIdentity:
    """Both literal forms return the reference's bits, NaN as NaN."""

    @pytest.mark.parametrize("n, b", _IDENTITY_INPUTS)
    def test_matches_reference(self, n, b):
        space = _space(b)
        assert _bits(collision_probability_naive(n, space)) == \
            _bits(reference_naive(n, space))
        assert _bits(collision_probability_pbirthday(n, space)) == \
            _bits(reference_pbirthday(n, space))

    def test_fixed_products_multiply_nothing(self, monkeypatch):
        multiply = analytics._chunked_product

        def refuse(start, stop, *rest):
            assert start >= stop, "a fixed product was multiplied"
            return multiply(start, stop, *rest)

        monkeypatch.setattr(analytics, "_chunked_product", refuse)
        for n, b in [(5 * 10 ** 7, 2 ** 32), (1_692_275, 2_542_407)]:
            assert collision_probability_naive(n, _space(b)) == 1.0
            assert collision_probability_pbirthday(n, _space(b)) == 1.0
        # n > b: pbirthday stops at the zero factor, and the naive form
        # multiplies nothing before the chunk that holds i = 2b + 1
        assert collision_probability_pbirthday(4 * 10 ** 6, _space(10 ** 6)) == 1.0
        assert collision_probability_naive(2 ** 21 + 1, _space(2 ** 20)) == 1.0
        # b and 2b + 1 share a chunk that ends past n: its product is +-0
        for n, b in [(680_347, 514_012), (670_572, 373_189)]:
            assert collision_probability_naive(n, _space(b)) == 1.0


class TestStirling:
    def test_enumeration_oracle(self):
        # oracle: S(n, l) = (number of onto maps [n] -> [l]) / l!
        def surjections(n, l):
            return sum(1 for assign in product(range(l), repeat=n)
                       if len(set(assign)) == l)

        for n in range(1, 8):
            for l in range(1, n + 1):
                expected = surjections(n, l) // math.factorial(l)
                assert stirling2(n, l) == expected

    def test_known_values(self):
        assert stirling2(4, 2) == 7
        assert stirling2(5, 1) == 1
        for n in range(0, 20):
            assert stirling2(n, n) == 1

    def test_recurrence(self):
        for n in range(2, 31):
            for l in range(1, n):
                assert stirling2(n, l) == l * stirling2(n - 1, l) + stirling2(n - 1, l - 1)

    def test_argument_errors(self):
        for n, l in ((3, 4), (-1, 0), (3, -1)):
            with pytest.raises(DomainError):
                stirling2(n, l)
        for n, l in ((True, 0), (3, True), (np.True_, 0), (3.0, 1), (3, 1.0)):
            with pytest.raises(TypeError):
                stirling2(n, l)

    def test_known_row_ten(self):
        # classic table row: S(10, l) for l = 0..10
        assert [stirling2(10, l) for l in range(11)] == [
            0, 1, 511, 9330, 34105, 42525, 22827, 5880, 750, 45, 1]

    def test_row_sums_are_bell_numbers(self):
        # independent oracle: Bell triangle; sum_l S(n, l) = B(n)
        bell = [1]
        row = [1]
        for _ in range(14):
            new = [row[-1]]
            for v in row:
                new.append(new[-1] + v)
            row = new
            bell.append(row[0])
        for n in range(15):
            assert sum(stirling2(n, l) for l in range(n + 1)) == bell[n]

    def test_log_row_matches_exact(self):
        for n in range(0, 51):
            row = stirling_log_row(n)
            assert row.shape == (n + 1,)
            for l in range(0, n + 1):
                v = stirling2(n, l)
                if v == 0:
                    assert row[l] == -math.inf
                else:
                    assert row[l] == pytest.approx(math.log(v), rel=1e-12)

    def test_caps(self):
        assert stirling2(64, 1) == 1
        assert stirling2(64, 64) == 1
        for n, l in ((65, 1), (70, 3), (70, 99)):
            with pytest.raises(CapacityError):
                stirling2(n, l)


def brute_force_pmf(n, b):
    """Exact collision PMF by enumerating all b^n equally likely outcomes."""
    counts = [0] * n
    for outcome in product(range(b), repeat=n):
        c = n - len(set(outcome))
        counts[c] += 1
    total = b ** n
    return [Fraction(c, total) for c in counts]


def occupancy_counts(n, b):
    """N[l] = number of the b^n outcomes of n draws that occupy exactly l
    buckets, in integers: N_t(l) = l N_{t-1}(l) + (b - l + 1) N_{t-1}(l - 1)."""
    counts = [1]  # t = 0: no bucket occupied
    for t in range(1, n + 1):
        counts = [0] + [l * (counts[l] if l < t else 0) + (b - l + 1) * counts[l - 1]
                        for l in range(1, t + 1)]
    return counts


def assert_float_pmf_matches(probs, exact, rel=1e-12):
    """Each float entry against its exact (numerator, denominator): exact
    zeros are 0.0, entries from 1e-290 up are within rel (by default the
    documented 1e-12) relative."""
    assert len(probs) == len(exact)
    for c, (p, (num, den)) in enumerate(zip(probs, exact)):
        want = num / den
        if num == 0:
            assert p == 0.0, c
        elif want >= 1e-290:
            assert abs(p - want) <= rel * want, (c, p, want)


def unwindowed_occupancy_pmf(n, b):
    """Slow reference: the occupancy recurrence over the whole reachable
    prefix l = 1..min(t, b) at every step, flushed like the library's."""
    bf = float(b)
    l = np.arange(min(n, b) + 1, dtype=np.float64)
    hit, miss = l / bf, (bf - l) / bf
    q = np.zeros(n + 1)
    q[1] = 1.0
    for t in range(2, n + 1):
        top = min(t, b)
        carry = q[:top] * miss[:top]
        q[1:top + 1] *= hit[1:top + 1]
        q[1:top + 1] += carry
    q[q < 2.0 ** -1022] = 0.0
    return q[:0:-1].copy()


def assert_float_pmfs_agree(probs, ref, rel=1e-12):
    """Same zeros, and entries from 1e-290 up within rel of the reference."""
    probs, ref = np.asarray(probs), np.asarray(ref)
    assert probs.shape == ref.shape
    assert np.array_equal(probs == 0.0, ref == 0.0)
    big = ref >= 1e-290
    assert np.all(np.abs(probs[big] - ref[big]) <= rel * ref[big])


def exact_expected_collisions(n, b):
    """E[C] = n - b + (b-1)^n / b^(n-1), rounded once from exact integers."""
    den = b ** (n - 1)
    return ((n - b) * den + (b - 1) ** n) / den


def space_of(b):
    return k(b.bit_length() - 1) if b > 1 and b & (b - 1) == 0 else BucketSpace.exact(b)


def frozen_pmf_eulerian(n, space, c_max):
    """The Eulerian kernel as it stood before its grid: one row of e_c and
    one set of numpy calls per c.  Frozen as the bit-for-bit reference of
    _pmf_eulerian; do not change it with the library."""
    b, bf = space.count, float(space.count)
    steps = np.log1p(-np.arange(n - 1, n - 1 - c_max, -1) / bf)
    log_falling = -_log_falling_series(n - 1, b)[0] - np.concatenate(([0.0], np.cumsum(steps)))
    off = 2 * c_max
    prefix = np.concatenate(([0.0], np.cumsum(np.log1p(np.arange(-off, c_max) / n))))
    ks = np.arange(c_max + 1)
    logs = np.log(np.arange(1, off + 1))
    log_half_n2_b = math.log(n * n / (2.0 * bf))
    log_p = np.empty(c_max + 1)
    row = np.zeros(1)
    for c in range(c_max + 1):
        if c >= 2:
            new = np.empty(c)
            new[:c - 1] = logs[:c - 1] + row
            new[c - 1] = -np.inf
            new[1:] = np.logaddexp(new[1:], logs[2 * c - 3:c - 2:-1] + row)
            new -= logs[2 * c - 2]
            row = new
        k = ks[:row.size]
        terms = row + prefix[off + c - k] - prefix[off - c - k]
        top = terms.max()
        log_p[c] = (log_falling[c] + c * log_half_n2_b - math.lgamma(c + 1)
                    + top + math.log(np.exp(terms - top).sum()))
    probs = np.zeros(n)
    probs[:c_max + 1] = np.exp(log_p)
    probs[probs < 2.0 ** -1022] = 0.0
    return probs


def frozen_pmf_occupancy(n, space):
    """The blocked occupancy recurrence as it stood before q was carried
    scaled: the window's low-occupancy head ran subnormal.  Frozen as the
    reference of _pmf_occupancy; do not change it with the library."""
    b, bf = space.count, float(space.count)
    top_l = min(n, b)
    l = np.arange(top_l + 1, dtype=np.float64)
    hit, miss = l / bf, (bf - l) / bf
    m, rest = 16, (n - 1) % 16
    band = np.zeros((m + 1, top_l + 1))
    band[m] = 1.0
    qpad = np.zeros(m + top_l + 1)
    q = qpad[m:]
    for k in range(m):
        if k == rest:
            i = np.arange(1, min(rest + 1, top_l) + 1)
            q[i] = band[m + 1 - i, i]
        for d in range(k + 1, 0, -1):
            row = band[m - d, 1:]
            row *= hit[1:]
            row += miss[:-1] * band[m - d + 1, :-1]
        band[m] *= hit
    win = np.lib.stride_tricks.sliding_window_view(qpad, m + 1)
    lo, dropped = 1, 0.0
    for t in range(1 + rest + m, n + 1, m):
        top = min(t, b)
        q[lo:top + 1] = np.einsum("ji,ij->i", band[:, lo:top + 1], win[lo:top + 1])
        while lo < top:
            cum = dropped + np.cumsum(q[lo:min(lo + m, top)])
            drop = int(np.searchsorted(cum, 2.0 ** -1022))
            if drop:
                dropped = cum[drop - 1]
                q[lo:lo + drop] = 0.0
                lo += drop
            if drop < cum.size:
                break
    q[q < 2.0 ** -1022] = 0.0
    probs = np.zeros(n)
    probs[n - top_l:] = q[:0:-1]
    return probs


class TestCollisionPmf:
    def test_two_draws_two_buckets(self):
        pmf = collision_pmf_exact(2, BucketSpace.exact(2))
        assert pmf.probs == [Fraction(1, 2), Fraction(1, 2)]

    def test_three_draws_two_buckets(self):
        pmf = collision_pmf_exact(3, BucketSpace.exact(2))
        assert pmf.probs == [Fraction(0), Fraction(3, 4), Fraction(1, 4)]

    def test_four_draws_four_buckets_no_collision(self):
        pmf = collision_pmf_exact(4, BucketSpace.exact(4))
        assert pmf.probs[0] == Fraction(3, 32)

    def test_matches_enumeration(self):
        for n in range(2, 7):
            for b in range(2, 7):
                pmf = collision_pmf_exact(n, BucketSpace.exact(b))
                assert pmf.probs == brute_force_pmf(n, b), (n, b)

    def test_sum_and_mean(self):
        for n in range(2, 7):
            for b in range(2, 7):
                pmf = collision_pmf_exact(n, BucketSpace.exact(b))
                assert pmf.total() == 1
                e = expected_collisions(n, BucketSpace.exact(b))
                assert abs(pmf.mean() - e) <= 1e-12

    # one denominator for the exact moments, against the plain Fraction sums;
    # b = 1, 2 and 7 are below most n here
    @pytest.mark.parametrize("b", [1, 2, 7, 63, 2 ** 32, 2 ** 64])
    def test_exact_total_and_mean_are_fraction_sums(self, b):
        for n in range(1, 65):
            pmf = collision_pmf_exact(n, space_of(b))
            assert pmf.representation == "exact-rational"
            total = pmf.total()
            assert isinstance(total, Fraction)
            assert total == sum(pmf.probs, Fraction(0)) == 1, n
            mean = sum((c * p for c, p in enumerate(pmf.probs)), Fraction(0))
            assert pmf.mean() == float(mean), n

    def test_exact_moments_of_hand_built_pmf(self):
        # denominators 3, 5, 7 and 9 divide no power of b = 2, and the
        # entries need not sum to 1
        for probs in ([Fraction(1, 3), Fraction(1, 5), Fraction(7, 15)],
                      [Fraction(2, 7), Fraction(0), Fraction(4, 9), Fraction(1, 2)]):
            pmf = CollisionPmf(n=len(probs), space=k(1), probs=probs,
                               representation="exact-rational")
            assert pmf.total() == sum(probs, Fraction(0))
            mean = sum((c * p for c, p in enumerate(probs)), Fraction(0))
            assert pmf.mean() == float(mean)

    def test_pigeonhole_zero(self):
        pmf = collision_pmf_exact(5, BucketSpace.exact(3))
        assert pmf.probs[0] == 0
        assert pmf.probs[1] == 0  # even 4 distinct values cannot fit in 3 buckets

    def test_probability_consistency(self):
        for n in range(2, 7):
            for b in range(2, 7):
                pmf = collision_pmf_exact(n, BucketSpace.exact(b))
                p = collision_probability(n, BucketSpace.exact(b))
                assert abs(pmf.prob_any_collision() - p) <= 1e-12 * max(p, 1e-300)

    def test_log_domain_matches_exact(self):
        for n, b in ((20, 16), (30, 2 ** 20), (12, 7)):
            exact = _pmf_exact_rational(n, BucketSpace.exact(b))
            logd = _pmf_log_domain(n, BucketSpace.exact(b))
            assert logd.representation == "log-domain-float"
            for pe, pl in zip(exact.probs, logd.probs):
                if pe == 0:
                    assert pl == 0.0
                else:
                    assert pl == pytest.approx(float(pe), rel=1e-9)

    def test_log_domain_large_n(self):
        pmf = collision_pmf_exact(1000, k(32))
        assert pmf.representation == "log-domain-float"
        assert pmf.total() == pytest.approx(1.0, abs=1e-12)
        assert all(0.0 <= p <= 1.0 for p in pmf.probs)
        e = expected_collisions(1000, k(32))
        assert pmf.mean() == pytest.approx(e, rel=1e-9)

    @pytest.mark.parametrize("n", [65, 100, 300])
    @pytest.mark.parametrize("b", ["n//3", "n-1", "n", 2 ** 16, 2 ** 32, 2 ** 64,
                                   2 ** 60 + 33])
    def test_float_mode_matches_integer_occupancy_counts(self, n, b):
        b = {"n//3": n // 3, "n-1": n - 1, "n": n}.get(b, b)
        counts = occupancy_counts(n, b)
        pmf = collision_pmf_exact(n, space_of(b))
        assert_float_pmf_matches(pmf.probs, [(counts[n - c], b ** n) for c in range(n)])

    @given(st.integers(1, 64), spaces)
    @settings(max_examples=60, deadline=None)
    def test_float_mode_matches_exact_mode(self, n, space):
        exact = _pmf_exact_rational(n, space)
        logd = _pmf_log_domain(n, space)
        assert_float_pmf_matches(logd.probs, [(p.numerator, p.denominator)
                                              for p in exact.probs])

    @pytest.mark.parametrize("n, b", [
        (10 ** 4, 1310), (4172, 1310), (10 ** 4, 9999), (10 ** 4, 2 ** 16),
        (10 ** 4, 2 ** 64),
    ])
    def test_float_mode_sum_and_mean_at_large_n(self, n, b):
        pmf = collision_pmf_exact(n, space_of(b))
        assert abs(pmf.total() - 1.0) <= 1e-12
        e = exact_expected_collisions(n, b)
        assert abs(pmf.mean() - e) <= 1e-12 * e
        probs = np.asarray(pmf.probs)
        assert not np.any((probs > 0.0) & (probs < 2.0 ** -1022))

    @pytest.mark.parametrize("n, bits", [(3353, 64), (6914, 57), (1000, 32)])
    def test_float_prob_any_collision_does_not_cancel(self, n, bits):
        pmf = collision_pmf_exact(n, k(bits))
        p = collision_probability(n, k(bits))
        assert abs(pmf.prob_any_collision() - p) <= 1e-12 * p

    @pytest.mark.parametrize("n, b", [(300, 2 ** 32), (1000, 2 ** 40), (200, 2 ** 64),
                                      (65, 2 ** 60 + 33)])
    def test_eulerian_kernel_matches_occupancy_kernel(self, n, b):
        c_max = _eulerian_window(n, b)
        assert c_max is not None
        space = space_of(b)
        assert_float_pmfs_agree(_pmf_eulerian(n, space, c_max), _pmf_occupancy(n, space))

    # the smallest windows, at the smallest n the kernel takes, 2(c_max + 1) < n
    @pytest.mark.parametrize("c_max", [1, 2, 3])
    @pytest.mark.parametrize("b", [2 ** 16, 2 ** 64, 10 ** 9 + 7])
    def test_eulerian_grid_is_frozen_loop_small_windows(self, c_max, b):
        for n in (2 * (c_max + 1) + 1, 2 * (c_max + 1) + 2, 100):
            space = space_of(b)
            assert np.array_equal(_pmf_eulerian(n, space, c_max),
                                  frozen_pmf_eulerian(n, space, c_max)), n

    # windows the kernel choice gives, up to _EULERIAN_C_CAP (9682944 gives
    # c_max = 256 at n = 10^4), and the cap at its smallest n
    @pytest.mark.parametrize("n, b, c_max", [
        (65, 2 ** 60 + 33, None), (200, 2 ** 64, None), (300, 2 ** 32, None),
        (8793, 2 ** 36, None), (10 ** 4, 2 ** 24, None), (6000, 2 ** 22, None),
        (10 ** 4, 9682944, None), (515, 2 ** 20, 256), (515, 10 ** 6 + 3, 256),
        (515, 10 ** 6 + 3, 255),
    ])
    def test_eulerian_grid_is_frozen_loop(self, n, b, c_max):
        if c_max is None:
            c_max = _eulerian_window(n, b)
        assert c_max is not None and 2 * (c_max + 1) < n
        space = space_of(b)
        assert np.array_equal(_pmf_eulerian(n, space, c_max),
                               frozen_pmf_eulerian(n, space, c_max))

    def test_eulerian_grid_peak_below_recurrence_band(self):
        # the grid is (c_max + 1) x c_max doubles, 0.53 MB at the cap, and
        # its window terms are views, not a second grid-sized temporary; a
        # float pmf's peak memory is then the recurrence band's
        def peak(kernel, *args):
            tracemalloc.start()
            try:
                kernel(*args)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        band = peak(_pmf_occupancy, 10 ** 4, k(20))
        for n, b in ((6000, 2 ** 22), (10 ** 4, 9682944)):
            c_max = _eulerian_window(n, b)
            assert c_max >= 240
            grid_peak = peak(_pmf_eulerian, n, space_of(b), c_max)
            assert grid_peak < band, (n, b)
            assert grid_peak < 1.5 * (c_max + 1) * c_max * 8, (n, b)

    @pytest.mark.parametrize("n, b, eulerian", [
        (8793, 2 ** 36, True), (4212, 2319, False), (10 ** 4, 2 ** 16, False),
        (10 ** 4, 2 ** 24, True), (10 ** 4, 2 ** 23, False), (36, 2 ** 64, False),
        (1, 2 ** 64, False),
    ])
    def test_kernel_choice(self, n, b, eulerian):
        assert (_eulerian_window(n, b) is not None) == eulerian

    @pytest.mark.parametrize("n, b", [(300, 2 ** 32), (1000, 2 ** 40), (200, 2 ** 64),
                                      (8793, 2 ** 36), (10 ** 4, 2 ** 24)])
    def test_tail_beyond_c_max_is_flushed(self, n, b):
        c_max = _eulerian_window(n, b)
        ref = unwindowed_occupancy_pmf(n, b)
        assert math.fsum(ref[c_max + 1:]) < 2.0 ** -1022
        assert_float_pmfs_agree(collision_pmf_exact(n, space_of(b)).probs, ref)

    def test_eulerian_window_implies_series_domain(self):
        # the Eulerian kernel takes log((b)_n / b^n) from _log_falling_series,
        # which needs 2(n - 1) <= b
        # over every k-bit space, and explicit b on both sides of 2(n - 1)
        explicit = 0
        for n in range(2, 10 ** 4 + 1, 37):
            for b in [*(2 ** bits for bits in range(1, 65)), 3, 365, 2 * n - 3,
                      2 * n - 2, 2 * n - 1, n * n // 3 + 7, 10 ** 9 + 7, 2 ** 63 - 25]:
                if _eulerian_window(n, b) is not None:
                    assert 2 * (n - 1) <= b, (n, b)
                    explicit += b & (b - 1) != 0
        assert explicit > 0

    # b much above n reaches the recurrence when c_max passes _EULERIAN_C_CAP
    @pytest.mark.parametrize("n, b", [(10 ** 4, 1310), (10 ** 4, 9999), (4172, 1310),
                                      (10 ** 4, 2 ** 16), (10 ** 4, 2 ** 20),
                                      (3333, 2 ** 16)])
    def test_windowed_recurrence_matches_unwindowed(self, n, b):
        assert _eulerian_window(n, b) is None
        assert_float_pmfs_agree(_pmf_occupancy(n, space_of(b)),
                                unwindowed_occupancy_pmf(n, b))

    # the kernel may drop at most 2^-1022 in all from the low-occupancy head:
    # every tail c >= c0 that holds under 1e-300 in the unwindowed reference
    # (where rounding is far below 2^-1022) loses no more than that
    @pytest.mark.parametrize("n, b", [(10 ** 4, 2 ** 16), (3333, 2 ** 16), (8856, 2870)])
    def test_dropped_mass_stays_below_smallest_normal(self, n, b):
        assert _eulerian_window(n, b) is None
        ref = unwindowed_occupancy_pmf(n, b)
        probs = _pmf_occupancy(n, space_of(b))
        ref_tail = np.cumsum(ref[::-1])[::-1]
        lost = ref_tail - np.cumsum(probs[::-1])[::-1]
        small = ref_tail < 1e-300
        assert small.sum() > 1000
        assert np.all(lost[small] <= 2.0 ** -1022 + 1e-12 * ref_tail[small])

    # n - 1 = (n - 1) mod _BLOCK + a whole number of blocks: the remainder
    # classes 0, 1 and _BLOCK - 1, and b from one bucket to twice n
    @pytest.mark.parametrize("n", [65, 66, 80, 257, 258, 272])
    @pytest.mark.parametrize("b", [1, 2, "m-1", "m", "n//3", "n-1", "2n"])
    def test_blocked_recurrence_matches_integer_occupancy_counts(self, n, b):
        m = analytics._BLOCK
        assert (n - 1) % m in (0, 1, m - 1)
        b = {"m-1": m - 1, "m": m, "n//3": n // 3, "n-1": n - 1, "2n": 2 * n}.get(b, b)
        probs = _pmf_occupancy(n, space_of(b))
        assert np.all(probs >= 0.0)
        counts = occupancy_counts(n, b)
        assert_float_pmf_matches(probs, [(counts[n - c], b ** n) for c in range(n)],
                                 rel=1e-13)
        assert_float_pmfs_agree(probs, unwindowed_occupancy_pmf(n, b))

    # scaling by a power of two is exact for normal values, so only the
    # subnormal head, which the frozen kernel rounded to multiples of
    # 2^-1074, may move; every entry from 1e-290 up stays bit for bit
    @pytest.mark.parametrize("n, b", [
        *((n, b) for n in (65, 66, 80, 257, 272)
          for b in (1, 2, 15, 16, n // 3, n - 1, n, 2 * n, 2 ** 16, 2 ** 32)),
        (8997, 2 ** 16), (8767, 7714), (6963, 4951), (6952, 2 ** 19),
        (10 ** 4, 9999), (10 ** 4, 1310),
    ])
    def test_scaled_recurrence_is_frozen_kernel(self, n, b):
        space = space_of(b)
        probs, ref = _pmf_occupancy(n, space), frozen_pmf_occupancy(n, space)
        assert np.array_equal(probs == 0.0, ref == 0.0)
        big = ref >= 1e-290
        assert np.array_equal(probs[big], ref[big])
        nonzero = ref > 0.0
        assert np.all(np.abs(probs[nonzero] - ref[nonzero]) <= 1e-12 * ref[nonzero])

    # one bucket to three below n: the whole mass sits at c = n - b, so the
    # seed column and the final unscale carry all of it
    @pytest.mark.parametrize("b", [1, 2, 3])
    def test_scale_at_its_edges(self, b):
        n = 10 ** 4
        probs = np.asarray(collision_pmf_exact(n, space_of(b)).probs)
        assert np.all(np.isfinite(probs))
        assert not np.any((probs > 0.0) & (probs < 2.0 ** -1022))
        assert np.flatnonzero(probs).tolist() == [n - b]
        assert ulps_apart(probs[n - b], 1.0) <= 2

    def test_recurrence_peak_is_one_band(self):
        # the band of T^_BLOCK is (_BLOCK + 1)(min(n, b) + 1) doubles; the
        # limit leaves room for q, hit, miss, the output and a temporary at
        # a time, not for a second copy of the band
        n, b = 10 ** 4, 2 ** 20
        tracemalloc.start()
        try:
            _pmf_occupancy(n, k(20))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (analytics._BLOCK + 1 + 8) * (min(n, b) + 1) * 8

    def test_caps(self):
        assert collision_pmf_exact(64, k(8)).representation == "exact-rational"
        assert collision_pmf_exact(65, k(8)).representation == "log-domain-float"
        # past the values budget (22 (2^24 + 1) + 10^7 held), and past the
        # work budget alone (10^6 draws over a window of 2^17 + 1)
        for n, bits, unit in ((10 ** 7, 24, "values held at once"), (10 ** 6, 17, "cell updates")):
            with pytest.raises(CapacityError, match=f"^the pmf recurrence would take .* {unit}"):
                collision_pmf_exact(n, k(bits))
        with pytest.raises(ValueError):
            collision_pmf_exact(0, k(8))

    @staticmethod
    def stated_costs(n, b):
        """(values held, cell updates) that collision_pmf_exact states for (n, b)."""
        c_max = _eulerian_window(n, b)
        if c_max is not None:
            return (c_max + 1) * c_max + n, 0
        return ((analytics._BLOCK + 6) * (min(n, b) + 1) + n,
                math.ceil(n * _window_bound(n, b))
                + -(-n // analytics._BLOCK) * analytics._BLOCK_CELLS)

    # Knuth's setup on the recurrence, and an Eulerian input, which states
    # no work: its grid is at most 257 x 256 cells
    @pytest.mark.parametrize("n, b", [(2 ** 14, 2 ** 20), (3000, 2 ** 40)])
    def test_budget_boundary(self, monkeypatch, n, b):
        # budgets of exactly the stated costs admit the call; one less on
        # either refuses it before anything is allocated
        values, work = self.stated_costs(n, b)
        monkeypatch.setattr(analytics, "PMF_VALUES_BUDGET", values)
        monkeypatch.setattr(analytics, "PMF_WORK_BUDGET", work)
        assert collision_pmf_exact(n, BucketSpace.exact(b)).n == n
        over = [("PMF_VALUES_BUDGET", values - 1)] + [("PMF_WORK_BUDGET", work - 1)] * (work > 0)
        for name, budget in over:
            monkeypatch.setattr(analytics, name, budget)
            tracemalloc.start()
            try:
                with pytest.raises(CapacityError, match=f"over its budget of {budget};"):
                    collision_pmf_exact(n, BucketSpace.exact(b))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2 ** 16
            monkeypatch.setattr(analytics, name, budget + 1)

    def test_block_cost_bounds_tiny_spaces(self, monkeypatch):
        # at b = 3 the window is 4 cells and each 16-draw block's fixed cost
        # (about 3 us, 8000 cells) is the work: 4 n + 8000 ceil(n / 16) cell
        # updates admit n = 19841264 under the real budget and refuse the
        # next block, before anything is allocated
        class Reached(Exception):
            pass

        def reached(n, space):
            raise Reached

        monkeypatch.setattr(analytics, "_pmf_occupancy", reached)
        last = 19841264
        assert self.stated_costs(last, 3)[1] <= analytics.PMF_WORK_BUDGET
        with pytest.raises(Reached):
            collision_pmf_exact(last, BucketSpace.exact(3))
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match="cell updates, over its budget of"):
                collision_pmf_exact(last + 1, BucketSpace.exact(3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 16

    @pytest.mark.parametrize("n, b", [(2 ** 14, 2 ** 20), (10 ** 4, 2 ** 16), (20000, 3),
                                      (20000, 1000), (5000, 4999), (3000, 2 ** 40),
                                      (9000, 2 ** 36), (10 ** 5, 2 ** 32)])
    def test_stated_values_bound_the_peak(self, n, b):
        # within a fixed 128 KB of scalars and O(c_max) arrays
        values, _ = self.stated_costs(n, b)
        tracemalloc.start()
        try:
            collision_pmf_exact(n, BucketSpace.exact(b))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * values + 2 ** 17

    # the widest windows of the benchmark's pmf pool (n, b near its top
    # ratios, both below and at the min(n, b) + 1 cap), and measured points
    @pytest.mark.parametrize("n, b", [(8948, 2 ** 17), (8910, 2 ** 17), (8997, 2 ** 16),
                                      (8764, 2 ** 19), (302, 150), (338, 106), (8856, 2870),
                                      (10 ** 4, 2 ** 16), (2 ** 14, 2 ** 20),
                                      (3 * 10 ** 4, 2 ** 16), (10 ** 4, 9999), (20000, 3)])
    def test_window_bound_holds(self, monkeypatch, n, b):
        widest, einsum = [0], np.einsum

        def spy(spec, band, window):
            widest[0] = max(widest[0], band.shape[1])
            return einsum(spec, band, window)

        monkeypatch.setattr(np, "einsum", spy)
        _pmf_occupancy(n, BucketSpace.exact(b))
        assert 0 < widest[0] <= _window_bound(n, b)

    def test_headline_within_budgets(self, monkeypatch):
        # pmf --n 1e6 --bits 32 passes both checks and reaches the recurrence
        # (1.2-1.5 s and a 176 MB peak, too slow to run here)
        ran = []
        monkeypatch.setattr(analytics, "_pmf_occupancy",
                            lambda n, space: ran.append(n) or np.zeros(n))
        assert collision_pmf_exact(10 ** 6, k(32)).n == 10 ** 6 and ran == [10 ** 6]

    def test_knuth_collision_test_table(self):
        """Knuth's collision test (TAOCP vol. 2, 3.3.2) throws n = 2^14 balls
        into m = 2^20 urns.  His table of P(C <= c), as recalled here, not
        read from the book, is .009 .043 .244 .476 .742 .946 at c = 101, 108,
        119, 126, 134, 145; the pmf's CDF (.0086 .0432 .2439 .4761 .7424
        .9458) matches it to three decimals."""
        pmf = collision_pmf_exact(2 ** 14, k(20))
        cdf = np.cumsum(pmf.probs)
        recalled = {101: .009, 108: .043, 119: .244, 126: .476, 134: .742, 145: .946}
        assert {c: round(float(cdf[c]), 3) for c in recalled} == recalled
        assert abs(pmf.total() - 1) < 1e-13
        assert pmf.mean() == pytest.approx(expected_collisions(2 ** 14, k(20)), rel=1e-13)


def assert_fsum_bits(x):
    """analytics._fsum(x) is math.fsum(x.tolist()) bit for bit, and raises
    what math.fsum raises."""
    x = np.asarray(x, dtype=np.float64)
    try:
        want = math.fsum(x.tolist())
    except (OverflowError, ValueError) as exc:
        with pytest.raises(type(exc)):
            analytics._fsum(x)
        return
    assert _bits(analytics._fsum(x)) == _bits(want)


def dyadic_terms(rng, size, total, unit_exp):
    """``size`` positive multiples of 2^unit_exp, two of them near
    total/2 and the rest at most 2^(unit_exp + 40), summing exactly to
    total * 2^unit_exp."""
    rest = rng.integers(1, 2 ** 40, size - 2).tolist()
    left = total - sum(rest)
    return np.array([math.ldexp(i, unit_exp) for i in [left // 2, left - left // 2, *rest]])


def tail_terms(rng, top, size):
    # every one below the head's cut, top * 2^-80
    return top * 2.0 ** -81 * rng.random(size)


class TestFsumRule:
    """The float pmf sums: math.fsum's bits from an fsum of the head."""

    @given(st.integers(70, 2500), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_log_uniform_terms(self, size, seed):
        rng = np.random.default_rng(seed)
        x = 10.0 ** rng.uniform(-308, 0, size)
        assert_fsum_bits(x)
        assert_fsum_bits(x * np.arange(size))  # the mean's products, a zero first

    @pytest.mark.parametrize("seed", range(8))
    def test_bell_shaped_terms(self, seed):
        # a pmf's shape: a peak near 1 and both flanks down to 1e-308
        rng = np.random.default_rng(seed)
        size = int(rng.integers(70, 2501))
        x = np.exp(-np.linspace(-1.0, 1.0, size) ** 2 * rng.uniform(600, 709))
        assert_fsum_bits(x)
        assert_fsum_bits(np.sort(x))

    # head sums at a midpoint between two doubles, or 2^-37 of a unit below
    # it, where the tail carries the whole sum over; one binade at 1 and
    # one low
    @pytest.mark.parametrize("unit_exp", [-53, -1000])
    @pytest.mark.parametrize("tail", ["none", "zeros", "tiny"])
    @pytest.mark.parametrize("below", [False, True])
    @pytest.mark.parametrize("seed", range(6))
    def test_head_sum_on_a_rounding_midpoint(self, unit_exp, tail, below, seed):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(analytics._FSUM_SPLIT_MIN, 600))
        # odd multiples of 2^unit_exp in [2^53, 2^54) units are midpoints
        total = 2 ** 53 + 2 * int(rng.integers(0, 2 ** 50)) + 1
        if below:
            head = np.append(dyadic_terms(rng, size - 1, total - 1, unit_exp),
                             math.ldexp(2 ** 37 - 1, unit_exp - 37))
        else:
            head = dyadic_terms(rng, size, total, unit_exp)
        x = {"none": head,
             "zeros": np.concatenate((head, np.zeros(50))),
             "tiny": np.concatenate((head, tail_terms(rng, head.max(), 50)))}[tail]
        rng.shuffle(x)
        assert_fsum_bits(x)

    # head sums at a power of two, on it and a unit or two either side,
    # where the doubles below are twice as dense as above
    @pytest.mark.parametrize("offset", [-2, -1, 0, 1, 2, 3])
    @pytest.mark.parametrize("tail", ["zeros", "tiny"])
    def test_head_sum_at_a_power_of_two(self, offset, tail):
        rng = np.random.default_rng(offset + 10)
        head = dyadic_terms(rng, 300, 2 ** 54 + offset, -54)
        extra = np.zeros(40) if tail == "zeros" else tail_terms(rng, head.max(), 40)
        assert_fsum_bits(np.concatenate((head, extra)))

    @pytest.mark.parametrize("seed", range(4))
    def test_terms_at_the_cut(self, seed):
        rng = np.random.default_rng(seed)
        top = float(rng.uniform(0.5, 1.0))
        cut = top * 2.0 ** -80
        x = np.concatenate(([top], np.full(30, cut), np.full(30, np.nextafter(cut, 0.0)),
                            rng.uniform(cut, top, 100), tail_terms(rng, top, 30)))
        rng.shuffle(x)
        assert_fsum_bits(x)
        # the same against a head sum on a midpoint
        head = dyadic_terms(rng, 200, 2 ** 53 + 2 * int(rng.integers(0, 2 ** 50)) + 1, -53)
        cut = head.max() * 2.0 ** -80
        assert_fsum_bits(np.concatenate((head, np.full(40, cut))))
        assert_fsum_bits(np.concatenate((head, np.full(40, np.nextafter(cut, 0.0)))))

    @pytest.mark.parametrize("size", [0, 1, 2, 3, 70, analytics._FSUM_SPLIT_MIN - 1])
    def test_below_the_size_guard(self, size):
        rng = np.random.default_rng(size)
        assert_fsum_bits(10.0 ** rng.uniform(-308, 0, size))
        if size >= 3:
            head = dyadic_terms(rng, size, 2 ** 53 + 1, -53)
            assert_fsum_bits(np.concatenate((head[:-1], tail_terms(rng, 1.0, 1))))

    @pytest.mark.parametrize("special", [[-1e-300], [-0.5], [math.nan], [math.inf],
                                         [-math.inf], [math.inf, -math.inf],
                                         [math.inf, math.nan], [-0.0]])
    def test_negative_nan_and_infinite_terms_fall_back(self, special):
        rng = np.random.default_rng(3)
        x = 10.0 ** rng.uniform(-308, 0, 300)
        x[rng.choice(x.size, len(special), replace=False)] = special
        assert_fsum_bits(x)
        if special == [math.inf]:
            assert analytics._fsum(x) == math.inf

    def test_overflow_raises_as_fsum_does(self):
        assert_fsum_bits(np.full(200, 1e308))

    @pytest.mark.parametrize("n, b", [(8767, 7714), (7069, 5442), (7021, 2 ** 22),
                                      (8997, 2 ** 16), (10 ** 4, 9999), (1000, 2 ** 20),
                                      (10 ** 4, 1310), (10 ** 4, 2 ** 64)])
    def test_pmf_sums_are_fsums(self, n, b):
        pmf = collision_pmf_exact(n, space_of(b))
        probs = np.asarray(pmf.probs)
        c = np.flatnonzero(probs)
        assert _bits(pmf.total()) == _bits(math.fsum(probs.tolist()))
        assert _bits(pmf.mean()) == _bits(math.fsum((np.arange(n) * probs).tolist()))
        assert _bits(pmf.prob_any_collision()) == _bits(math.fsum(probs[1:].tolist()))
        # every pmf here but the one at 2^64 has enough terms for the split
        assert c.size >= analytics._FSUM_SPLIT_MIN or b == 2 ** 64


class TestInverseProblems:
    def test_min_bits_headline(self):
        assert min_bits_for_expected(N_HEADLINE, 1.0) == 39

    def test_min_bits_single_draw(self):
        assert min_bits_for_expected(1, 1.0) == 1

    def test_min_bits_120(self):
        # the two-sided check pins the answer: 2^32 reaches 120, 2^31 does not
        assert expected_collisions(N_HEADLINE, k(32)) <= 120.0
        assert expected_collisions(N_HEADLINE, k(31)) > 120.0
        assert min_bits_for_expected(N_HEADLINE, 120.0) == 32

    def test_min_bits_none_in_range(self):
        assert min_bits_for_expected(N_HEADLINE, 1e-12) is None

    def test_sample_size_64bit(self):
        root = sample_size_for_expected(k(64), 1.0, 1e6, 1e10)
        assert abs(root - 6.074e9) <= 0.001e9

    def test_sample_size_self_consistency(self):
        target = expected_collisions(N_HEADLINE, k(32))
        root = sample_size_for_expected(k(32), target, 1e3, 1e9)
        assert abs(root - 1e6) <= 1.0

    def test_sample_size_target_met_at_a_bound(self):
        # E[C] equal to the target at lo or at hi returns that bound, as a float
        target = expected_collisions(N_HEADLINE, k(32))
        for lo, hi in ((N_HEADLINE, 10 ** 9), (10 ** 3, N_HEADLINE)):
            root = sample_size_for_expected(k(32), target, lo, hi)
            assert root == N_HEADLINE and type(root) is float

    def test_sample_size_forward_check(self):
        root = sample_size_for_expected(k(32), 1.0, 1e2, 1e9)
        assert expected_collisions(root, k(32)) == pytest.approx(1.0, abs=1e-6)

    def test_bracketing_error(self):
        with pytest.raises(BracketingError):
            sample_size_for_expected(k(32), 1.0, 1e6, 1e7)

    def test_argument_errors(self):
        with pytest.raises(ValueError):
            sample_size_for_expected(k(32), -1.0, 1e2, 1e9)
        with pytest.raises(ValueError):
            min_bits_for_expected(0, 1.0)
        with pytest.raises(ValueError):
            min_bits_for_expected(10, 0.0)

    @pytest.mark.parametrize("lo, hi", [(1, 10 ** 400), (10 ** 400, 10 ** 401),
                                        (1e2, math.inf), (-1.0, 1e9), (1e9, 1e2)])
    def test_bracket_outside_doubles_refused(self, lo, hi):
        # an int bound past the largest double is refused as a bracket, not
        # later as an n
        with pytest.raises(DomainError, match="bracket"):
            sample_size_for_expected(k(32), 1.0, lo, hi)

    @pytest.mark.parametrize("target", [math.nan, math.inf, -math.inf])
    def test_non_finite_target_refused(self, target):
        # positive and finite: between the smallest and the largest double
        says = r"target must be in \[5e-324, 1.7976931348623157e\+308\], got "
        with pytest.raises(DomainError, match=says):
            sample_size_for_expected(k(32), target, 1e2, 1e9)
        with pytest.raises(DomainError, match=says):
            min_bits_for_expected(1000, target)
