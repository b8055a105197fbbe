import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from collision_lab.errors import DomainError
from collision_lab.stable_math import (
    DOUBLE_EPS,
    StableEvalReport,
    expm1_ref,
    log1p_fallback,
    log1p_stable,
    sum_log1p,
)


class TestExpm1Ref:
    def test_zero(self):
        assert expm1_ref(0.0) == 0.0

    def test_below_eps_returns_x_verbatim(self):
        assert expm1_ref(1e-20) == 1e-20
        assert expm1_ref(-1e-20) == -1e-20
        assert expm1_ref(5e-324) == 5e-324

    def test_taylor_region_value(self):
        # oracle: Decimal Taylor x + x^2/2 + x^3/6 + x^4/24 at 60 digits gives
        # 1.0000000000500000000016666...e-10, whose nearest double is the
        # literal below
        assert abs(expm1_ref(1e-10) - 1.00000000005e-10) <= 1e-24

    @pytest.mark.parametrize("x", [
        # both sides of each region boundary, both signs
        DOUBLE_EPS * 0.5, DOUBLE_EPS * 2.0,
        -DOUBLE_EPS * 0.5, -DOUBLE_EPS * 2.0,
        0.999e-8, 1.001e-8, -0.999e-8, -1.001e-8,
        0.696, 0.698, -0.696, -0.698,
    ])
    def test_region_boundaries_match_intrinsic(self, x):
        ref = math.expm1(x)
        assert abs(expm1_ref(x) - ref) <= 1e-13 * abs(ref)

    def test_matches_intrinsic_log_spaced(self):
        xs = np.logspace(-300, math.log10(0.7), 400)
        for x in np.concatenate([xs, -xs]):
            ref = math.expm1(x)
            assert abs(expm1_ref(x) - ref) <= 1e-13 * abs(ref)

    def test_monotone_on_grid(self):
        xs = np.concatenate([-np.logspace(1, -300, 300), [0.0],
                             np.logspace(-300, 1, 300)])
        ys = [expm1_ref(float(x)) for x in xs]
        assert all(a <= b for a, b in zip(ys, ys[1:]))

    def test_convexity_lower_bound(self):
        xs = np.concatenate([-np.logspace(2, -300, 250), [0.0],
                             np.logspace(-300, 2, 250)])
        for x in xs:
            assert expm1_ref(float(x)) >= float(x)

    def test_log1p_roundtrip(self):
        xs = np.concatenate([np.logspace(-280, math.log10(0.5), 200),
                             -np.logspace(-280, math.log10(0.5), 200)])
        for x in xs:
            x = float(x)
            assert abs(log1p_stable(expm1_ref(x)) - x) <= 1e-12 * abs(x)

    def test_large_positive_overflows_to_inf(self):
        assert expm1_ref(1000.0) == math.inf

    def test_large_negative_saturates(self):
        assert expm1_ref(-750.0) == -1.0


class TestLog1p:
    def test_zero(self):
        assert log1p_stable(0.0) == 0.0

    def test_tiny(self):
        # oracle: series x - x^2/2 at 1e-20; the correction is far below
        # one ulp, so the double result is x itself
        assert abs(log1p_stable(1e-20) - 1e-20) <= 1e-36

    def test_log_of_e(self):
        assert abs(log1p_stable(math.e - 1.0) - 1.0) <= 1e-15

    @pytest.mark.parametrize("x", [-1.0, -1.5, -2.0, math.nan])
    def test_domain_error(self, x):
        with pytest.raises(DomainError):
            log1p_stable(x)
        with pytest.raises(DomainError):
            log1p_fallback(x)

    def test_fallback_matches_intrinsic(self):
        xs = np.concatenate([
            np.logspace(-300, 15, 300),
            -np.logspace(-300, math.log10(0.999999), 300),
            [0.0, 1e-16, -1e-16, 0.5, -0.5, 3.0],
        ])
        for x in xs:
            x = float(x)
            ref = math.log1p(x)
            if ref == 0.0:
                assert log1p_fallback(x) == ref
            else:
                assert abs(log1p_fallback(x) - ref) <= 4e-16 * abs(ref)


class TestSumLog1p:
    def test_empty(self):
        assert sum_log1p([]) == 0.0

    def test_zeros(self):
        assert sum_log1p([0.0, 0.0, 0.0]) == 0.0

    def test_two_halves(self):
        # oracle: log(1/2) + log(1/2) = log(1/4)
        assert abs(sum_log1p([-0.5, -0.5]) - math.log(0.25)) <= 1e-12

    def test_domain_error(self):
        with pytest.raises(DomainError):
            sum_log1p([0.5, -1.0])
        with pytest.raises(DomainError):
            sum_log1p(np.array([0.5, -2.0]))
        with pytest.raises(DomainError):
            sum_log1p([math.nan])

    @given(st.floats(min_value=-0.99999, max_value=1e6,
                     allow_nan=False, allow_infinity=False))
    def test_singleton_equals_log1p_stable_exactly(self, x):
        assert sum_log1p([x]) == log1p_stable(x)

    def test_ndarray_matches_iterable(self):
        rng = np.random.default_rng(7)
        terms = rng.uniform(-0.9, 2.0, size=5000)
        assert sum_log1p(terms) == sum_log1p(list(terms))

    def test_large_block_against_fsum_reference(self):
        # every term goes through the scalar log1p, whatever the length;
        # reference is the direct exact sum of scalar log1p values
        i = np.arange(1, 200001, dtype=np.float64)
        terms = -(i / 2.0 ** 40)
        ref = math.fsum(math.log1p(float(t)) for t in terms)
        assert sum_log1p(terms) == ref

    def test_compensation_beats_naive_accumulation(self):
        # many tiny terms after one big one: naive running addition loses
        # the tail, compensated summation keeps it
        terms = np.concatenate([[1e9 - 1.0], np.full(100000, 1e-9)])
        naive = 0.0
        for t in terms:
            naive += math.log1p(t)
        ref = math.fsum(math.log1p(float(t)) for t in terms)
        assert abs(sum_log1p(terms) - ref) <= abs(naive - ref)


class TestStableEvalReport:
    def test_relative_error_definition(self):
        r = StableEvalReport.compare(3.0, naive=1.0, stable=2.0)
        assert r.relative_error == 0.5

    def test_zero_stable_flagged(self):
        r = StableEvalReport.compare(1.0, naive=1e-3, stable=0.0)
        assert r.relative_error is None

    @given(st.floats(allow_nan=False, allow_infinity=False, width=32),
           st.floats(allow_nan=False, allow_infinity=False, width=32))
    def test_nonnegative(self, naive, stable):
        r = StableEvalReport.compare(0.0, naive=naive, stable=stable)
        if r.relative_error is not None:
            assert r.relative_error >= 0.0
            assert not math.isnan(r.relative_error)
