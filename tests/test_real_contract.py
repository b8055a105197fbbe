"""The real-number contract at every entry point that takes a real argument.

A numpy float16, float32 or float64 gives what the equal Python float
gives, so that no argument's type picks the precision a formula runs in.
A numpy int gives what the equal Python int gives, so no comparison
wraps in fixed width.  A bool, a string, a Decimal or a float wider than
binary64 raises TypeError; NaN and a value outside the argument's range
raise DomainError.  Python ints and floats and Fractions pass unchanged.
"""

import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from collision_lab.analytics import (
    BucketSpace,
    expected_collisions,
    expected_collisions_naive,
    min_bits_for_expected,
    sample_size_for_expected,
)
from collision_lab.errors import DomainError, real_number
from collision_lab.ieee754 import decompose, spacing
from collision_lab.stable_math import expm1_ref, log1p_stable, sum_log1p

K32 = BucketSpace.power_of_two(32)

# entry point -> (call with the real argument x, an x exact in float16,
# values of x outside its domain)
ENTRY_POINTS = {
    "expected_collisions_naive": (lambda x: expected_collisions_naive(x, K32), 1000.0,
                                  [math.nan, -1.0, math.inf, 10 ** 400]),
    "expected_collisions": (lambda x: expected_collisions(x, K32), 1000.0,
                            [math.nan, -1.0, math.inf, 10 ** 400]),
    "min_bits_for_expected": (lambda x: min_bits_for_expected(10 ** 6, x), 0.25,
                              [math.nan, 0.0, -1.0, math.inf, 10 ** 400]),
    "sample_size_for_expected-target": (
        lambda x: sample_size_for_expected(K32, x, 1, 1e12), 116.0,
        [math.nan, 0.0, -1.0, math.inf, 10 ** 400]),
    "sample_size_for_expected-lo": (
        lambda x: sample_size_for_expected(K32, 116.0, x, 1e12), 1000.0,
        [math.nan, -1.0, 2e12, math.inf]),
    "sample_size_for_expected-hi": (
        lambda x: sample_size_for_expected(K32, 0.125, 1, x), 60000.0,
        [math.nan, 0.5, math.inf, 10 ** 400]),
    "decompose": (decompose, -0.375, [10 ** 400]),
    "spacing": (spacing, 1000.0, [math.nan, math.inf, -math.inf, 10 ** 400]),
    "expm1_ref": (expm1_ref, 0.25, [math.nan]),
    "log1p_stable": (log1p_stable, -0.25, [math.nan, -1.0, -2.0]),
    "sum_log1p": (lambda x: sum_log1p([0.5, x]), -0.25, [math.nan, -1.0, -2.0]),
}
CALLS = [(call, x) for call, x, _ in ENTRY_POINTS.values()]
NUMPY_FLOATS = [np.float16, np.float32, np.float64]
WIDER = [np.longdouble] if np.finfo(np.longdouble).nmant > 52 else []


@pytest.mark.parametrize("dtype", NUMPY_FLOATS)
@pytest.mark.parametrize("call, x", CALLS, ids=ENTRY_POINTS.keys())
def test_numpy_float_gives_the_python_float_value(call, x, dtype):
    value = dtype(x)
    assert float(value) == x
    got, want = call(value), call(x)
    assert type(got) is type(want) and got == want


@pytest.mark.parametrize("bad", [*map(np.longdouble, [1.0] * len(WIDER)), True, np.True_,
                                 "1.5", Decimal("1.5"), np.timedelta64(5, "s")],
                         ids=[*(["longdouble"] * len(WIDER)), "True", "np.True_", "str",
                              "Decimal", "timedelta64"])
@pytest.mark.parametrize("call, x", CALLS, ids=ENTRY_POINTS.keys())
def test_non_reals_refused(call, x, bad):
    with pytest.raises(TypeError):
        call(bad)


@pytest.mark.parametrize("call, bad", [(call, bad) for call, _, outside in ENTRY_POINTS.values()
                                       for bad in outside],
                         ids=[f"{name}-{bad!r:.12}" for name, (_, _, outside)
                              in ENTRY_POINTS.items() for bad in outside])
def test_outside_the_domain_refused(call, bad):
    with pytest.raises(DomainError):
        call(bad)


def test_decompose_takes_every_double():
    # decompose has no domain to leave: NaNs and infinities have bit fields
    assert decompose(np.float32(math.nan)).float_class == "nan"
    assert decompose(-math.inf).float_class == "infinity"


def test_numpy_float_arguments_no_longer_pick_the_precision():
    # float32 and float16 arithmetic would give n, 1000.0 and 998378.8
    assert expected_collisions(np.float32(1e6), K32) == 116.4061709465459
    assert expected_collisions_naive(np.float32(1e6), K32) == \
        expected_collisions_naive(1e6, K32)
    assert expected_collisions(np.float16(1000), K32) == pytest.approx(1.163e-4, rel=1e-3)
    hi = np.float32(1e12)  # 999999995904
    root = sample_size_for_expected(K32, 116, np.float32(1), hi)
    assert root == sample_size_for_expected(K32, 116, 1.0, float(hi))
    assert root == pytest.approx(998253.78, rel=1e-8)


def test_exact_values_pass_unchanged():
    # converting n to float first would give 2^53 - 1 at b = 1
    assert expected_collisions(2 ** 53 + 1, BucketSpace.exact(1)) == 2.0 ** 53
    for value in (2 ** 53 + 1, Fraction(1, 3), 0.1):
        assert real_number("x", value) is value
    assert type(real_number("x", np.float64(0.1))) is float


@pytest.mark.parametrize("value", [np.int64(-7), np.uint64(2 ** 64 - 1), np.uint8(200)],
                         ids=["int64", "uint64", "uint8"])
def test_numpy_int_gives_the_python_int(value):
    got = real_number("x", value)
    assert type(got) is int and got == int(value)


def test_numpy_int_bound_does_not_wrap():
    # Fraction(1, 2) < np.uint64(2^63) multiplies in uint64 and reads False,
    # which let this reversed bracket through to a root of 4.6e18
    with pytest.raises(DomainError, match="bracket hi"):
        sample_size_for_expected(K32, 1, np.uint64(2 ** 63), Fraction(1, 2))
    assert sample_size_for_expected(K32, 1, Fraction(1, 2), np.uint64(2 ** 63)) == \
        sample_size_for_expected(K32, 1, Fraction(1, 2), 2 ** 63)


def test_bounds_are_inclusive():
    assert real_number("x", 0.0, 0.0, 1.0) == 0.0
    assert real_number("x", 1, 0.0, 1.0) == 1
    with pytest.raises(DomainError, match=r"^x must be in \[0, 1\], got 2$"):
        real_number("x", 2, 0, 1)
    with pytest.raises(DomainError, match=r"^x must be in \[-inf, 1\], got nan$"):
        real_number("x", math.nan, hi=1)
    # without a bound only the type is checked: NaN is a real argument
    assert math.isnan(real_number("x", math.nan))


def test_expm1_ref_past_the_doubles():
    # an int beyond the doubles cannot reach math.exp; its expm1 is -1 or inf
    assert expm1_ref(-10 ** 400) == -1.0
    assert expm1_ref(10 ** 400) == math.inf
