import math
import struct
import sys
from fractions import Fraction

import numpy as np
import pytest

from collision_lab.errors import DomainError
from collision_lab.ieee754 import (
    FloatAnatomy,
    compose,
    decompose,
    machine_constants,
    spacing,
)


def bits_of(x: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", x))[0]


class TestDecompose:
    def test_one(self):
        a = decompose(1.0)
        assert (a.sign, a.exponent_field, a.significand_bits) == (0, 1023, 0)
        assert a.float_class == "normal"

    def test_smallest_normal(self):
        a = decompose(2.0 ** -1022)
        assert (a.sign, a.exponent_field, a.significand_bits) == (0, 1, 0)
        assert a.float_class == "normal"

    def test_negative_zero(self):
        a = decompose(-0.0)
        assert (a.sign, a.exponent_field, a.significand_bits) == (1, 0, 0)
        assert a.float_class == "zero"

    def test_classifications(self):
        assert decompose(0.0).float_class == "zero"
        assert decompose(5e-324).float_class == "subnormal"
        assert decompose(math.inf).float_class == "infinity"
        assert decompose(-math.inf).float_class == "infinity"
        assert decompose(math.nan).float_class == "nan"
        assert decompose(-1.5).float_class == "normal"

    @pytest.mark.parametrize("x", [10 ** 400, -10 ** 400, Fraction(10 ** 400, 3),
                                   2 ** 1024 - 2 ** 970])
    def test_past_the_doubles_refused(self, x):
        # an exact value beyond the largest double has no bit fields
        with pytest.raises(DomainError, match=r"^x must be in the double range \["):
            decompose(x)

    def test_largest_exact_int_that_rounds_to_a_double(self):
        # 2^1024 - 2^970, halfway from xmax to 2^1024, rounds up past the
        # doubles; every int below it rounds to xmax
        assert decompose(2 ** 1024 - 2 ** 970 - 1) == decompose(sys.float_info.max)


class TestCompose:
    def test_largest_normal(self):
        x = compose(FloatAnatomy(0, 2046, (1 << 52) - 1))
        assert x == sys.float_info.max
        assert format(x, ".7g") == "1.797693e+308"
        # equals (2^53 - 1) * 2^971, the overflow-free form of (1-2^-53)*2^1024
        assert x == float(2 ** 53 - 1) * 2.0 ** 971

    def test_one_plus_eps(self):
        x = compose(FloatAnatomy(0, 1023, 1))
        assert x == 1.0 + 2.0 ** -52
        assert format(x - 1.0, ".7g") == "2.220446e-16"

    def test_minus_one(self):
        assert compose(FloatAnatomy(1, 1023, 0)) == -1.0

    @pytest.mark.parametrize("s,e,f", [
        (2, 0, 0), (-1, 0, 0), (0, 2048, 0), (0, -1, 0), (0, 0, 1 << 52),
    ])
    def test_out_of_range_fields(self, s, e, f):
        with pytest.raises(ValueError):
            compose(FloatAnatomy(s, e, f))


class TestRoundtrip:
    def test_random_bit_patterns(self):
        rng = np.random.default_rng(2024)
        patterns = rng.integers(0, 2 ** 64, size=10 ** 6, dtype=np.uint64)
        floats = patterns.view(np.float64)
        for x in floats[:: 997]:  # dense spot-check with exact bit compare
            x = float(x)
            assert bits_of(compose(decompose(x))) == bits_of(x)
        # full-width vectorized check through the same field arithmetic
        signs = (patterns >> np.uint64(63)).astype(np.uint64)
        exps = (patterns >> np.uint64(52)) & np.uint64(0x7FF)
        fracs = patterns & np.uint64((1 << 52) - 1)
        rebuilt = (signs << np.uint64(63)) | (exps << np.uint64(52)) | fracs
        assert np.array_equal(rebuilt, patterns)

    def test_edge_set(self):
        info = sys.float_info
        edges = [0.0, -0.0, info.min, -info.min, info.epsilon, -info.epsilon,
                 1.0, -1.0, 1.0 + 2.0 ** -52, math.nextafter(1.0, 0.0),
                 info.max, -info.max, math.inf, -math.inf, 5e-324, -5e-324,
                 math.nan, -math.nan,
                 struct.unpack("<d", struct.pack("<Q", 0x7FF800000000BEEF))[0]]
        for x in edges:
            assert bits_of(compose(decompose(x))) == bits_of(x)

    def test_formula_evaluation_is_exact_for_normals(self):
        # evaluate (-1)^s (1 + f/2^52) 2^(e-1023) in exact rational arithmetic
        rng = np.random.default_rng(7)
        exps = rng.integers(1, 2047, size=10 ** 4)
        fracs = rng.integers(0, 2 ** 52, size=10 ** 4, dtype=np.uint64)
        signs = rng.integers(0, 2, size=10 ** 4)
        for s, e, f in zip(signs[:400], exps[:400], fracs[:400]):
            x = compose(FloatAnatomy(int(s), int(e), int(f)))
            exact = ((-1) ** int(s) * (1 + Fraction(int(f), 2 ** 52))
                     * Fraction(2) ** (int(e) - 1023))
            assert Fraction(x) == exact


class TestMachineConstants:
    def test_values_match_platform_bitwise(self):
        mc = machine_constants()
        assert bits_of(mc.xmin) == bits_of(sys.float_info.min)
        assert bits_of(mc.eps) == bits_of(sys.float_info.epsilon)
        assert bits_of(mc.xmax) == bits_of(sys.float_info.max)

    def test_printed_forms(self):
        mc = machine_constants()
        assert format(mc.xmin, ".7g") == "2.225074e-308"
        assert format(mc.eps, ".7g") == "2.220446e-16"
        assert format(mc.xmax, ".7g") == "1.797693e+308"

    def test_derivations(self):
        mc = machine_constants()
        assert mc.xmin == 2.0 ** -1022
        assert mc.eps == 2.0 ** -52


class TestSubnormals:
    def test_threshold_report(self):
        xmin = machine_constants().xmin
        half = xmin / 2.0
        assert decompose(half).float_class == "subnormal"
        assert format(half, ".7g") == "1.112537e-308"
        smallest = xmin / 2.0 ** 52
        assert decompose(smallest) == FloatAnatomy(0, 0, 1)
        assert smallest == 5e-324
        assert decompose(xmin / 2.0 ** 53).float_class == "zero"

    def test_direct(self):
        xmin = sys.float_info.min
        assert xmin / 2 ** 52 != 0.0
        assert xmin / 2 ** 53 == 0.0


class TestSpacing:
    def test_at_one(self):
        assert spacing(1.0) == 2.0 ** -52

    def test_at_zero(self):
        assert spacing(0.0) == 2.0 ** -1074
        assert spacing(0.0) == 5e-324

    def test_at_half(self):
        assert spacing(0.5) == 2.0 ** -53

    def test_denser_below_one(self):
        just_below = math.nextafter(1.0, 0.0)
        assert spacing(just_below) == 2.0 ** -53
        assert spacing(1.0) == 2.0 ** -52
        assert spacing(just_below) < spacing(1.0)

    def test_tiny_vs_unit_gap(self):
        assert spacing(2.0 ** -1022) == 2.0 ** -1074
        assert spacing(2.0 ** -1022) < spacing(1.0)

    def test_negative_uses_magnitude(self):
        assert spacing(-1.0) == spacing(1.0)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_domain_errors(self, bad):
        with pytest.raises(DomainError):
            spacing(bad)
