"""Bit-level anatomy of IEEE-754 binary64 values.

A double is (-1)^s * (1.f51...f0)_2 * 2^(e-1023) for exponent fields
1..2046; e = 0 holds zeros and subnormals, e = 2047 infinities and NaNs.
Machine constants are derived here by composing bit fields, then checked
against the platform, which makes the module self-validating on any
IEEE-754 host.
"""

from __future__ import annotations

import math
import struct
import sys
from dataclasses import dataclass

from .errors import DomainError, exact_index, real_number, shown

__all__ = [
    "FloatAnatomy",
    "MachineConstants",
    "decompose",
    "compose",
    "machine_constants",
    "spacing",
]

SIGNIFICAND_BITS = 52
EXPONENT_BITS = 11
EXPONENT_BIAS = 1023
_EXP_MAX_FIELD = 2047
_FRAC_MASK = (1 << SIGNIFICAND_BITS) - 1


@dataclass(frozen=True)
class FloatAnatomy:
    """Sign / exponent-field / significand-field split of one double."""

    sign: int
    exponent_field: int
    significand_bits: int

    @property
    def float_class(self) -> str:
        """One of zero, subnormal, normal, infinity, nan."""
        if self.exponent_field == 0:
            return "zero" if self.significand_bits == 0 else "subnormal"
        if self.exponent_field == _EXP_MAX_FIELD:
            return "infinity" if self.significand_bits == 0 else "nan"
        return "normal"

    @property
    def unbiased_exponent(self) -> int:
        return self.exponent_field - EXPONENT_BIAS


def _to_bits(x: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", x))[0]


def _from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def decompose(x: float) -> FloatAnatomy:
    """Split ``x``, NaN and infinities too, into its bit groups (1 + 11 + 52 bits).
    A finite value that rounds past the largest double, which has no bit
    fields, raises DomainError."""
    x = real_number("x", x)
    try:
        x = float(x)
    except OverflowError:
        raise DomainError(f"x must be in the double range [-{sys.float_info.max}, "
                          f"{sys.float_info.max}], or be inf or nan, got {shown(x)}") from None
    bits = _to_bits(x)
    return FloatAnatomy(
        sign=bits >> 63,
        exponent_field=(bits >> SIGNIFICAND_BITS) & _EXP_MAX_FIELD,
        significand_bits=bits & _FRAC_MASK,
    )


def compose(anatomy: FloatAnatomy) -> float:
    """Inverse of decompose: reassemble the double from its bit fields."""
    s = exact_index("sign", anatomy.sign, 0, 1)
    e = exact_index("exponent field", anatomy.exponent_field, 0, _EXP_MAX_FIELD)
    f = exact_index("significand field", anatomy.significand_bits, 0, _FRAC_MASK)
    return _from_bits((s << 63) | (e << SIGNIFICAND_BITS) | f)


@dataclass(frozen=True)
class MachineConstants:
    xmin: float  # smallest positive normal, 2^-1022
    eps: float   # gap between 1 and the next double, 2^-52
    xmax: float  # largest finite double, (2^53 - 1) * 2^971


def machine_constants() -> MachineConstants:
    """Derive xmin, eps, xmax by bit composition and verify against the host.

    xmax is assembled as (2^53 - 1) * 2^971 rather than (1 - 2^-53) * 2^1024,
    whose direct evaluation would overflow.
    """
    xmin = compose(FloatAnatomy(0, 1, 0))
    eps = compose(FloatAnatomy(0, EXPONENT_BIAS, 1)) - 1.0
    xmax = compose(FloatAnatomy(0, 2046, _FRAC_MASK))
    info = sys.float_info
    if (xmin, eps, xmax) != (info.min, info.epsilon, info.max):
        raise RuntimeError(
            "composed machine constants disagree with the platform: "
            f"{(xmin, eps, xmax)} vs {(info.min, info.epsilon, info.max)}"
        )
    return MachineConstants(xmin=xmin, eps=eps, xmax=xmax)


def spacing(x: float) -> float:
    """Distance from |x| to the next representable double above it.

    Exposes the non-equidistance of the double grid: spacing(0.0) is the
    smallest subnormal 2^-1074, spacing(1.0) is 2^-52.  At the top of a
    binade the gap of that binade is reported (spacing(xmax) = 2^971).
    """
    x = real_number("x", x, -sys.float_info.max, sys.float_info.max)
    return math.ulp(abs(x))
