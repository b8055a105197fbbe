"""Numerically stable scalar primitives: exp(x)-1, log(1+x) and compensated
sums of log1p terms.

``expm1_ref`` is a self-contained reference implementation of the classic
three-region expm1 algorithm (threshold constants 2^-52, 1e-8 and 0.697,
plus a single Newton correction step).  It exists so the region structure
can be inspected and tested on its own; everything else in the library
uses the platform intrinsics ``math.expm1``/``math.log1p``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .errors import real_number

__all__ = [
    "DOUBLE_EPS",
    "StableEvalReport",
    "expm1_ref",
    "log1p_stable",
    "sum_log1p",
]

# Gap between 1.0 and the next representable double (C's DBL_EPSILON).
DOUBLE_EPS = 2.0 ** -52

# |x| above this is safe for the direct exp(x)-1: the result's magnitude
# exceeds 0.5, so the subtraction loses at most one bit.
_DIRECT_THRESHOLD = 0.697

# |x| below this uses the two-term Taylor polynomial instead of exp().
_TAYLOR_THRESHOLD = 1e-8


def expm1_ref(x: float) -> float:
    """Reference exp(x) - 1 via the three-region algorithm.

    Regions for a = |x|:
      a <  2^-52          -> x  (exp(x)-1 rounds to x itself)
      a >  0.697          -> exp(x) - 1 directly (negligible cancellation)
      a in (1e-8, 0.697]  -> y = exp(x) - 1, then one Newton step
      a in [2^-52, 1e-8]  -> y = (x/2 + 1)*x, then one Newton step

    The Newton step improves the root of f(y) = log(1+y) - x via
    y <- y - (1+y)*(log1p(y) - x).  Exactly one step is applied; NaN raises DomainError.
    """
    x = real_number("x", x, -math.inf, math.inf)
    a = abs(x)
    if a < DOUBLE_EPS:
        return x
    if a > _DIRECT_THRESHOLD:
        try:
            return math.exp(x) - 1.0
        except OverflowError:  # also an int or Fraction beyond the doubles
            return math.inf if x > 0 else -1.0
    if a > _TAYLOR_THRESHOLD:
        y = math.exp(x) - 1.0
    else:
        y = (x / 2.0 + 1.0) * x
    y -= (1.0 + y) * (math.log1p(y) - x)
    return y


def log1p_stable(x: float) -> float:
    """log(1 + x) with full relative accuracy near x = 0.

    Raises DomainError for x <= -1 or NaN rather than returning -inf/NaN, so
    that probability code downstream can distinguish misuse from underflow.
    """
    return math.log1p(real_number("x", x, math.nextafter(-1.0, 0.0)))


def sum_log1p(terms) -> float:
    """Compensated sum of log1p over ``terms`` (each term must be > -1).

    Each term goes through ``log1p_stable`` (so a term <= -1 or NaN raises
    DomainError) and the values are summed with math.fsum, exact Shewchuk
    accumulation, strictly stronger than Kahan compensation.  The empty sum
    is 0.
    """
    return math.fsum(map(log1p_stable, terms))


@dataclass(frozen=True)
class StableEvalReport:
    """Naive-vs-stable evaluation of one quantity at one input.

    ``relative_error`` is |stable - naive| / |stable|, or None when the
    stable value is 0 (the error is then flagged rather than divided out).
    """

    input: float
    naive_value: float
    stable_value: float
    relative_error: Optional[float]

    @classmethod
    def compare(cls, input: float, naive: float, stable: float) -> "StableEvalReport":
        if stable == 0.0:
            rel = None
        else:
            rel = abs(stable - naive) / abs(stable)
        return cls(input=input, naive_value=naive, stable_value=stable,
                   relative_error=rel)
