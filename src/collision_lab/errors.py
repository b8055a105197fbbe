"""Exception types, and the argument checks and parser every entry point shares."""

import numbers
import operator
from decimal import Decimal, InvalidOperation

__all__ = ["BracketingError", "CapacityError", "DomainError", "exact_index", "exact_int",
           "real_number", "shown"]


class DomainError(ValueError):
    """An argument is outside the mathematical domain of an operation."""


class CapacityError(RuntimeError):
    """A configured size cap would be exceeded; raised instead of degrading."""


class BracketingError(ValueError):
    """A root solver was given an interval without a sign change."""


def exact_index(name: str, value, lo: int = 0, hi=None) -> int:
    """``value`` (a Python or numpy integer) as a Python int in [lo, hi], or
    in [lo, inf) when hi is None.  A bool or a non-integer, 2.0 included,
    raises TypeError; an integer out of range raises DomainError."""
    try:
        if isinstance(value, bool):
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None
    if value < lo or (hi is not None and value > hi):
        bounds = f">= {lo}" if hi is None else f"in {lo}..{hi}"
        raise DomainError(f"{name} must be {bounds}, got {shown(value)}")
    return value


def shown(value) -> str:
    """str(value) for a message; an int too long for str() in scientific form."""
    try:
        return str(value)
    except ValueError:
        return f"{Decimal(value):.6e}"


def real_number(name: str, value):
    """``value`` unchanged when it is a real number (a Python or numpy int
    or float, a Fraction); a bool, numpy's included, or a non-real raises
    TypeError.  Range checks are the caller's."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a real number, got {value!r}")
    return value


# int()'s default limit on decimal strings; it also keeps '1e999999999'
# from building a billion-digit integer
_MAX_INT_DIGITS = 4300


def exact_int(text: str) -> int:
    """An exact integer, also in scientific form ('1e6'); '1.5' is refused
    with ValueError."""
    try:
        value = Decimal(text)
    except InvalidOperation:
        value = Decimal("NaN")
    if (not value.is_finite() or value != value.to_integral_value()
            or value.adjusted() >= _MAX_INT_DIGITS):
        raise ValueError(f"expected an exact integer, got {text!r}")
    return int(value)
