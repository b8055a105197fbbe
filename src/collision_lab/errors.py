"""Exception types, and the argument rules and parser every entry point shares:
one rule each for integer arguments, real arguments and binary64 values, and
one for capacity (``within_budget``), the only code that raises CapacityError."""

import numbers
import operator
from decimal import Decimal, InvalidOperation

import numpy as np

__all__ = ["BracketingError", "CapacityError", "DomainError", "exact_index", "exact_int",
           "real_number", "require_binary64", "shown", "within_budget"]


class DomainError(ValueError):
    """An argument is outside the mathematical domain of an operation."""


class CapacityError(RuntimeError):
    """A call's stated cost exceeds its budget; raised before any work, instead
    of degrading."""


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


def within_budget(task: str, cost: int, unit: str, budget: int, grows_with: str) -> None:
    """Refuse ``task`` with CapacityError when its ``cost`` exceeds ``budget``.

    Each capped entry point states its cost as a formula in its arguments,
    in ``unit`` (draws, factors, cell updates, values held at once), and
    calls this before it does any work or allocates anything; ``grows_with``
    names the arguments the cost grows with.  The message names the cost,
    the budget and what drives the cost, in one form for every entry point."""
    if cost > budget:
        raise CapacityError(f"{task} would take {shown(cost)} {unit}, over its budget "
                            f"of {shown(budget)}; the cost grows with {grows_with}")


def shown(value) -> str:
    """str(value) for a message; an int too long for str() in scientific form."""
    try:
        return str(value)
    except ValueError:
        return f"{Decimal(value):.6e}"


def require_binary64(name: str, dtype: np.dtype) -> None:
    """Refuse complex values and floats wider than binary64, which no double holds."""
    if dtype.kind == "c" or np.finfo(dtype).nmant > 52:
        raise TypeError(f"{name} must fit binary64, got {dtype}")


def real_number(name: str, value, lo=None, hi=None):
    """``value`` as a real number in [lo, hi]; None is no bound, and an open
    bound is given as the adjacent double (math.ulp(0.0) for > 0).  A numpy
    float becomes the equal Python float and a numpy int the equal Python
    int, so no argument's type picks the precision a formula runs in or
    wraps a comparison in fixed width; Python ints and floats and Fractions
    pass unchanged.  A bool, a timedelta64, a non-real or a float wider
    than binary64 raises TypeError; a value outside [lo, hi] raises
    DomainError, and so does NaN against any bound."""
    if isinstance(value, np.floating):
        require_binary64(name, value.dtype)
        value = float(value)
    elif isinstance(value, np.integer):
        value = int(value)
    elif isinstance(value, (bool, np.timedelta64)) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a real number, got {value!r}")
    if (lo is not None and not value >= lo) or (hi is not None and not value <= hi):
        raise DomainError(f"{name} must be in [{'-inf' if lo is None else shown(lo)}, "
                          f"{'inf' if hi is None else shown(hi)}], got {shown(value)}")
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
