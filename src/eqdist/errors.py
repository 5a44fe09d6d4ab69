"""Exception types shared across the package, the checks of a count input
(require_int) and of a real input (require_real, require_positive), and shown.
A Decimal NaN, whose ordering comparisons signal, is refused as a float NaN is.

The CLI maps these onto exit codes.  CertificationError and
DegenerateDistanceError describe a well-formed computation with a negative
outcome (exit 2).  InputError (a bad invocation, an infeasible degree window
among them), ResourceLimitError and NumericalError exit 1.
"""

import math
from contextlib import suppress
from sys import float_info


class InputError(ValueError):
    """Malformed or inapplicable input (dimension mismatch, bad space string,
    theorem not applicable to the given space, ...)."""


class ResourceLimitError(RuntimeError):
    """A computation was refused because its expansion would exceed the
    tractability cap."""


class NumericalError(RuntimeError):
    """A numerical routine failed to bracket or converge where it should."""


class CertificationError(RuntimeError):
    """A certified quantity failed its bound check."""


class DegenerateDistanceError(RuntimeError):
    """A point set contains a zero pairwise distance (coincident points); zero
    is not counted as a distance."""


def shown(value) -> str:
    """value as a refusal prints it: a number past the largest double is named, not
    printed, as str() refuses an int of over 4300 digits."""
    with suppress(ArithmeticError):  # a Decimal NaN signals where a float NaN compares False
        if float_info.max < abs(value) < math.inf:
            return "a number past the largest double"
    return str(value)


def require_int(name: str, value, least: int) -> int:
    """value as an int, or InputError unless it is a whole number >= least
    (NaN, inf, 2.5 and '2' are refused; 2.0 is read as 2)."""
    try:
        below = not value >= least  # NaN is below
    except TypeError:
        raise InputError(f"{name} must be a number, got {value!r}") from None
    except ArithmeticError:  # a Decimal NaN signals where a float NaN compares False
        below = True
    if below:
        raise InputError(f"{name} must be >= {least}, got {shown(value)}")
    if not (isinstance(value, int) or value < math.inf and value == int(value)):  # exact; inf is not
        raise InputError(f"{name} must be an integer, got {shown(value)}")
    return int(value)


def require_real(name: str, value) -> float:
    """value as a float, or InputError unless it is a finite real number (a str,
    None, a complex, NaN, inf and an int past the largest double are refused)."""
    try:
        if abs(value) <= float_info.max:  # NaN, inf and ints past it are not
            return float(value)
    except TypeError:
        raise InputError(f"{name} must be a number, got {value!r}") from None
    except ArithmeticError:  # a Decimal NaN signals where a float NaN compares False
        pass
    raise InputError(f"{name} must be finite, got {shown(value)}")


def require_positive(name: str, value) -> float:
    """require_real's float (NaN and +-inf are not finite), refused unless it is above 0."""
    x = require_real(name, value)
    if not x > 0:
        raise InputError(f"{name} must be positive, got {x}")
    return x
