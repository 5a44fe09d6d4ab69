"""Exception types shared across the package, the input gates, which return the int
or float the code computes with (a count: require_int; a real: require_real,
require_positive; an exponent p >= 1, inf too where the caller allows it:
require_exponent; an even integer >= 2 that a double holds: require_even_exponent),
and shown, which prints a refused value.  A Decimal NaN is refused as a float NaN is.

The CLI maps these onto exit codes.  CertificationError and
DegenerateDistanceError describe a well-formed computation with a negative
outcome (exit 2).  InputError (a bad invocation, an infeasible degree window
among them), ResourceLimitError and NumericalError exit 1.
"""

import math
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
    """value as a refusal prints it: an int or a Fraction that float() overflows on is
    named, not printed, as str() refuses an int of over 4300 digits."""
    try:
        float(value)
    except OverflowError:
        return "a number past the largest double"
    except ValueError:  # float() refuses a Decimal sNaN
        pass
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


def require_real(name: str, value, inf: bool = False) -> float:
    """value as a float, or InputError unless it is finite, or inf where inf is set (a
    str, None, a complex, NaN, -inf and a number past the largest double are refused)."""
    try:
        if math.isfinite(value) or inf and value == math.inf:
            x = float(value)  # rounds a number just past the largest double down to it
            if abs(x) != float_info.max or abs(value) <= float_info.max:  # exact there; a
                return x  # float32 is never there, so the double is never cast to float32
    except TypeError:
        raise InputError(f"{name} must be a number, got {value!r}") from None
    except (OverflowError, ValueError):  # float() of an int past the largest double; a Decimal sNaN
        pass
    raise InputError(f"{name} must be finite, got {shown(value)}")


def require_positive(name: str, value) -> float:
    """require_real's float (NaN and +-inf are not finite), refused unless it is above 0."""
    x = require_real(name, value)
    if not x > 0:
        raise InputError(f"{name} must be positive, got {x}")
    return x


def require_exponent(name: str, value, inf: bool = False) -> float:
    """require_real's float (inf too where inf is set), refused unless it is >= 1."""
    x = require_real(name, value, inf)
    if not x >= 1.0:
        raise InputError(f"{name} must be >= 1, got {x}")
    return x


def require_even_exponent(name: str, value) -> int:
    """value as an int, refused unless it is an even integer of at least 2 that a
    double holds: a power call reads the exponent as a double."""
    k = require_int(name, value, 2)
    if k > float_info.max:  # compared exactly, and k is not printed: it may be too long
        raise ResourceLimitError(f"{name} is above the largest double, {float_info.max:.17g}")
    if k % 2 != 0:
        raise InputError(f"{name} must be a positive even integer, got {k}")
    return k
