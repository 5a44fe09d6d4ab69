"""Exception types shared across the package, and the check of a count input.

The CLI maps these onto exit codes.  CertificationError and
DegenerateDistanceError describe a well-formed computation with a negative
outcome (exit 2).  InputError and its subclasses (a bad invocation),
ResourceLimitError and NumericalError exit 1.
"""


class InputError(ValueError):
    """Malformed or inapplicable input (dimension mismatch, bad space string,
    theorem not applicable to the given space, ...)."""


class InfeasibleDegreeError(InputError):
    """No integer degree d satisfies c*n*sqrt(m) < d^p < 2*c*n*sqrt(m)."""


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


def require_int(name: str, value, least: int) -> int:
    """value as an int, or InputError unless it is a whole number >= least
    (NaN, inf, 2.5 and '2' are refused; 2.0 is read as 2)."""
    try:
        below = not value >= least  # NaN is below
    except TypeError:
        raise InputError(f"{name} must be a number, got {value!r}") from None
    if below:
        raise InputError(f"{name} must be >= {least}, got {value}")
    if not (isinstance(value, int) or float(value).is_integer()):  # inf is not
        raise InputError(f"{name} must be an integer, got {value}")
    return int(value)
