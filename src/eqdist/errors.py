"""Exception types shared across the package.

The CLI maps these onto exit codes.  CertificationError and
DegenerateDistanceError describe a well-formed computation with a negative
outcome (exit 2).  InputError and its subclasses (a bad invocation),
ResourceLimitError and NumericalError exit 1.
"""


class InputError(ValueError):
    """Malformed or inapplicable input (dimension mismatch, bad space string,
    theorem not applicable to the given space, ...)."""


class UnsupportedRequestError(InputError):
    """The request is outside the implemented scope (e.g. s-distance lower
    bounds for s > 1)."""


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
    """A point set contains a (near-)zero pairwise distance; zero is not
    counted as a distance."""
