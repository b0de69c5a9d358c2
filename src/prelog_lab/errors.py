"""Error taxonomy shared across the library.

DomainError covers invalid arguments (bad parameter ranges, malformed
segment lists, mismatched lengths).  PreconditionError marks calls whose
mathematical hypothesis fails for the given model, e.g. asking for the
worst-case pre-log lower bound of a process with positive mass at zero.
NumericError marks internal numerical failures (a nonpositive innovation
variance in the Szego recursion, i.e. a matrix that is not numerically
positive definite, a non-Hermitian matrix handed to the eigenvalue
routine, or a capacity lower bound above its upper bound at the same snr).
Every spectral integral and bound is finite for every finite snr.
"""

import math


class DomainError(ValueError):
    """Invalid argument value or malformed input object."""


class PreconditionError(DomainError):
    """The operation's mathematical hypothesis does not hold for this input."""


class NumericError(ArithmeticError):
    """A numerical routine failed to converge or produced unusable output."""


def check_positive(name: str, value: float) -> None:
    """Raise DomainError unless value is finite and > 0 (NaN and inf fail)."""
    if not 0.0 < value < math.inf:
        raise DomainError(f"{name} must be finite and positive, got {value}")
