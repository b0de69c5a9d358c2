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
import operator
import sys


class DomainError(ValueError):
    """Invalid argument value or malformed input object."""


class PreconditionError(DomainError):
    """The operation's mathematical hypothesis does not hold for this input."""


class NumericError(ArithmeticError):
    """A numerical routine failed to converge or produced unusable output."""


_FLOAT_MAX = sys.float_info.max


def number_text(value) -> str:
    """value as a message shows it: an int past the float range in six
    digits, not all of its own; anything else as str shows it."""
    if isinstance(value, int) and abs(value) > _FLOAT_MAX:
        import decimal

        return f"{decimal.Decimal(value):.6e}"
    return str(value)


def check_positive(name: str, value: float) -> None:
    """Raise DomainError unless value is finite and > 0 (NaN and inf fail),
    and at most the largest float, so float(value) is finite."""
    if not 0.0 < value < math.inf:
        raise DomainError(f"{name} must be finite and positive, got {number_text(value)}")
    if value > _FLOAT_MAX:  # an int or a long double past the float range
        raise DomainError(f"{name} {number_text(value)} is too large: it leaves the float range")


def as_float(name: str, value) -> float:
    """float(value), with an int past the float range a DomainError rather
    than an OverflowError."""
    try:
        return float(value)
    except OverflowError:
        raise DomainError(f"{name} {number_text(value)} leaves the float range") from None


def check_index(name: str, value) -> int:
    """value as an int; raise DomainError unless it is an integer (a float
    or a string fails, a numpy integer passes)."""
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value}") from None
