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

A number is checked once, and every formula after the check uses the
float the check returns, never the caller's object: an snr or a threshold
from check_positive, a band half-width from its range check in spectra.
So a numpy scalar of any precision, or an int, gives the bits of
float(value) and no numpy warning; numpy's own scalar rules would round
in float16 or float32, carry a long double, or overflow casting down.  A
string, bytes or anything else float() refuses is no number, and every
check raises DomainError for it (see _as_number).
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


def number_text(value) -> str:
    """value as a message shows it: an int past the float range in six
    digits, not all of its own; anything else as str shows it."""
    if isinstance(value, int) and abs(value) > sys.float_info.max:
        import decimal

        return f"{decimal.Decimal(value):.6e}"
    return str(value)


def _as_number(name: str, value, convert=float):
    """float(value), or an int past the float range as itself: Python
    compares either with a float exactly, where comparing the caller's
    numpy scalars would cast a Python float down to their precision.  A
    str, bytes or bytearray, which float() would parse, and anything
    float() refuses raise DomainError.  convert=complex reads a complex
    number by the same rule."""
    if type(value) is convert:
        return value
    if not isinstance(value, (str, bytes, bytearray)):
        try:
            return convert(value)
        except OverflowError:  # an int past the float range
            return value
        except (TypeError, ValueError):
            pass
    raise DomainError(f"{name} must be a number, got {value!r}")


def check_positive(name: str, value: float) -> float:
    """float(value), once that float is finite and > 0 (NaN and inf fail);
    anything else, a non-number included, raises DomainError.  A value
    past the float range, an int or a long double, is named too large.
    The range is judged on the float, so no bound is cast down to a numpy
    scalar's precision."""
    x = value
    if type(x) is not float:
        x = _as_number(name, value)
        if type(x) is not float:  # an int past the float range
            x = math.inf if x > 0 else -math.inf
    if x == math.inf and value != x:  # an int or a long double past the float range
        raise DomainError(f"{name} {number_text(value)} is too large: it leaves the float range")
    if not 0.0 < x < math.inf:
        raise DomainError(f"{name} must be finite and positive, got {number_text(value)}")
    return x


def as_float(name: str, value) -> float:
    """float(value) of a number, with an int past the float range a
    DomainError rather than an OverflowError, as is a non-number."""
    x = _as_number(name, value)
    if type(x) is not float:
        raise DomainError(f"{name} {number_text(value)} leaves the float range")
    return x


def as_complex(name: str, value) -> complex:
    """complex(value) of a number whose parts are finite; a non-number, an
    int past the float range, and a nan or infinite part raise DomainError."""
    x = _as_number(name, value, complex)
    if type(x) is not complex:
        raise DomainError(f"{name} {number_text(value)} leaves the float range")
    if not (math.isfinite(x.real) and math.isfinite(x.imag)):
        raise DomainError(f"{name} must be finite, got {x}")
    return x


# most elements of an array: a complex array of 2**59 elements holds 2**63
# bytes, past which numpy's address arithmetic raises ValueError, not
# MemoryError
MAX_ELEMENTS = 2**59


def _end_text(end: int) -> str:
    """A range end as a message shows it: 2**k or 2**k - 1 from k = 32 on
    (the seed and element limits), negated as -(...), digits otherwise."""
    a = abs(end)
    k = (a + 1).bit_length() - 1  # a is 2**k - 1 or 2**k, or above 2**k
    if k < 32 or a > 2**k:
        return str(end)
    text = f"2**{k}" if a == 2**k else f"2**{k} - 1"
    return f"-({text})" if end < 0 else text


def check_index(name: str, value, lo: int, hi: int | None = None) -> int:
    """value as an int in [lo, hi), hi None for no upper end (a numpy
    integer passes); anything else, a float or a string included, raises
    DomainError: "{name} must be an integer in [lo, hi), got {value}", or
    "... an integer >= lo, ..." without an upper end."""
    try:
        index = operator.index(value)
    except TypeError:
        index = None
    if index is None or index < lo or hi is not None and index >= hi:
        where = f">= {_end_text(lo)}" if hi is None else f"in [{_end_text(lo)}, {_end_text(hi)})"
        raise DomainError(f"{name} must be an integer {where}, got {number_text(value)}")
    return index
