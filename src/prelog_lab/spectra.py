"""Spectral distribution functions with piecewise-constant densities.

The fading processes handled here all have absolutely continuous spectral
distribution functions on the harmonic interval [-1/2, 1/2] whose density
is flat on finitely many segments.  That covers the IID case (flat density
1), rectangular bands, and the four-band on-off spectrum, and makes every
derived quantity (autocovariance, log-integral, zero-set measure) available
in closed form.  SpectralDensity and AutocovarianceSeq are immutable
records, checked when they are built; JSON is parsed (and json imported)
only by SpectralDensity.from_json.

autocovariance(S, m) is one lag in plain complex arithmetic.  A sequence
r(0..m_max) (autocovariance_sequence, and the first row of the Szego
route) is one complex ndarray, the same closed form taken over all lags
at once per segment, bit for bit the scalar's lags; numpy is imported
there and nowhere else in this module.

All information quantities are in nats.
"""

from __future__ import annotations

import cmath
import math
import sys

from ._record import Record
from .errors import (
    MAX_ELEMENTS,
    DomainError,
    _as_number,
    as_complex,
    as_float,
    as_list,
    check_index,
    check_positive,
)

# mass bookkeeping tolerance for validated densities
MASS_TOL = 1e-12

# the largest density value whose closed-form terms take the direct form
_HALF_MAX = sys.float_info.max / 2

DIAGNOSTIC_SNRS = (1e3, 1e6, 1e12)


class SpectralDensity(Record):
    """Piecewise-constant spectral density F' on [-1/2, 1/2].

    segments: ordered (lo, hi, value) triples partitioning [-1/2, 1/2];
        zero-density gaps are stored explicitly as value-0 segments.
    variance: total mass, positive and equal to the sum of segment masses.

    Immutable after construction; all methods are pure.
    """

    __slots__ = ("segments", "variance")

    def __init__(self, segments, variance: float = 1.0):
        segs = tuple(map(_segment, as_list("segments", segments, "(lo, hi, value) triples")))
        object.__setattr__(self, "segments", segs)
        object.__setattr__(self, "variance", as_float("variance", variance))
        check_positive("variance", self.variance)
        if not segs:
            raise DomainError("density needs at least one segment")
        if segs[0][0] != -0.5 or segs[-1][1] != 0.5:
            raise DomainError("segments must span [-1/2, 1/2] exactly")
        prev_hi = None
        for lo, hi, v in segs:
            if not (lo < hi):
                raise DomainError(f"segment ({lo}, {hi}) has lo >= hi")
            if prev_hi is not None and lo != prev_hi:
                raise DomainError(
                    f"segments must tile without gap or overlap, got break at {lo}"
                )
            if v < 0:
                raise DomainError(f"negative density value {v}")
            if not math.isfinite(v):
                raise DomainError("density values must be finite")
            prev_hi = hi
        mass = math.fsum((hi - lo) * v for lo, hi, v in segs)
        if not abs(mass - self.variance) <= MASS_TOL:  # also rejects NaN
            raise DomainError(
                f"segment mass {mass!r} does not match variance {self.variance!r}"
            )

    @classmethod
    def from_json(cls, text: str) -> "SpectralDensity":
        """Parse {"segments": [[lo, hi, value], ...], "variance": v}, every
        entry a JSON number; bools, strings and the rest are DomainErrors."""
        import json

        try:
            # ints parse as floats, so an integer past the float range is inf
            obj = json.loads(text, parse_int=float)
            segments, variance = obj["segments"], obj["variance"]
        except (KeyError, TypeError, ValueError) as exc:  # ValueError: bad JSON
            raise DomainError(f"malformed spectral density JSON: {exc}") from exc
        if not (isinstance(segments, list) and isinstance(variance, float) and all(
                isinstance(seg, list) and len(seg) == 3
                and all(isinstance(x, float) for x in seg) for seg in segments)):
            raise DomainError("a spectral density needs [lo, hi, value] segments and a "
                              "variance, all JSON numbers")
        return cls(tuple(map(tuple, segments)), variance)


def _segment(seg) -> tuple[float, float, float]:
    """seg as a (lo, hi, value) triple of floats; anything else raises
    DomainError."""
    try:
        lo, hi, v = seg
    except (TypeError, ValueError):
        raise DomainError(f"a segment is a (lo, hi, value) triple, got {seg!r}") from None
    return as_float("segment edge", lo), as_float("segment edge", hi), as_float("density value", v)


class AutocovarianceSeq(Record):
    """Autocovariance values r(0..m_max) of a stationary process.

    Every value is a number with finite parts (see errors.as_complex).
    r(0) must be real and nonnegative; |r(m)| can never exceed r(0).
    Empirical estimates of a constant path legitimately have r(0) = 0,
    so zero variance is allowed.
    """

    __slots__ = ("values",)

    def __init__(self, values):
        vals = tuple(as_complex(f"r({m})", v)
                     for m, v in enumerate(as_list("autocovariance values", values)))
        object.__setattr__(self, "values", vals)
        if not vals:
            raise DomainError("autocovariance sequence needs at least r(0)")
        r0 = vals[0]
        if abs(r0.imag) > MASS_TOL * max(1.0, abs(r0.real)):
            raise DomainError(f"r(0) must be real, got {r0}")
        if r0.real < 0:
            raise DomainError(f"r(0) must be nonnegative, got {r0.real}")
        bound = _lag_bound(r0.real)
        for m, v in enumerate(vals):
            if abs(v) > bound:
                raise _lag_error(m, v, r0.real)

    def __len__(self) -> int:
        return len(self.values)


def _lag_bound(r0: float) -> float:
    """The largest |r(m)| an autocovariance sequence with r(0) = r0 may
    hold: PSD sequences satisfy |r(m)| <= r(0), with slack for rounding."""
    return r0 * (1 + 1e-9) + 1e-12


def _lag_error(m: int, v: complex, r0: float) -> DomainError:
    return DomainError(f"|r({m})| = {abs(v)} exceeds r(0) = {r0}")


def make_rect_band(W: float, variance: float = 1.0) -> SpectralDensity:
    """Flat band of half-width W: density variance/(2W) on |lam| <= W.

    W = 1/2 gives the flat (IID) density.  Raises DomainError outside
    0 < W <= 1/2.
    """
    x = _as_number("band half-width", W)
    if not 0 < x <= 0.5:
        raise DomainError(f"band half-width must lie in (0, 1/2], got {W}")
    W, variance = x, as_float("variance", variance)
    if W == 0.5:
        return SpectralDensity(((-0.5, 0.5, variance),), variance)
    v = variance / (2 * W)
    return SpectralDensity(
        ((-0.5, -W, 0.0), (-W, W, v), (W, 0.5, 0.0)), variance
    )


def make_onoff_spectrum(W: float) -> SpectralDensity:
    """Four flat bands of density 1/(4W): |lam| <= W and |lam| >= 1/2 - W.

    This is the spectrum of a product of an alternating on-off process and
    a bandlimited process of half-width W; the band at the edge of the
    harmonic interval is the image of the baseband pair shifted by 1/2.
    Requires 0 < W < 1/4.
    """
    x = _as_number("on-off half-width", W)
    if not 0 < x < 0.25:
        raise DomainError(f"on-off half-width must lie in (0, 1/4), got {W}")
    W = x
    v = 1.0 / (4 * W)
    return SpectralDensity(
        (
            (-0.5, -0.5 + W, v),
            (-0.5 + W, -W, 0.0),
            (-W, W, v),
            (W, 0.5 - W, 0.0),
            (0.5 - W, 0.5, v),
        )
    )


def zero_set_measure(S: SpectralDensity) -> float:
    """Lebesgue measure of {lam: F'(lam) = 0}.

    Zero detection is exact equality on segment values; the constructors
    write exact zeros, so no epsilon thresholding is involved.
    """
    return math.fsum(hi - lo for lo, hi, v in S.segments if v == 0.0)


def autocovariance(S: SpectralDensity, m: int) -> complex:
    """r(m) = integral of e^{i 2 pi m lam} F'(lam) d lam, in closed form.

    Piecewise-constant density gives a sum of complex-exponential
    antiderivatives per segment.  r(0) is the total mass and
    r(-m) = conj(r(m)).  m is an integer with |m| < MAX_ELEMENTS, the lags
    a sequence could hold; anything else is a DomainError.

    The phase difference d of a segment has |Re d|, |Im d| <= 2, so v d is
    finite for v <= _HALF_MAX.  A larger v, whose v d may pass the float
    range, takes its term as 2 ((v/2) d / w): the halving and doubling are
    exact there, so every lag keeps the direct form's bits wherever that
    form is finite, and is finite everywhere.
    """
    m = check_index("lag", m, 1 - MAX_ELEMENTS, MAX_ELEMENTS)
    if m == 0:
        return complex(S.variance)
    acc = 0j
    w = 2j * math.pi * m
    for lo, hi, v in S.segments:
        if v == 0.0:
            continue
        d = cmath.exp(w * hi) - cmath.exp(w * lo)
        acc += v * d / w if v <= _HALF_MAX else 2 * (v / 2 * d / w)
    return acc


def autocovariance_sequence(S: SpectralDensity, m_max: int) -> AutocovarianceSeq:
    """r(0..m_max) as an AutocovarianceSeq, each lag autocovariance(S, m)
    bit for bit (see _autocovariance_row)."""
    m_max = check_index("m_max", m_max, 0, MAX_ELEMENTS - 1)  # m_max + 1 lags
    return AutocovarianceSeq(_autocovariance_row(S, m_max).tolist())


def _autocovariance_row(S: SpectralDensity, m_max: int):
    """r(0..m_max) as one complex ndarray, unchecked; m_max >= 0.

    The closed form of autocovariance(S, m) over all lags at once, with
    c = fl(2 pi m): per nonzero segment, d = e^{i c hi} - e^{i c lo} and
    r += v d / (i c), that is re += v Im d / c and im -= v Re d / c.  Two
    facts give every lag the scalar's bits.  ic x has imaginary part
    fl(c x), with or without fused multiply-adds, and real part +-0, which
    cexp ignores, so its exp is cmath.exp(w x), w = 2j pi m.  And CPython
    divides by w = (0, c) as two real divisions by c; the zero terms of its
    branch only flip signs of zero, which the sums, starting at +0, never
    keep.  numpy's own complex quotient multiplies by 1/c, which rounds
    differently.  A v past _HALF_MAX takes autocovariance's overflow rule.
    """
    import numpy as np

    row = np.zeros(m_max + 1, dtype=np.complex128)
    row[0] = S.variance
    re, im = row.real[1:], row.imag[1:]
    c = 2 * math.pi * np.arange(1, m_max + 1, dtype=np.float64)
    ic = 1j * c
    for lo, hi, v in S.segments:
        if v == 0.0:
            continue
        d = np.exp(ic * hi) - np.exp(ic * lo)
        if v <= _HALF_MAX:
            re += v * d.imag / c
            im -= v * d.real / c
        else:
            re += 2 * (v / 2 * d.imag / c)
            im -= 2 * (v / 2 * d.real / c)
    return row


def spectral_log_integral(S: SpectralDensity, snr: float) -> float:
    """Integral of log(1 + snr F'(lam)) over [-1/2, 1/2], in nats.

    Closed form: sum over segments of (hi - lo) log(1 + snr value), finite
    for every finite snr (see _log1p_product).
    """
    snr = check_positive("snr", snr)
    return math.fsum(
        (hi - lo) * _log1p_product(snr, v) for lo, hi, v in S.segments if v > 0.0
    )


def _log1p_product(a: float, b: float) -> float:
    """log(1 + a b) for a, b > 0.  Where a b overflows the float range it is
    log a + log b + log1p(1/a/b), which stays finite; everywhere else it is
    log1p(a b), bit for bit."""
    x = a * b
    if x < math.inf:
        return math.log1p(x)
    return math.log(a) + math.log(b) + math.log1p(1.0 / a / b)


def limiting_ratio(S: SpectralDensity) -> float:
    """Limit of spectral_log_integral(S, snr)/log(snr) as snr grows.

    Equals the measure of the support {F' > 0}, i.e. 1 - zero_set_measure.
    finite_snr_ratios exposes the finite-snr trajectory toward this value.
    """
    total = math.fsum(hi - lo for lo, hi, _ in S.segments)
    return total - zero_set_measure(S)


def finite_snr_ratios(S: SpectralDensity) -> list[tuple[float, float]]:
    """Diagnostic (snr, integral/log snr) pairs at DIAGNOSTIC_SNRS,
    approaching limiting_ratio.

    For densities with values >= 1 on their support the ratio decreases
    monotonically to the limit; in general it converges from either side.
    """
    return [(snr, spectral_log_integral(S, snr) / math.log(snr)) for snr in DIAGNOSTIC_SNRS]
