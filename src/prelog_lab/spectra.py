"""Spectral distribution functions with piecewise-constant densities.

The fading processes handled here all have absolutely continuous spectral
distribution functions on the harmonic interval [-1/2, 1/2] whose density
is flat on finitely many segments.  That covers the IID case (flat density
1), rectangular bands, and the four-band on-off spectrum, and makes every
derived quantity (autocovariance, log-integral, zero-set measure) available
in closed form.

All information quantities are in nats.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass

from .errors import DomainError, check_positive

# mass bookkeeping tolerance for validated densities
MASS_TOL = 1e-12

DIAGNOSTIC_SNRS = (1e3, 1e6, 1e12)


@dataclass(frozen=True)
class SpectralDensity:
    """Piecewise-constant spectral density F' on [-1/2, 1/2].

    segments: ordered (lo, hi, value) triples partitioning [-1/2, 1/2];
        zero-density gaps are stored explicitly as value-0 segments.
    variance: total mass, positive and equal to the sum of segment masses.

    Immutable after construction; all methods are pure.
    """

    segments: tuple[tuple[float, float, float], ...]
    variance: float = 1.0

    def __post_init__(self):
        segs = tuple((float(lo), float(hi), float(v)) for lo, hi, v in self.segments)
        object.__setattr__(self, "segments", segs)
        object.__setattr__(self, "variance", float(self.variance))
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


@dataclass(frozen=True)
class AutocovarianceSeq:
    """Autocovariance values r(0..m_max) of a stationary process.

    r(0) must be real and nonnegative; |r(m)| can never exceed r(0).
    Empirical estimates of a constant path legitimately have r(0) = 0,
    so zero variance is allowed.
    """

    values: tuple[complex, ...]

    def __post_init__(self):
        vals = tuple(complex(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if not vals:
            raise DomainError("autocovariance sequence needs at least r(0)")
        r0 = vals[0]
        if abs(r0.imag) > MASS_TOL * max(1.0, abs(r0.real)):
            raise DomainError(f"r(0) must be real, got {r0}")
        if r0.real < 0:
            raise DomainError(f"r(0) must be nonnegative, got {r0.real}")
        # PSD sequences satisfy |r(m)| <= r(0); allow rounding slack
        bound = r0.real * (1 + 1e-9) + 1e-12
        for m, v in enumerate(vals):
            if abs(v) > bound:
                raise DomainError(f"|r({m})| = {abs(v)} exceeds r(0) = {r0.real}")

    def __len__(self) -> int:
        return len(self.values)


def make_rect_band(W: float, variance: float = 1.0) -> SpectralDensity:
    """Flat band of half-width W: density variance/(2W) on |lam| <= W.

    W = 1/2 gives the flat (IID) density.  Raises DomainError outside
    0 < W <= 1/2.
    """
    if not 0 < W <= 0.5:
        raise DomainError(f"band half-width must lie in (0, 1/2], got {W}")
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
    if not 0 < W < 0.25:
        raise DomainError(f"on-off half-width must lie in (0, 1/4), got {W}")
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
    r(-m) = conj(r(m)).
    """
    m = int(m)
    if m == 0:
        return complex(S.variance)
    acc = 0j
    w = 2j * math.pi * m
    for lo, hi, v in S.segments:
        if v == 0.0:
            continue
        acc += v * (cmath.exp(w * hi) - cmath.exp(w * lo)) / w
    return acc


def autocovariance_sequence(S: SpectralDensity, m_max: int) -> AutocovarianceSeq:
    """r(0..m_max) as an AutocovarianceSeq."""
    if m_max < 0:
        raise DomainError(f"m_max must be nonnegative, got {m_max}")
    return AutocovarianceSeq(tuple(autocovariance(S, m) for m in range(m_max + 1)))


def spectral_log_integral(S: SpectralDensity, snr: float) -> float:
    """Integral of log(1 + snr F'(lam)) over [-1/2, 1/2], in nats.

    Closed form: sum over segments of (hi - lo) log(1 + snr value), finite
    for every finite snr (see _log1p_product).
    """
    check_positive("snr", snr)
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
