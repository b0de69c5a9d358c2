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
from dataclasses import dataclass, field
from typing import Sequence

from .errors import DomainError, check_positive

# mass bookkeeping tolerance for validated densities
MASS_TOL = 1e-12
# tolerance when checking a user-supplied target variance in make_piecewise
TARGET_MASS_TOL = 1e-9

DIAGNOSTIC_SNRS = (1e3, 1e6, 1e12)


def sinc(x: float) -> float:
    """Normalized sinc, sin(pi x)/(pi x) with sinc(0) = 1."""
    if x == 0:
        return 1.0
    return math.sin(math.pi * x) / (math.pi * x)


@dataclass(frozen=True)
class SpectralDensity:
    """Piecewise-constant spectral density F' on [-1/2, 1/2].

    segments: ordered (lo, hi, value) triples partitioning [-1/2, 1/2];
        zero-density gaps are stored explicitly as value-0 segments.
    variance: total mass, must equal the sum of segment masses.

    Immutable after construction; all methods are pure.
    """

    segments: tuple[tuple[float, float, float], ...]
    variance: float = 1.0

    def __post_init__(self):
        segs = tuple((float(lo), float(hi), float(v)) for lo, hi, v in self.segments)
        object.__setattr__(self, "segments", segs)
        object.__setattr__(self, "variance", float(self.variance))
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

    def density_at(self, lam: float) -> float:
        """Density value at harmonic lam.

        Boundary harmonics belong to the segment on their left; -1/2
        belongs to the first segment.
        """
        if not -0.5 <= lam <= 0.5:
            raise DomainError(f"harmonic {lam} outside [-1/2, 1/2]")
        if lam == -0.5:
            return self.segments[0][2]
        for lo, hi, v in self.segments:
            if lo < lam <= hi:
                return v
        raise DomainError(f"harmonic {lam} not covered")  # unreachable on valid input

    def to_json(self) -> str:
        return json.dumps(
            {"segments": [[lo, hi, v] for lo, hi, v in self.segments],
             "variance": self.variance}
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
    variance: float = field(init=False)

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
        object.__setattr__(self, "variance", r0.real)
        # PSD sequences satisfy |r(m)| <= r(0); allow rounding slack
        bound = r0.real * (1 + 1e-9) + 1e-12
        for m, v in enumerate(vals):
            if abs(v) > bound:
                raise DomainError(f"|r({m})| = {abs(v)} exceeds r(0) = {r0.real}")

    def __len__(self) -> int:
        return len(self.values)

    def lag(self, m: int) -> complex:
        """r(m) for any lag with |m| < len, using r(-m) = conj(r(m))."""
        if abs(m) >= len(self.values):
            raise DomainError(f"lag {m} not available, have 0..{len(self.values) - 1}")
        return self.values[m] if m >= 0 else self.values[-m].conjugate()


def make_rect_band(W: float, variance: float = 1.0) -> SpectralDensity:
    """Flat band of half-width W: density variance/(2W) on |lam| <= W.

    W = 1/2 gives the flat (IID) density.  Raises DomainError outside
    0 < W <= 1/2.
    """
    if not 0 < W <= 0.5:
        raise DomainError(f"band half-width must lie in (0, 1/2], got {W}")
    if variance <= 0:
        raise DomainError(f"variance must be positive, got {variance}")
    if W == 0.5:
        return SpectralDensity(((-0.5, 0.5, variance),), variance)
    v = variance / (2 * W)
    return SpectralDensity(
        ((-0.5, -W, 0.0), (-W, W, v), (W, 0.5, 0.0)), variance
    )


def make_onoff_spectrum(W: float, variance: float = 1.0) -> SpectralDensity:
    """Four flat bands of density variance/(4W): |lam| <= W and |lam| >= 1/2 - W.

    This is the spectrum of a product of an alternating on-off process and
    a bandlimited process of half-width W; the band at the edge of the
    harmonic interval is the image of the baseband pair shifted by 1/2.
    Requires 0 < W < 1/4.
    """
    if not 0 < W < 0.25:
        raise DomainError(f"on-off half-width must lie in (0, 1/4), got {W}")
    if variance <= 0:
        raise DomainError(f"variance must be positive, got {variance}")
    v = variance / (4 * W)
    return SpectralDensity(
        (
            (-0.5, -0.5 + W, v),
            (-0.5 + W, -W, 0.0),
            (-W, W, v),
            (W, 0.5 - W, 0.0),
            (0.5 - W, 0.5, v),
        ),
        variance,
    )


def make_piecewise(
    segments: Sequence[Sequence[float]], variance: float | None = None
) -> SpectralDensity:
    """Validated density from raw (lo, hi, value) triples.

    When a target variance is supplied the segment mass must match it
    within 1e-9; the stored variance is always the exact segment mass.
    """
    segs = tuple((float(lo), float(hi), float(v)) for lo, hi, v in segments)
    mass = math.fsum((hi - lo) * v for lo, hi, v in segs)
    if variance is not None and not abs(mass - variance) <= TARGET_MASS_TOL:
        raise DomainError(
            f"segment mass {mass!r} does not match requested variance {variance!r}"
        )
    return SpectralDensity(segs, mass)


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

    Closed form: sum over segments of (hi - lo) log(1 + snr value).
    """
    check_positive("snr", snr)
    return math.fsum(
        (hi - lo) * math.log1p(snr * v) for lo, hi, v in S.segments if v > 0.0
    )


def limiting_ratio(S: SpectralDensity) -> float:
    """Limit of spectral_log_integral(S, snr)/log(snr) as snr grows.

    Equals the measure of the support {F' > 0}, i.e. 1 - zero_set_measure.
    finite_snr_ratios exposes the finite-snr trajectory toward this value.
    """
    total = math.fsum(hi - lo for lo, hi, _ in S.segments)
    return total - zero_set_measure(S)


def finite_snr_ratios(
    S: SpectralDensity, snrs: Sequence[float] = DIAGNOSTIC_SNRS
) -> list[tuple[float, float]]:
    """Diagnostic (snr, integral/log snr) pairs approaching limiting_ratio.

    For densities with values >= 1 on their support the ratio decreases
    monotonically to the limit; in general it converges from either side.
    """
    out = []
    for snr in snrs:
        check_positive("snr", snr)
        if snr <= 1:
            raise DomainError(f"ratio diagnostics need snr > 1, got {snr}")
        out.append((snr, spectral_log_integral(S, snr) / math.log(snr)))
    return out
