"""Capacity bounds and pre-log reports for noncoherent fading channels.

The centerpiece is the finite-snr capacity lower bound for stationary
ergodic fading with memory,

    LB(snr, ups) = P{|H1| >= ups} (log snr - 1 + log ups^2)
                   - integral log(1 + snr F'(lam)) d lam,

valid for any threshold ups > 0.  Dividing by log snr and letting snr grow
(then ups shrink) shows the capacity pre-log is at least the Lebesgue
measure of the spectral zero set whenever the fading law has no mass at
zero.  The remaining operations cover the companions: the coherent
average-power upper bound, the mass-point pre-log ceiling P{|H1| > 0}, the
unit-modulus phase-noise channel whose pre-log is 1/2 despite a flat
spectrum, and the single-antenna-selection MISO lower bound.

All values are in nats.  Everything here is pure and thread-safe; grid
sweeps can fan out worker threads while preserving grid output order.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Literal, Sequence

from .errors import DomainError, NumericError, PreconditionError, check_positive
from .spectra import (
    SpectralDensity,
    make_onoff_spectrum,
    make_rect_band,
    spectral_log_integral,
    zero_set_measure,
)

BoundKind = Literal["LOWER_LB", "UPPER_COHERENT", "PHASE_LB", "PHASE_UB"]

# slack on report ratio invariants; finite-snr ratios approach the limit
# from below but optimization rounding can graze it
RATIO_SLACK = 0.02

_TAIL_PROBE = (0.25, 0.5, 1.0, 2.0, 4.0)


@dataclass(frozen=True)
class FadingModel:
    """A named fading law: centered spectrum plus scalar marginal data.

    tail(ups) is P(|H1| >= ups) for ups > 0; mass_at_zero is P(H1 = 0).
    kind selects the bound route: "generic" models go through the
    threshold lower bound, "phase" models through the specialized
    unit-modulus bounds.  marginal names the scalar law for Monte Carlo
    cross-checks of the tail.
    """

    name: str
    spectrum: SpectralDensity
    mean_d: complex
    tail: Callable[[float], float]
    mass_at_zero: float
    variance: float = 1.0
    kind: Literal["generic", "phase"] = "generic"
    marginal: str = ""

    def __post_init__(self):
        if not 0 <= self.mass_at_zero <= 1:
            raise DomainError(f"mass_at_zero must be in [0, 1], got {self.mass_at_zero}")
        if self.variance <= 0:
            raise DomainError(f"variance must be positive, got {self.variance}")
        # tail(0+) must meet 1 - mass_at_zero and decrease from there
        t0 = self.tail(1e-9)
        if abs(t0 - (1 - self.mass_at_zero)) > 1e-6:
            raise DomainError(
                f"tail(0+) = {t0} inconsistent with mass_at_zero = {self.mass_at_zero}"
            )
        prev = t0
        for u in _TAIL_PROBE:
            t = self.tail(u)
            if t > prev + 1e-12 or not 0 <= t <= 1:
                raise DomainError(f"tail must be nonincreasing in [0, 1], fails at {u}")
            prev = t


@dataclass(frozen=True)
class BoundCurve:
    """One bound evaluated over an snr grid."""

    kind: BoundKind
    points: tuple[tuple[float, float], ...]
    params: tuple = ()

    def __post_init__(self):
        snrs = [s for s, _ in self.points]
        if any(b <= a for a, b in zip(snrs, snrs[1:])):
            raise DomainError("snr grid must be strictly increasing")

    @property
    def snrs(self) -> tuple[float, ...]:
        return tuple(s for s, _ in self.points)

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(v for _, v in self.points)

    def rows(self) -> list[tuple[float, float, float | None]]:
        """(snr, value, upsilon_star) rows; the threshold is None for
        curves that do not optimize one."""
        stars = self.params if len(self.params) == len(self.points) else (None,) * len(self.points)
        return [(s, v, u) for (s, v), u in zip(self.points, stars)]

    def to_csv(self) -> str:
        lines = [f"# kind={self.kind}", "snr,value,upsilon_star"]
        for s, v, u in self.rows():
            ustr = "" if u is None else repr(float(u))
            lines.append(f"{float(s)!r},{float(v)!r},{ustr}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps(
            {
                "kind": self.kind,
                "rows": [
                    {"snr": s, "value": v, "upsilon_star": u} for s, v, u in self.rows()
                ],
            }
        )


@dataclass(frozen=True)
class PrelogReport:
    """Analytic pre-log limit plus finite-snr ratio diagnostics.

    finite_ratios pairs each snr with LB(snr)/log(snr), floored at zero
    (capacity is nonnegative); floored flags the clipped points.
    analytic_limit is the worst-case pre-log when the zero-mass hypothesis
    holds, None otherwise.  upper_prelog is the matching pre-log ceiling.
    """

    analytic_limit: float | None
    finite_ratios: tuple[tuple[float, float], ...]
    upper_prelog: float | None = None
    floored: tuple[bool, ...] = ()
    upsilon_star: tuple[float | None, ...] = ()

    def __post_init__(self):
        ratios = [r for _, r in self.finite_ratios]
        cap = None
        if self.analytic_limit is not None:
            cap = self.analytic_limit
        elif self.upper_prelog is not None:
            cap = self.upper_prelog
        if cap is not None and ratios and max(ratios) > cap + RATIO_SLACK:
            raise NumericError(
                f"finite ratio {max(ratios)} exceeds limit {cap} beyond slack"
            )
        if (
            self.upper_prelog is not None
            and ratios
            and max(ratios) > self.upper_prelog + RATIO_SLACK
        ):
            raise NumericError("finite ratios exceed the pre-log upper bound")

    def rows(self) -> list[tuple[float, float, float | None]]:
        stars = (
            self.upsilon_star
            if len(self.upsilon_star) == len(self.finite_ratios)
            else (None,) * len(self.finite_ratios)
        )
        return [(s, r, u) for (s, r), u in zip(self.finite_ratios, stars)]

    def to_csv(self) -> str:
        lines = [
            f"# analytic_limit={'' if self.analytic_limit is None else repr(float(self.analytic_limit))}",
            f"# upper_prelog={'' if self.upper_prelog is None else repr(float(self.upper_prelog))}",
            "snr,value,upsilon_star",
        ]
        for s, r, u in self.rows():
            ustr = "" if u is None else repr(float(u))
            lines.append(f"{float(s)!r},{float(r)!r},{ustr}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        rows = self.rows()
        flags = (
            self.floored
            if len(self.floored) == len(rows)
            else (False,) * len(rows)
        )
        return json.dumps(
            {
                "analytic_limit": self.analytic_limit,
                "upper_prelog": self.upper_prelog,
                "rows": [
                    {"snr": s, "value": r, "upsilon_star": u, "floored": f}
                    for (s, r, u), f in zip(rows, flags)
                ],
            }
        )


def _map_ordered(fn, items: Sequence, threads: int | None):
    """Map fn over items, optionally on a thread pool, preserving order."""
    if threads is not None and threads > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))
    return [fn(it) for it in items]


# ---------------------------------------------------------------------------
# built-in models

def rayleigh_model(spectrum: SpectralDensity, name: str) -> FadingModel:
    """Zero-mean circularly-symmetric Gaussian fading with the given spectrum.

    |H1|^2 is exponential with unit mean, so the tail is exp(-ups^2).
    The spectrum must carry unit variance.
    """
    if abs(spectrum.variance - 1.0) > 1e-9:
        raise DomainError("rayleigh marginal assumes unit variance")
    return FadingModel(
        name=name,
        spectrum=spectrum,
        mean_d=0j,
        tail=lambda u: math.exp(-u * u),
        mass_at_zero=0.0,
        kind="generic",
        marginal="rayleigh",
    )


def rayleigh_band_model(W: float) -> FadingModel:
    """Rayleigh fading with a flat band spectrum of half-width W."""
    return rayleigh_model(make_rect_band(W), f"rayleigh-band:W={W!r}")


def onoff_model(W: float) -> FadingModel:
    """Product of a random-parity alternating on-off process and bandlimited
    Gaussian fading of half-width W and variance 2.

    Half the samples are exact zeros, so the law has mass 1/2 at zero and
    tail exp(-ups^2/2)/2.  Total variance is 1.
    """
    spectrum = make_onoff_spectrum(W)
    return FadingModel(
        name=f"onoff:W={W!r}",
        spectrum=spectrum,
        mean_d=0j,
        tail=lambda u: 0.5 * math.exp(-u * u / 2.0),
        mass_at_zero=0.5,
        kind="generic",
        marginal="onoff-product",
    )


def phase_noise_model() -> FadingModel:
    """Unit-modulus fading H = e^{i Theta} with IID uniform phases.

    The spectrum is flat (zero set empty) yet the pre-log is 1/2, which is
    why this model routes through the specialized phase bounds.
    """
    return FadingModel(
        name="phase-noise",
        spectrum=make_rect_band(0.5),
        mean_d=0j,
        tail=lambda u: 1.0 if u <= 1.0 else 0.0,
        mass_at_zero=0.0,
        kind="phase",
        marginal="unit-circle",
    )


BUILTIN_MODELS = {
    "rayleigh-band": rayleigh_band_model,
    "onoff": onoff_model,
    "phase-noise": phase_noise_model,
}

NAMED_TAILS = {
    "rayleigh": (lambda u: math.exp(-u * u), 0.0, "rayleigh"),
    "onoff": (lambda u: 0.5 * math.exp(-u * u / 2.0), 0.5, "onoff-product"),
    "unit": (lambda u: 1.0 if u <= 1.0 else 0.0, 0.0, "unit-circle"),
}


# ---------------------------------------------------------------------------
# bounds

def capacity_lower_bound(model: FadingModel, snr: float, upsilon: float) -> float:
    """Threshold capacity lower bound at finite snr, in nats.

    P{|H1| >= ups} (log snr - (1 - log ups^2)) - integral log(1 + snr F').
    Any fixed ups > 0 is valid; the value may be negative (capacity itself
    is nonnegative, the raw bound is reported unclamped).
    """
    check_positive("threshold", upsilon)
    integral = spectral_log_integral(model.spectrum, snr)  # rejects a bad snr
    p = model.tail(upsilon)
    return p * math.log(snr) - p * (1.0 - math.log(upsilon * upsilon)) - integral


def default_upsilon_grid(lo: float = 1e-3, hi: float = 4.0, points: int = 60) -> list[float]:
    """Logarithmic threshold grid used when the caller does not pick one."""
    if points < 1 or lo <= 0 or hi <= lo:
        raise DomainError("threshold grid needs 0 < lo < hi and points >= 1")
    if points == 1:
        return [lo]
    step = (math.log(hi) - math.log(lo)) / (points - 1)
    return [math.exp(math.log(lo) + k * step) for k in range(points)]


def optimize_upsilon(
    model: FadingModel, snr: float, grid: Sequence[float]
) -> tuple[float, float]:
    """Grid argmax of the threshold lower bound, ties toward smaller ups."""
    if not grid:
        raise DomainError("threshold grid must be nonempty")
    best_u = None
    best_lb = -math.inf
    for u in sorted(grid):
        lb = capacity_lower_bound(model, snr, u)
        if lb > best_lb:
            best_u, best_lb = u, lb
    return best_u, best_lb


def prelog_lower_bound(model: FadingModel) -> float:
    """Worst-case pre-log lower bound: measure of the spectral zero set.

    Requires P(H1 = 0) = 0; with mass at zero the pre-log can drop below
    the zero-set measure and the hypothesis fails.
    """
    if model.mass_at_zero > 0:
        raise PreconditionError(
            f"pre-log lower bound needs no mass at zero, model has {model.mass_at_zero}"
        )
    return zero_set_measure(model.spectrum)


def coherent_avg_upper_bound(model: FadingModel, snr: float) -> float:
    """Coherent average-power capacity ceiling p log(1 + snr/p), in nats.

    p = P(|H1| > 0); Jensen applied to the nonzero fading fraction.  When
    p = 0 the channel carries nothing and the bound is 0.
    """
    check_positive("snr", snr)
    p = 1.0 - model.mass_at_zero
    if p == 0.0:
        return 0.0
    return p * math.log1p(snr / p)


def masspoint_prelog_upper(model: FadingModel) -> float:
    """Pre-log ceiling P(|H1| > 0) for laws with a mass point at zero."""
    return 1.0 - model.mass_at_zero


def phase_noise_lower_bound(snr: float) -> float:
    """Capacity lower bound of the unit-modulus phase-noise channel, nats.

    log snr - (1/2) log(4 pi e (2 + 4 snr)) + log 2, with unit noise
    variance so snr equals the peak power.  Asymptotic slope 1/2 per
    ln-unit of snr.
    """
    check_positive("snr", snr)
    return (
        math.log(snr)
        - 0.5 * math.log(4.0 * math.pi * math.e * (2.0 + 4.0 * snr))
        + math.log(2.0)
    )


def phase_noise_upper_bound(snr: float) -> float:
    """Average-power capacity ceiling (1/2) log(1 + snr/2) for unit-modulus
    fading, in nats."""
    check_positive("snr", snr)
    return 0.5 * math.log1p(snr / 2.0)


def miso_prelog_lower(
    spectra: Sequence[SpectralDensity], masses_at_zero: Sequence[float]
) -> float:
    """Pre-log lower bound for multiple transmit antennas.

    Signaling from the single best antenna achieves that antenna's zero-set
    measure, so the bound is the max over antennas.  Every per-antenna law
    must have no mass at zero.
    """
    if not spectra:
        raise DomainError("need at least one antenna spectrum")
    if len(spectra) != len(masses_at_zero):
        raise DomainError(
            f"{len(spectra)} spectra vs {len(masses_at_zero)} mass values"
        )
    for t, mass in enumerate(masses_at_zero):
        if mass > 0:
            raise PreconditionError(f"antenna {t} has mass {mass} at zero")
    return max(zero_set_measure(S) for S in spectra)


# ---------------------------------------------------------------------------
# sweeps and reports

def bound_sweep(
    model: FadingModel,
    snrs: Sequence[float],
    upsilon_grid: Sequence[float] | None = None,
    threads: int | None = None,
) -> tuple[BoundCurve, BoundCurve]:
    """Lower and upper bound curves over an snr grid.

    Generic models pair the threshold-optimized lower bound with the
    coherent average-power ceiling; phase models pair the specialized
    unit-modulus bounds.  Grid points are independent, so they may be
    evaluated concurrently; output order follows the grid.
    """
    if not snrs:
        raise DomainError("snr grid must be nonempty")
    ugrid = list(upsilon_grid) if upsilon_grid is not None else default_upsilon_grid()

    if model.kind == "phase":
        lows = _map_ordered(phase_noise_lower_bound, list(snrs), threads)
        ups = _map_ordered(phase_noise_upper_bound, list(snrs), threads)
        low = BoundCurve("PHASE_LB", tuple(zip(snrs, lows)))
        up = BoundCurve("PHASE_UB", tuple(zip(snrs, ups)))
        return low, up

    def one(snr: float) -> tuple[float, float, float]:
        u_star, lb = optimize_upsilon(model, snr, ugrid)
        return lb, u_star, coherent_avg_upper_bound(model, snr)

    rows = _map_ordered(one, list(snrs), threads)
    low = BoundCurve(
        "LOWER_LB",
        tuple((s, r[0]) for s, r in zip(snrs, rows)),
        params=tuple(r[1] for r in rows),
    )
    up = BoundCurve("UPPER_COHERENT", tuple((s, r[2]) for s, r in zip(snrs, rows)))
    return low, up


def prelog_report(
    model: FadingModel,
    snr_grid: Sequence[float],
    upsilon_grid: Sequence[float] | None = None,
    threads: int | None = None,
) -> PrelogReport:
    """Finite-snr pre-log diagnostics against the analytic limits.

    Each ratio is the best lower bound at that snr divided by log snr,
    floored at 0.  For generic zero-mass models the analytic limit is the
    zero-set measure and the ceiling is 1 (coherent slope); with mass at
    zero the limit is absent and the ceiling is P(|H1| > 0); for the phase
    model both are 1/2.
    """
    if not snr_grid:
        raise DomainError("snr grid must be nonempty")
    snrs = list(snr_grid)
    if any(b <= a for a, b in zip(snrs, snrs[1:])):
        raise DomainError("snr grid must be strictly increasing")
    if any(s <= 1 for s in snrs):
        raise DomainError("pre-log ratios need snr > 1")

    if model.kind == "phase":
        lbs = _map_ordered(phase_noise_lower_bound, snrs, threads)
        stars: list[float | None] = [None] * len(snrs)
        analytic: float | None = 0.5
        upper: float | None = 0.5
    else:
        ugrid = list(upsilon_grid) if upsilon_grid is not None else default_upsilon_grid()

        def one(snr: float) -> tuple[float, float]:
            return optimize_upsilon(model, snr, ugrid)

        pairs = _map_ordered(one, snrs, threads)
        stars = [u for u, _ in pairs]
        lbs = [lb for _, lb in pairs]
        if model.mass_at_zero > 0:
            analytic = None
            upper = masspoint_prelog_upper(model)
        else:
            analytic = prelog_lower_bound(model)
            upper = 1.0

    raw = [lb / math.log(snr) for snr, lb in zip(snrs, lbs)]
    floored = tuple(r < 0 for r in raw)
    ratios = tuple((snr, max(r, 0.0)) for snr, r in zip(snrs, raw))
    return PrelogReport(
        analytic_limit=analytic,
        finite_ratios=ratios,
        upper_prelog=upper,
        floored=floored,
        upsilon_star=tuple(stars),
    )
