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

Every model is zero-mean: the pre-log depends only on the spectrum and on
whether the law of H1 has mass at zero.  A FadingModel is therefore a
spectrum and the name of one of the three laws in LAWS, and it checks that
the two fit when it is built.  All values are in nats, and everything here
is pure and thread-safe.  bound_sweep is the one place a law picks its
bounds; prelog_report is built on it.  A sweep evaluates the threshold
bound over its whole threshold grid at once: the threshold-only terms are
tabulated once per sweep, and each snr costs one spectral integral and one
numpy expression.  numpy is imported only when a threshold table is built,
so the unit law's sweeps and everything else here run without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Literal, Sequence

from .errors import DomainError, NumericError, PreconditionError, check_positive
from .spectra import (
    SpectralDensity,
    _log1p_product,
    make_onoff_spectrum,
    make_rect_band,
    spectral_log_integral,
    zero_set_measure,
)

if TYPE_CHECKING:
    import numpy as np

BoundKind = Literal["LOWER_LB", "UPPER_COHERENT", "PHASE_LB", "PHASE_UB"]

# Scalar laws of H1 with E|H1|^2 = 1: law -> (tail, mass at zero), where
# tail(ups) = P(|H1| >= ups).  rayleigh: |H1|^2 exponential with unit mean.
# onoff: zero or variance-2 Gaussian with probability 1/2 each.  unit:
# |H1| = 1, a uniform phase.
LAWS = {
    "rayleigh": (lambda u: math.exp(-u * u), 0.0),
    "onoff": (lambda u: 0.5 * math.exp(-u * u / 2.0), 0.5),
    "unit": (lambda u: 1.0 if u <= 1.0 else 0.0, 0.0),
}


@dataclass(frozen=True)
class FadingModel:
    """A zero-mean fading process: a spectrum and the scalar law of H1.

    law is a key of LAWS, and tail(ups) = P(|H1| >= ups) for ups > 0 and
    mass_at_zero = P(H1 = 0) are read from it.  Every law has E|H1|^2 = 1,
    so the spectrum must carry unit variance; the unit law needs the flat
    spectrum, since its phase bounds hold only for IID phases.  law picks
    the bound route ("unit" takes the phase-noise bounds, the others the
    threshold lower bound), the sampler of processes.simulate_model, and
    the Monte Carlo law of processes.marginal_draws.
    """

    name: str
    spectrum: SpectralDensity
    law: str
    tail: Callable[[float], float] = field(init=False, repr=False)
    mass_at_zero: float = field(init=False)

    def __post_init__(self):
        if self.law not in LAWS:
            raise DomainError(f"unknown law {self.law!r}, have {sorted(LAWS)}")
        if not abs(self.spectrum.variance - 1.0) <= 1e-9:
            raise DomainError(
                f"the {self.law} law has unit variance, "
                f"the spectrum has {self.spectrum.variance!r}"
            )
        if self.law == "unit" and self.spectrum != make_rect_band(0.5):
            raise DomainError("the unit law needs the flat spectrum (IID phases)")
        tail, mass = LAWS[self.law]
        object.__setattr__(self, "tail", tail)
        object.__setattr__(self, "mass_at_zero", mass)


@dataclass(frozen=True)
class BoundCurve:
    """One bound evaluated over an snr grid.

    params holds the optimal threshold per snr of a threshold lower bound,
    and None per snr for a bound without one.
    """

    kind: BoundKind
    points: tuple[tuple[float, float], ...]
    params: tuple = ()

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(v for _, v in self.points)


@dataclass(frozen=True)
class PrelogReport:
    """Analytic pre-log limits plus finite-snr ratio diagnostics.

    finite_ratios pairs each snr with LB(snr)/log(snr), floored at zero
    (capacity is nonnegative); floored flags the clipped points and
    upsilon_star holds the optimal threshold per snr (None for the phase
    bound).  analytic_limit is the worst-case pre-log when the zero-mass
    hypothesis holds, None otherwise; upper_prelog is the matching pre-log
    ceiling.  Both are snr -> infinity limits, so a finite-snr ratio may
    lie on either side of them.
    """

    analytic_limit: float | None
    finite_ratios: tuple[tuple[float, float], ...]
    upper_prelog: float
    floored: tuple[bool, ...]
    upsilon_star: tuple[float | None, ...]


def _map_ordered(fn, items: Sequence, threads: int | None):
    """Map fn over items, optionally on a thread pool, preserving order."""
    if threads is not None and threads > 1 and len(items) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))
    return [fn(it) for it in items]


# ---------------------------------------------------------------------------
# built-in models

def rayleigh_band_model(W: float) -> FadingModel:
    """Rayleigh fading with a flat band spectrum of half-width W."""
    return FadingModel(f"rayleigh-band:W={W!r}", make_rect_band(W), "rayleigh")


def onoff_model(W: float) -> FadingModel:
    """Product of a random-parity alternating on-off process and bandlimited
    Gaussian fading of half-width W and variance 2.

    Half the samples are exact zeros, so the law has mass 1/2 at zero.
    Total variance is 1.
    """
    return FadingModel(f"onoff:W={W!r}", make_onoff_spectrum(W), "onoff")


def phase_noise_model() -> FadingModel:
    """Unit-modulus fading H = e^{i Theta} with IID uniform phases.

    The spectrum is flat (zero set empty) yet the pre-log is 1/2, which is
    why this model routes through the specialized phase bounds.
    """
    return FadingModel("phase-noise", make_rect_band(0.5), "unit")


# CLI model name -> (constructor, its parameter names)
BUILTIN_MODELS = {
    "rayleigh-band": (rayleigh_band_model, ("W",)),
    "onoff": (onoff_model, ("W",)),
    "phase-noise": (phase_noise_model, ()),
}


# ---------------------------------------------------------------------------
# bounds

@dataclass(frozen=True)
class _ThresholdTable:
    """A sorted threshold grid with the bound's threshold-only terms.

    tail[k] = P{|H1| >= upsilon[k]} and offset[k] = 1 - log upsilon[k]^2.
    upsilon keeps the caller's own grid elements, so an optimal threshold
    is reported as given.
    """

    upsilon: tuple
    tail: np.ndarray
    offset: np.ndarray


def _threshold_grid(grid: Sequence[float] | None) -> list[float]:
    """A threshold grid (None: the default grid), sorted and checked.

    Every threshold is checked before any is used, and without numpy.
    """
    ups = sorted(default_upsilon_grid() if grid is None else grid)
    if not ups:
        raise DomainError("threshold grid must be nonempty")
    for u in ups:
        check_positive("threshold", u)
        check_positive("squared threshold", u * u)  # log u^2 must be finite
    return ups


def _threshold_table(model: FadingModel, ups: list[float]) -> _ThresholdTable:
    """Tabulate the terms of a checked threshold grid (see _threshold_grid)
    for model.

    The terms come from model.tail and math.log one point at a time, not
    from numpy's vectorized exp/log (see capacity_lower_bound).
    """
    import numpy as np

    tail = np.array([model.tail(u) for u in ups], dtype=float)
    offset = np.array([1.0 - math.log(u * u) for u in ups])
    tail.flags.writeable = offset.flags.writeable = False
    return _ThresholdTable(tuple(ups), tail, offset)


def capacity_lower_bound(
    model: FadingModel, snr: float, upsilon: float | _ThresholdTable
) -> float | np.ndarray:
    """Threshold capacity lower bound at finite snr, in nats.

    P{|H1| >= ups} (log snr - (1 - log ups^2)) - integral log(1 + snr F').
    Any fixed ups > 0 is valid; the value may be negative (capacity itself
    is nonnegative, the raw bound is reported unclamped).

    upsilon is one threshold, or a threshold table built by a sweep, in
    which case the bound comes back as an array over the table's sorted
    grid: the integral is computed once and the per-threshold arithmetic
    runs as one numpy expression, in the same operation order as the
    scalar route, so both give the same floats.  The table's tail and
    log terms come from libm one threshold at a time, because numpy's
    vectorized exp/log can differ in the last bit and change the output.
    """
    if isinstance(upsilon, _ThresholdTable):
        table = upsilon
    else:
        table = _threshold_table(model, _threshold_grid((upsilon,)))
    integral = spectral_log_integral(model.spectrum, snr)  # rejects a bad snr
    values = table.tail * math.log(snr) - table.tail * table.offset - integral
    return values if table is upsilon else float(values[0])


def default_upsilon_grid() -> list[float]:
    """Logarithmic threshold grid used when the caller does not pick one:
    60 points from 1e-3 to 4."""
    lo, hi, points = 1e-3, 4.0, 60
    step = (math.log(hi) - math.log(lo)) / (points - 1)
    return [math.exp(math.log(lo) + k * step) for k in range(points)]


def optimize_upsilon(
    model: FadingModel, snr: float, grid: Sequence[float] | _ThresholdTable
) -> tuple[float, float]:
    """Grid argmax of the threshold lower bound: (upsilon_star, bound).

    grid is a sequence of thresholds or a sweep's prebuilt threshold
    table.  One capacity_lower_bound call evaluates the whole sorted grid;
    the first maximum wins, so ties go to the smaller threshold.
    upsilon_star is the grid's own element.
    """
    if not isinstance(grid, _ThresholdTable):
        grid = _threshold_table(model, _threshold_grid(grid))
    values = capacity_lower_bound(model, snr, grid)
    k = int(values.argmax())
    return grid.upsilon[k], float(values[k])


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

    p = P(|H1| > 0), which is 1 or 1/2 for the laws in LAWS, so 1/p is
    exact; Jensen applied to the nonzero fading fraction.  The log goes
    through the spectral integral's overflow rule, so the bound is finite
    for every finite snr.
    """
    check_positive("snr", snr)
    p = 1.0 - model.mass_at_zero
    return p * _log1p_product(snr, 1.0 / p)


def masspoint_prelog_upper(model: FadingModel) -> float:
    """Pre-log ceiling P(|H1| > 0) for laws with a mass point at zero."""
    return 1.0 - model.mass_at_zero


def phase_noise_lower_bound(snr: float) -> float:
    """Capacity lower bound of the unit-modulus phase-noise channel, nats.

    log snr - (1/2) log(4 pi e (2 + 4 snr)) + log 2, with unit noise
    variance so snr equals the peak power.  Asymptotic slope 1/2 per
    ln-unit of snr.  Where 4 pi e (2 + 4 snr) overflows the float range,
    from snr of about 1.3e306, its log is taken as
    log(16 pi e) + log snr + log1p(1/(2 snr)), so the bound is finite for
    every finite snr.
    """
    check_positive("snr", snr)
    x = 4.0 * math.pi * math.e * (2.0 + 4.0 * snr)
    if x < math.inf:
        log_x = math.log(x)
    else:
        log_x = math.log(16.0 * math.pi * math.e) + math.log(snr) + math.log1p(0.5 / snr)
    return math.log(snr) - 0.5 * log_x + math.log(2.0)


def phase_noise_upper_bound(snr: float) -> float:
    """Average-power capacity ceiling (1/2) log(1 + snr/2) for unit-modulus
    fading, in nats."""
    check_positive("snr", snr)
    return 0.5 * math.log1p(snr / 2.0)


def miso_prelog_lower(spectra: Sequence[SpectralDensity]) -> float:
    """Pre-log lower bound for multiple transmit antennas.

    Signaling from the single best antenna achieves that antenna's zero-set
    measure, so the bound is the max over antennas.  It holds when no
    antenna's law of H1 has mass at zero.
    """
    if not spectra:
        raise DomainError("need at least one antenna spectrum")
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

    Models of the unit law pair the specialized unit-modulus bounds; all
    others pair the threshold-optimized lower bound with the coherent
    average-power ceiling.  The snr grid must be nonempty and strictly
    increasing, and the threshold grid (None: the default grid) nonempty
    with every u and u**2 positive and finite; both are checked before any
    point is evaluated, for every law.  The phase bounds have no threshold,
    so they ignore a valid threshold grid.

    threads > 1 spreads the snr points over a thread pool, in grid order.
    The pool is bound by the GIL and is no faster than the serial loop;
    it stays only because bench/selftest.py calls bound_sweep(...,
    threads=4) and goes with the next change to the benchmark.
    """
    if not snrs:
        raise DomainError("snr grid must be nonempty")
    if any(b <= a for a, b in zip(snrs, snrs[1:])):
        raise DomainError("snr grid must be strictly increasing")
    ups = _threshold_grid(upsilon_grid)
    if model.law == "unit":
        kinds = ("PHASE_LB", "PHASE_UB")

        def one(snr: float) -> tuple[float, None, float]:
            return phase_noise_lower_bound(snr), None, phase_noise_upper_bound(snr)
    else:
        kinds = ("LOWER_LB", "UPPER_COHERENT")
        table = _threshold_table(model, ups)

        def one(snr: float) -> tuple[float, float, float]:
            u_star, lb = optimize_upsilon(model, snr, table)
            return lb, u_star, coherent_avg_upper_bound(model, snr)

    rows = _map_ordered(one, list(snrs), threads)
    low = BoundCurve(
        kinds[0],
        tuple((s, r[0]) for s, r in zip(snrs, rows)),
        params=tuple(r[1] for r in rows),
    )
    up = BoundCurve(kinds[1], tuple((s, r[2]) for s, r in zip(snrs, rows)))
    return low, up


def prelog_report(
    model: FadingModel,
    snr_grid: Sequence[float],
    upsilon_grid: Sequence[float] | None = None,
) -> PrelogReport:
    """Finite-snr pre-log diagnostics against the analytic limits.

    Each ratio is bound_sweep's lower bound at that snr divided by log snr,
    floored at 0.  For zero-mass models the analytic limit is the zero-set
    measure and the ceiling is 1 (coherent slope); with mass at zero the
    limit is absent and the ceiling is P(|H1| > 0); for the unit law both
    are 1/2.  The limits hold only as snr grows, so no ratio is checked
    against them; a lower bound above bound_sweep's upper bound, which no
    snr allows, raises NumericError.
    """
    if any(s <= 1 for s in snr_grid):
        raise DomainError("pre-log ratios need snr > 1")

    low, up = bound_sweep(model, snr_grid, upsilon_grid)
    for (snr, lb), ub in zip(low.points, up.values):
        if lb > ub:
            raise NumericError(f"lower bound {lb!r} exceeds upper bound {ub!r} at snr {snr!r}")
    if model.law == "unit":
        analytic, upper = 0.5, 0.5
    elif model.mass_at_zero > 0:
        analytic, upper = None, masspoint_prelog_upper(model)
    else:
        analytic, upper = prelog_lower_bound(model), 1.0

    raw = [(snr, lb / math.log(snr)) for snr, lb in low.points]
    floored = tuple(r < 0 for _, r in raw)
    ratios = tuple((snr, max(r, 0.0)) for snr, r in raw)
    return PrelogReport(
        analytic_limit=analytic,
        finite_ratios=ratios,
        upper_prelog=upper,
        floored=floored,
        upsilon_star=low.params,
    )
