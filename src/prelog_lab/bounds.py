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
bounds; prelog_report is built on it.  The threshold lower bound is
maximized in closed form: for the two Gaussian-tail laws the optimal
threshold is ups*^2 = c / W0(c snr / e), W0 the principal Lambert W
function, so each snr costs one spectral integral.  A threshold grid only
bounds the range of that optimum.  Everything here is plain math, and
FadingModel, BoundCurve and PrelogReport are immutable records.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from ._record import Record
from .errors import DomainError, NumericError, PreconditionError, check_positive
from .spectra import (
    SpectralDensity,
    _log1p_product,
    make_onoff_spectrum,
    make_rect_band,
    spectral_log_integral,
    zero_set_measure,
)

# Scalar laws of H1 with E|H1|^2 = 1: law -> (tail, mass at zero, c), where
# tail(ups) = P(|H1| >= ups) and c is the scale of a Gaussian tail,
# tail proportional to exp(-ups^2 / c) (None: no such tail).  rayleigh:
# |H1|^2 exponential with unit mean.  onoff: zero or variance-2 Gaussian
# with probability 1/2 each.  unit: |H1| = 1, a uniform phase.
LAWS = {
    "rayleigh": (lambda u: math.exp(-u * u), 0.0, 1.0),
    "onoff": (lambda u: 0.5 * math.exp(-u * u / 2.0), 0.5, 2.0),
    "unit": (lambda u: 1.0 if u <= 1.0 else 0.0, 0.0, None),
}


class FadingModel(Record):
    """A zero-mean fading process: a spectrum and the scalar law of H1.

    law is a key of LAWS, and tail(ups) = P(|H1| >= ups) for ups > 0 and
    mass_at_zero = P(H1 = 0) are read from it.  Every law has E|H1|^2 = 1,
    so the spectrum must carry unit variance; the unit law needs the flat
    spectrum, since its phase bounds hold only for IID phases.  law picks
    the bound route ("unit" takes the phase-noise bounds, the others the
    threshold lower bound), the sampler of processes.simulate_model, and
    the Monte Carlo law of processes.marginal_draws.
    """

    __slots__ = ("name", "spectrum", "law", "mass_at_zero")

    def __init__(self, name: str, spectrum: SpectralDensity, law: str):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "spectrum", spectrum)
        object.__setattr__(self, "law", law)
        if self.law not in LAWS:
            raise DomainError(f"unknown law {self.law!r}, have {sorted(LAWS)}")
        if not abs(self.spectrum.variance - 1.0) <= 1e-9:
            raise DomainError(
                f"the {self.law} law has unit variance, "
                f"the spectrum has {self.spectrum.variance!r}"
            )
        if self.law == "unit" and self.spectrum != make_rect_band(0.5):
            raise DomainError("the unit law needs the flat spectrum (IID phases)")
        object.__setattr__(self, "mass_at_zero", LAWS[self.law][1])

    @property
    def tail(self):
        """ups -> P(|H1| >= ups), the law's tail."""
        return LAWS[self.law][0]


class BoundCurve(Record):
    """One bound evaluated over an snr grid.

    kind is "LOWER_LB" (the threshold lower bound), "UPPER_COHERENT" (the
    coherent average-power ceiling), "PHASE_LB" or "PHASE_UB" (the
    unit-modulus bounds).  params holds the optimal threshold per snr of
    LOWER_LB and None per snr of PHASE_LB; an upper curve's params are ().
    """

    __slots__ = ("kind", "points", "params")

    def __init__(self, kind: str, points: tuple[tuple[float, float], ...],
                 params: tuple = ()):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "params", params)

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(v for _, v in self.points)


class PrelogReport(Record):
    """Analytic pre-log limits plus finite-snr ratio diagnostics.

    finite_ratios pairs each snr with LB(snr)/log(snr), floored at zero
    (capacity is nonnegative); floored flags the clipped points and
    upsilon_star holds the optimal threshold per snr (None for the phase
    bound).  analytic_limit is the worst-case pre-log when the zero-mass
    hypothesis holds, None otherwise; upper_prelog is the matching pre-log
    ceiling.  Both are snr -> infinity limits, so a finite-snr ratio may
    lie on either side of them.
    """

    __slots__ = ("analytic_limit", "finite_ratios", "upper_prelog", "floored",
                 "upsilon_star")

    def __init__(self, analytic_limit: float | None,
                 finite_ratios: tuple[tuple[float, float], ...], upper_prelog: float,
                 floored: tuple[bool, ...], upsilon_star: tuple[float | None, ...]):
        object.__setattr__(self, "analytic_limit", analytic_limit)
        object.__setattr__(self, "finite_ratios", finite_ratios)
        object.__setattr__(self, "upper_prelog", upper_prelog)
        object.__setattr__(self, "floored", floored)
        object.__setattr__(self, "upsilon_star", upsilon_star)


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
    """Rayleigh fading with a flat band spectrum of half-width W, named
    with the float the spectrum is built from."""
    S = make_rect_band(W)
    return FadingModel(f"rayleigh-band:W={float(W)!r}", S, "rayleigh")


def onoff_model(W: float) -> FadingModel:
    """Product of a random-parity alternating on-off process and bandlimited
    Gaussian fading of half-width W and variance 2.

    Half the samples are exact zeros, so the law has mass 1/2 at zero.
    Total variance is 1.  The name holds the float the spectrum is built
    from.
    """
    S = make_onoff_spectrum(W)
    return FadingModel(f"onoff:W={float(W)!r}", S, "onoff")


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

def _threshold(u: float) -> float:
    """u as the float it holds, once u and u^2 are positive and finite."""
    x = check_positive("threshold", u)
    if not 0.0 < x * x < math.inf:  # log u^2 must be finite
        raise DomainError(f"threshold {u} is too {'small' if x < 1 else 'large'}: "
                          "its square leaves the float range")
    return x


class _Range(tuple):
    """(least, greatest) threshold of a grid, every threshold checked."""


def _threshold_range(grid: Sequence[float]) -> _Range:
    """Least and greatest threshold of grid, as its own elements, all
    checked; a _Range, checked already, is its own range."""
    if type(grid) is _Range:
        return grid
    ups = sorted(grid, key=_threshold)
    if not ups:
        raise DomainError("threshold grid must be nonempty")
    return _Range((ups[0], ups[-1]))


def capacity_lower_bound(model: FadingModel, snr: float, upsilon: float) -> float:
    """Threshold capacity lower bound at finite snr, in nats.

    P{|H1| >= ups} (log snr - (1 - log ups^2)) - integral log(1 + snr F').
    Any fixed ups > 0 is valid; the value may be negative (capacity itself
    is nonnegative, the raw bound is reported unclamped).
    """
    u = _threshold(upsilon)
    integral = spectral_log_integral(model.spectrum, snr)  # rejects a bad snr
    tail = model.tail(u)
    return tail * math.log(snr) - tail * (1.0 - math.log(u * u)) - integral


def default_upsilon_grid() -> list[float]:
    """Logarithmic threshold grid used when the caller does not pick one:
    60 points from 1e-3 to 4.  Its ends bound the default threshold range."""
    lo, hi, points = 1e-3, 4.0, 60
    step = (math.log(hi) - math.log(lo)) / (points - 1)
    return [math.exp(math.log(lo) + k * step) for k in range(points)]


_DEFAULT_RANGE = _threshold_range(default_upsilon_grid())


def _optimal_threshold(c: float, snr: float) -> float:
    """The threshold that maximizes tail(ups) (log snr - 1 + log ups^2) for
    a tail proportional to exp(-ups^2 / c): ups*^2 = c / W0(c snr / e).

    With w = W0(c snr / e), t = log w solves e^t + t = y, where
    y = log c + log snr - 1; nothing here overflows for any finite snr.
    Newton's method on this convex increasing equation, started right of
    the root (t = y for y <= 1, t = log y above), falls monotonically to
    it and stops when a step no longer lowers t.
    """
    y = math.log(c) + math.log(snr) - 1.0
    t = y if y <= 1.0 else math.log(y)
    while True:
        e = math.exp(t)
        t_next = t - (e + t - y) / (e + 1.0)
        if not t_next < t:
            return math.sqrt(c) * math.exp(-0.5 * t)
        t = t_next


def optimize_upsilon(
    model: FadingModel, snr: float, grid: Sequence[float]
) -> tuple[float, float]:
    """Exact maximum of the threshold lower bound over the range of grid:
    (upsilon_star, bound).

    Only the smallest and largest thresholds of grid matter (every one is
    checked).  With x = ups^2, c/x - (log snr - 1 + log x) strictly
    decreases, so the bound is unimodal in ups and the closed-form optimum
    clamped to [min(grid), max(grid)] is the maximum over that range; it
    is never below the bound at any grid point.  A clamped upsilon_star is
    the grid's own element, so a one-point grid fixes the threshold.  The
    unit law has no Gaussian tail and raises PreconditionError.
    """
    lo, hi = _threshold_range(grid)
    c = LAWS[model.law][2]
    if c is None:
        raise PreconditionError(f"the {model.law} law has no threshold optimum")
    snr = check_positive("snr", snr)
    u = _optimal_threshold(c, snr)
    u = lo if u < float(lo) else hi if u > float(hi) else u
    return u, capacity_lower_bound(model, snr, u)


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
    snr = check_positive("snr", snr)
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
    snr = check_positive("snr", snr)
    x = 4.0 * math.pi * math.e * (2.0 + 4.0 * snr)
    if x < math.inf:
        log_x = math.log(x)
    else:
        log_x = math.log(16.0 * math.pi * math.e) + math.log(snr) + math.log1p(0.5 / snr)
    return math.log(snr) - 0.5 * log_x + math.log(2.0)


def phase_noise_upper_bound(snr: float) -> float:
    """Average-power capacity ceiling (1/2) log(1 + snr/2) for unit-modulus
    fading, in nats."""
    snr = check_positive("snr", snr)
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

def _order_key(snr: float) -> float:
    """float(snr), or an int past the float range as itself: Python
    compares either with a float exactly, where comparing the caller's
    numpy scalars would cast a Python float down to their precision."""
    try:
        return float(snr)
    except OverflowError:
        return snr


def bound_sweep(
    model: FadingModel,
    snrs: Sequence[float],
    upsilon_grid: Sequence[float] | None = None,
    threads: int | None = None,
) -> tuple[BoundCurve, BoundCurve]:
    """Lower and upper bound curves over an snr grid.

    Models of the unit law pair the specialized unit-modulus bounds; all
    others pair the threshold-optimized lower bound with the coherent
    average-power ceiling.  The snr grid (any iterable of numbers, an
    array included) must be nonempty and strictly increasing as floats
    (see _order_key), and the threshold grid (None: the default grid)
    nonempty with every u and u**2 positive and finite; both are checked
    before any point is evaluated, for every law.  The threshold grid's ends bound the optimal threshold
    at each snr (see optimize_upsilon).  The phase bounds have no
    threshold, so they ignore a valid threshold grid.

    threads > 1 spreads the snr points over a thread pool, in grid order.
    The pool is bound by the GIL and is no faster than the serial loop;
    it stays only because bench/selftest.py calls bound_sweep(...,
    threads=4) and goes with the next change to the benchmark.
    """
    snrs = list(snrs)
    if not snrs:
        raise DomainError("snr grid must be nonempty")
    keys = [_order_key(s) for s in snrs]
    if any(b <= a for a, b in zip(keys, keys[1:])):
        raise DomainError("snr grid must be strictly increasing")
    ends = _DEFAULT_RANGE if upsilon_grid is None else _threshold_range(upsilon_grid)
    if model.law == "unit":
        kinds = ("PHASE_LB", "PHASE_UB")

        def one(snr: float) -> tuple[float, None, float]:
            return phase_noise_lower_bound(snr), None, phase_noise_upper_bound(snr)
    else:
        kinds = ("LOWER_LB", "UPPER_COHERENT")

        def one(snr: float) -> tuple[float, float, float]:
            u_star, lb = optimize_upsilon(model, snr, ends)
            return lb, u_star, coherent_avg_upper_bound(model, snr)

    rows = _map_ordered(one, snrs, threads)
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
    snr_grid = list(snr_grid)  # read once, as bound_sweep reads it
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
