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
the two fit when it is built.  Each law is one Law row: its tail, its mass
at zero, the scale of its Gaussian tail, the spectra it takes, its pair of
bounds and its pre-log limits.  bound_sweep and prelog_report read the
row, so neither names a law.  All values are in nats, and everything here
is pure and thread-safe.  The threshold lower bound is maximized in
closed form: for the two Gaussian-tail laws the optimal threshold is
ups*^2 = c / W0(c snr / e), W0 the principal Lambert W function, so each
snr costs one spectral integral.  A threshold grid only bounds the range
of that optimum.  Everything here is plain math, and Law, FadingModel,
BoundCurve and PrelogReport are immutable records.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from ._record import Record
from .errors import (
    DomainError,
    NumericError,
    PreconditionError,
    _as_number,
    as_list,
    check_positive,
)
from .spectra import (
    SpectralDensity,
    _log1p_product,
    make_onoff_spectrum,
    make_rect_band,
    spectral_log_integral,
    zero_set_measure,
)


class Law(Record):
    """A scalar law of H1 with E|H1|^2 = 1, and all that it decides.

    tail(ups) = P(|H1| >= ups) for ups > 0 and mass_at_zero = P(H1 = 0).
    scale is the c of a Gaussian tail, one proportional to exp(-ups^2 / c),
    or None for a law without one, which has no threshold optimum.
    spectrum_rule(S) is None when the law takes the spectrum S, else what
    the law needs instead.  kinds names bound_sweep's (lower, upper)
    curves, point(model, snr, ends) is one snr's (lower bound, optimal
    threshold in the range ends or None, upper bound), and limits(model)
    is prelog_report's (analytic_limit, upper_prelog).  A row reaches the
    public functions it calls through this module's globals, so a
    function rebound on the module (by a tracer or a test) sees each call.
    """

    __slots__ = ("tail", "mass_at_zero", "scale", "spectrum_rule", "kinds", "point", "limits")

    def __init__(self, tail, mass_at_zero: float, scale: float | None, spectrum_rule,
                 kinds: tuple[str, str], point, limits):
        for name, value in zip(self.__slots__, (tail, mass_at_zero, scale, spectrum_rule,
                                                kinds, point, limits)):
            object.__setattr__(self, name, value)


class FadingModel(Record):
    """A zero-mean fading process: a spectrum and the scalar law of H1.

    law names a row of LAWS, and the model's tail and mass_at_zero are the
    row's.  Every law has E|H1|^2 = 1, so the spectrum must carry unit
    variance, and it must pass the row's spectrum rule.  The row also
    picks the model's bounds in bound_sweep and its limits in
    prelog_report, and processes keeps the law's samplers in a table of
    its own.  law stays the name, so a model pickles and compares by value.
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
        row = LAWS[self.law]
        need = row.spectrum_rule(self.spectrum)
        if need is not None:
            raise DomainError(f"the {self.law} law needs {need}")
        object.__setattr__(self, "mass_at_zero", row.mass_at_zero)

    @property
    def tail(self):
        """ups -> P(|H1| >= ups), the law's tail."""
        return LAWS[self.law].tail


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
    ups = sorted(as_list("threshold grid", grid), key=_threshold)
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


def _log_grid(lo: float, hi: float, points: int) -> list[float]:
    """points >= 2 log-spaced values from 0 < lo < hi: exp(log lo + k step)
    inside, and lo and hi themselves at the ends.  The one rule of every
    lo:hi:points grid, the CLI's included."""
    log_lo = math.log(lo)
    step = (math.log(hi) - log_lo) / (points - 1)
    return [lo, *[math.exp(log_lo + k * step) for k in range(1, points - 1)], hi]


def default_upsilon_grid() -> list[float]:
    """Threshold grid used when the caller does not pick one, that of
    --upsilon 1e-3:4:60; its ends, 0.001 and 4.0, are the default range."""
    return _log_grid(1e-3, 4.0, 60)


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
    the grid's own element, so a one-point grid fixes the threshold.  A
    law with no Gaussian tail (scale None) raises PreconditionError.
    """
    lo, hi = _threshold_range(grid)
    c = LAWS[model.law].scale
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
    antenna's law of H1 has mass at zero.  spectra may be any iterable.
    """
    spectra = as_list("antenna spectra", spectra, "SpectralDensity")
    if not spectra:
        raise DomainError("need at least one antenna spectrum")
    for i, S in enumerate(spectra):
        if not isinstance(S, SpectralDensity):
            raise DomainError(f"antenna spectrum {i} must be a SpectralDensity, got {S!r}")
    return max(zero_set_measure(S) for S in spectra)


# ---------------------------------------------------------------------------
# the laws

def _any_spectrum(S: SpectralDensity) -> None:
    """A Gaussian-tail law takes every unit-variance spectrum."""
    return None


def _flat_spectrum(S: SpectralDensity) -> str | None:
    """The phase bounds hold only for IID phases: the flat spectrum."""
    return None if S == make_rect_band(0.5) else "the flat spectrum (IID phases)"


def _threshold_point(model: FadingModel, snr: float, ends: _Range) -> tuple[float, float, float]:
    """The threshold lower bound at its optimum within ends, and the
    coherent average-power ceiling."""
    u_star, lb = optimize_upsilon(model, snr, ends)
    return lb, u_star, coherent_avg_upper_bound(model, snr)


def _phase_point(model: FadingModel, snr: float, ends: _Range) -> tuple[float, None, float]:
    """The unit-modulus bounds, which have no threshold."""
    return phase_noise_lower_bound(snr), None, phase_noise_upper_bound(snr)


# rayleigh: |H1|^2 exponential with unit mean; with no mass at zero its
# pre-log is at least the zero-set measure and at most the coherent 1.
# onoff: zero or variance-2 Gaussian with probability 1/2 each; the mass
# at zero leaves no lower limit and caps the pre-log at P(|H1| > 0).
# unit: |H1| = 1, a uniform phase; pre-log 1/2 despite its flat spectrum.
LAWS = {
    "rayleigh": Law(lambda u: math.exp(-u * u), 0.0, 1.0, _any_spectrum,
                    ("LOWER_LB", "UPPER_COHERENT"), _threshold_point,
                    lambda model: (prelog_lower_bound(model), 1.0)),
    "onoff": Law(lambda u: 0.5 * math.exp(-u * u / 2.0), 0.5, 2.0, _any_spectrum,
                 ("LOWER_LB", "UPPER_COHERENT"), _threshold_point,
                 lambda model: (None, masspoint_prelog_upper(model))),
    "unit": Law(lambda u: 1.0 if u <= 1.0 else 0.0, 0.0, None, _flat_spectrum,
                ("PHASE_LB", "PHASE_UB"), _phase_point, lambda model: (0.5, 0.5)),
}


# ---------------------------------------------------------------------------
# sweeps and reports

def bound_sweep(
    model: FadingModel,
    snrs: Sequence[float],
    upsilon_grid: Sequence[float] | None = None,
    threads: int | None = None,
) -> tuple[BoundCurve, BoundCurve]:
    """Lower and upper bound curves over an snr grid.

    The model's Law row picks the pair: its kinds name the two curves and
    its point gives both bounds at each snr.  The snr grid (any iterable
    of numbers, an array included; a string is no number) must be
    nonempty and strictly increasing as floats, and the threshold grid
    (None: the default grid) nonempty with every u and u**2 positive and
    finite; both are checked before any point is evaluated, for every
    law.  The threshold grid's ends bound the optimal threshold at each
    snr (see optimize_upsilon); a law without a threshold ignores a valid
    threshold grid.

    threads is accepted and ignored: the snr points run serially, in grid
    order, and the keyword goes with the benchmark self-test's next change.
    """
    snrs = as_list("snr grid", snrs)
    if not snrs:
        raise DomainError("snr grid must be nonempty")
    keys = [_as_number("snr", s) for s in snrs]
    if any(b <= a for a, b in zip(keys, keys[1:])):
        raise DomainError("snr grid must be strictly increasing")
    ends = _DEFAULT_RANGE if upsilon_grid is None else _threshold_range(upsilon_grid)
    law = LAWS[model.law]
    rows = [law.point(model, snr, ends) for snr in snrs]
    low = BoundCurve(
        law.kinds[0],
        tuple((s, r[0]) for s, r in zip(snrs, rows)),
        params=tuple(r[1] for r in rows),
    )
    up = BoundCurve(law.kinds[1], tuple((s, r[2]) for s, r in zip(snrs, rows)))
    return low, up


def prelog_report(
    model: FadingModel,
    snr_grid: Sequence[float],
    upsilon_grid: Sequence[float] | None = None,
) -> PrelogReport:
    """Finite-snr pre-log diagnostics against the analytic limits.

    Each ratio is bound_sweep's lower bound at that snr divided by log snr,
    floored at 0.  The analytic limit and the ceiling are the limits of
    the model's Law row.  They hold only as snr grows, so no ratio is
    checked against them; a lower bound above bound_sweep's upper bound,
    which no snr allows, raises NumericError.
    """
    snr_grid = as_list("snr grid", snr_grid)  # read once, as bound_sweep reads it
    if any(_as_number("snr", s) <= 1 for s in snr_grid):
        raise DomainError("pre-log ratios need snr > 1")

    low, up = bound_sweep(model, snr_grid, upsilon_grid)
    for (snr, lb), ub in zip(low.points, up.values):
        if lb > ub:
            raise NumericError(f"lower bound {lb!r} exceeds upper bound {ub!r} at snr {snr!r}")
    analytic, upper = LAWS[model.law].limits(model)
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
