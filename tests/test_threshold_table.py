"""The closed-form threshold optimum against plain-float and mpmath oracles.

optimize_upsilon, bound_sweep and prelog_report maximize the threshold
bound exactly over the range of a threshold grid.  The bound at that
optimum must never fall below the maximum that oracles.threshold_argmax
finds one grid point at a time, beyond rounding, and the optimum itself
must match c / W0(c snr / e) from mpmath's Lambert W.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, strategies as st  # noqa: E402

from prelog_lab import bounds  # noqa: E402
from prelog_lab.bounds import (  # noqa: E402
    FadingModel,
    bound_sweep,
    capacity_lower_bound,
    optimize_upsilon,
    prelog_report,
    rayleigh_band_model,
)
from prelog_lab.errors import DomainError, PreconditionError  # noqa: E402
from prelog_lab.spectra import make_rect_band  # noqa: E402

from oracles import (  # noqa: E402
    log_grid,
    random_density,
    threshold_argmax,
    threshold_rounding,
)

THRESHOLD_LAWS = ["rayleigh", "onoff"]


def _model(seed: int, law: str) -> FadingModel:
    """A random unit-variance spectrum under law."""
    return FadingModel(f"random:{seed}", random_density(np.random.default_rng(seed),
                                                        unit_variance=True), law)


def _check_optimum(model, snr, grid, u, lb):
    """u lies in the grid's range, is its own element where clamped, and
    its bound is the library's and beats every grid point."""
    lo, hi = min(grid), max(grid)
    assert lo <= u <= hi
    if u in (lo, hi):
        assert any(u is g for g in grid)
    assert type(lb) is float and lb == capacity_lower_bound(model, snr, u)
    _, best = threshold_argmax(model.tail, model.spectrum, snr, grid)
    assert lb >= best - threshold_rounding(snr, u)


seeds = st.integers(0, 2**32 - 1)
laws = st.sampled_from(THRESHOLD_LAWS)
thresholds = st.one_of(st.floats(1e-3, 6.0), st.integers(1, 4))
# unsorted grids with repeated points
grids = st.lists(thresholds, min_size=1, max_size=12).flatmap(
    lambda g: st.permutations(g + g[: len(g) // 2])
)
snrs = st.floats(1e-2, 1e300)
snr_grids = st.lists(st.floats(1.5, 1e12), min_size=1, max_size=6, unique=True).map(sorted)


@given(seeds, laws, snrs, grids)
@example(0, "rayleigh", 1e4, [1.0])
@example(1, "rayleigh", 1e4, [40.0, 30.0])  # tails underflow to 0 on the grid
@example(2, "onoff", 0.05, [3, 2.0, 0.5, 1, 0.5])  # optimum above the grid, ints
def test_optimum_beats_the_grid(seed, law, snr, grid):
    model = _model(seed, law)
    _check_optimum(model, snr, grid, *optimize_upsilon(model, snr, grid))


@given(seeds, laws, snr_grids, grids)
def test_bound_sweep_beats_the_grid(seed, law, snr_grid, grid):
    model = _model(seed, law)
    low, _ = bound_sweep(model, snr_grid, grid)
    for (snr, lb), u in zip(low.points, low.params):
        _check_optimum(model, snr, grid, u, lb)


@given(seeds, laws, snr_grids, grids)
def test_prelog_report_beats_the_grid(seed, law, snr_grid, grid):
    model = _model(seed, law)
    report = prelog_report(model, snr_grid, grid)
    for (snr, ratio), u in zip(report.finite_ratios, report.upsilon_star):
        u_star, lb = optimize_upsilon(model, snr, grid)
        assert u == u_star
        assert ratio == max(lb / math.log(snr), 0.0)
        _check_optimum(model, snr, grid, u, lb)


@pytest.mark.parametrize("model", [rayleigh_band_model(0.1), bounds.onoff_model(1 / 16)],
                         ids=["rayleigh", "onoff"])
def test_a_fine_grid_closes_on_the_optimum(model):
    # the gap is the grid's own error, quadratic in its spacing (8.3e-5 in
    # log ups here): it reads 3e-12 to 1.8e-9 on these snrs, the most at 10
    grid = log_grid(1e-3, 4.0, 100_000)
    for snr in (1e1, 1e2, 1e4, 1e6, 1e10):
        u, lb = optimize_upsilon(model, snr, grid)
        _, best = threshold_argmax(model.tail, model.spectrum, snr, grid)
        assert -threshold_rounding(snr, u) <= lb - best <= 1e-8


@pytest.mark.parametrize("law, c", [("rayleigh", 1), ("onoff", 2)])
def test_optimum_is_the_lambert_w_threshold(law, c):
    mpmath = pytest.importorskip("mpmath")
    model = FadingModel("flat", make_rect_band(0.5), law)
    with mpmath.workdps(40):
        for snr in np.geomspace(1e-2, 1e308, 400).tolist():
            u, _ = optimize_upsilon(model, snr, [1e-3, 1e3])
            want = mpmath.sqrt(c / mpmath.lambertw(c * mpmath.mpf(snr) / mpmath.e).real)
            assert abs(u - want) <= 1e-15 * want, snr


def test_a_clamped_optimum_is_the_callers_element():
    model = rayleigh_band_model(0.1)
    lo, hi = 2.0, 3
    assert optimize_upsilon(model, 1e6, [hi, lo])[0] is lo  # optimum about 0.31
    lo, hi = 0.5, 1.25
    assert optimize_upsilon(model, 0.05, [hi, lo])[0] is hi  # optimum about 7.4


@given(seeds, laws, snrs, thresholds)
def test_one_point_fixes_the_threshold(seed, law, snr, u):
    model = _model(seed, law)
    got = optimize_upsilon(model, snr, [u])
    assert got[0] is u and got[1] == capacity_lower_bound(model, snr, u)


def test_unit_law_has_no_threshold_optimum():
    with pytest.raises(PreconditionError, match="unit"):
        optimize_upsilon(bounds.phase_noise_model(), 1e4, [1.0])


@pytest.mark.parametrize("snr", [0.0, -1.0, math.nan, math.inf])
def test_bad_snr_is_a_domain_error(snr):
    with pytest.raises(DomainError, match="snr"):
        optimize_upsilon(rayleigh_band_model(0.1), snr, [1.0])


# a numpy float64 whose square overflows is refused without an overflow warning
BAD_THRESHOLDS = [0.0, -1.0, math.nan, math.inf, 1e-170, 1e200, np.float64(1e200)]


def _counting_model(monkeypatch):
    calls = []

    def tail(u):
        calls.append(u)
        return math.exp(-u * u)

    row = bounds.LAWS["rayleigh"]
    fields = {name: getattr(row, name) for name in bounds.Law.__slots__}
    monkeypatch.setitem(bounds.LAWS, "rayleigh", bounds.Law(**{**fields, "tail": tail}))
    return FadingModel("counting", make_rect_band(0.1), "rayleigh"), calls


@pytest.mark.parametrize("bad", BAD_THRESHOLDS)
@pytest.mark.parametrize("sweep", [
    lambda m, g: optimize_upsilon(m, 1e4, g),
    lambda m, g: bound_sweep(m, [1e2, 1e4], g),
    lambda m, g: prelog_report(m, [1e2, 1e4], g),
], ids=["optimize_upsilon", "bound_sweep", "prelog_report"])
def test_bad_threshold_rejected_before_evaluation(monkeypatch, sweep, bad):
    def no_integral(*args):
        raise AssertionError("integral evaluated before the grid was checked")

    monkeypatch.setattr(bounds, "spectral_log_integral", no_integral)
    model, calls = _counting_model(monkeypatch)
    with pytest.raises(DomainError, match="threshold"):
        sweep(model, [0.5, 1.0, bad, 2.0])
    assert calls == []


@pytest.mark.parametrize("bad", BAD_THRESHOLDS)
@pytest.mark.parametrize("sweep", [bound_sweep, prelog_report])
def test_unit_law_rejects_a_bad_threshold_before_any_bound(monkeypatch, sweep, bad):
    def no_bound(snr):
        raise AssertionError("phase bound evaluated before the grid was checked")

    for name in ("phase_noise_lower_bound", "phase_noise_upper_bound"):
        monkeypatch.setattr(bounds, name, no_bound)
    with pytest.raises(DomainError, match="threshold"):
        sweep(bounds.phase_noise_model(), [1e2, 1e4], [0.5, bad])


def test_empty_grid_rejected():
    for model in (rayleigh_band_model(0.1), bounds.phase_noise_model()):
        for sweep in (bound_sweep, prelog_report):
            with pytest.raises(DomainError, match="nonempty"):
                sweep(model, [1e2, 1e4], [])
