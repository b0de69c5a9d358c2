"""The whole-grid threshold optimization against a plain-float oracle.

optimize_upsilon, bound_sweep and prelog_report evaluate the bound over a
sweep's threshold table in one numpy expression per snr; every optimum and
bound must equal, float for float, the first strict maximum that
oracles.threshold_argmax finds one threshold at a time.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, strategies as st  # noqa: E402

from prelog_lab import bounds  # noqa: E402
from prelog_lab.bounds import (  # noqa: E402
    LAWS,
    FadingModel,
    bound_sweep,
    optimize_upsilon,
    prelog_report,
    rayleigh_band_model,
)
from prelog_lab.errors import DomainError  # noqa: E402
from prelog_lab.spectra import make_rect_band  # noqa: E402

from oracles import log_grid, random_density, threshold_argmax, threshold_bounds  # noqa: E402


def _model(seed: int, law: str) -> FadingModel:
    """A random unit-variance spectrum under law; the unit law is flat."""
    if law == "unit":
        S = make_rect_band(0.5)
    else:
        S = random_density(np.random.default_rng(seed), unit_variance=True)
    return FadingModel(f"random:{seed}", S, law)


def _is_element(u, grid) -> bool:
    return any(u is g for g in grid)


seeds = st.integers(0, 2**32 - 1)
tail_names = st.sampled_from(sorted(LAWS))
thresholds = st.one_of(st.floats(1e-3, 6.0), st.integers(1, 4))
# unsorted grids with repeated points
grids = st.lists(thresholds, min_size=1, max_size=12).flatmap(
    lambda g: st.permutations(g + g[: len(g) // 2])
)
snrs = st.floats(1.5, 1e12)
snr_grids = st.lists(st.floats(1e2, 1e12), min_size=1, max_size=6, unique=True).map(sorted)


@given(seeds, tail_names, snrs, grids)
@example(0, "rayleigh", 1e4, [1.0])
@example(1, "rayleigh", 1e4, [40.0, 30.0])  # tails underflow to 0: a tie
@example(2, "unit", 1e6, [3, 2.0, 0.5, 1, 0.5])  # ties above 1, ints
def test_optimize_upsilon_matches_oracle(seed, tail_name, snr, grid):
    model = _model(seed, tail_name)
    u, lb = optimize_upsilon(model, snr, grid)
    assert (u, lb) == threshold_argmax(model.tail, model.spectrum, snr, grid)
    assert _is_element(u, grid) and type(lb) is float


# bound_sweep sends the unit law to the phase bounds
@given(seeds, st.sampled_from(["rayleigh", "onoff"]), snr_grids, grids)
def test_bound_sweep_matches_oracle(seed, tail_name, snr_grid, grid):
    model = _model(seed, tail_name)
    low, _ = bound_sweep(model, snr_grid, grid, threads=1)
    for (snr, lb), u in zip(low.points, low.params):
        assert (u, lb) == threshold_argmax(model.tail, model.spectrum, snr, grid)
        assert _is_element(u, grid)


@given(seeds, st.sampled_from(["rayleigh", "onoff"]), snr_grids, grids)
def test_prelog_report_matches_oracle(seed, tail_name, snr_grid, grid):
    model = _model(seed, tail_name)
    report = prelog_report(model, snr_grid, grid)
    for (snr, ratio), u in zip(report.finite_ratios, report.upsilon_star):
        u_star, lb = threshold_argmax(model.tail, model.spectrum, snr, grid)
        assert u is u_star
        assert ratio == max(lb / math.log(snr), 0.0)


@pytest.mark.parametrize("model", [rayleigh_band_model(0.1), bounds.onoff_model(1 / 16)],
                         ids=["rayleigh", "onoff"])
def test_every_grid_point_matches_oracle(model):
    # numpy's vectorized exp/log differ from libm in the last bit on a few
    # points of a grid this long, so a table built with them would not match
    grid = log_grid(1e-4, 8.0, 400)
    table = bounds._threshold_table(model, grid)
    for snr in (1e2, 1e6, 1e10):
        got = bounds.capacity_lower_bound(model, snr, table)
        assert got.tolist() == threshold_bounds(model.tail, model.spectrum, snr, grid)


def test_pooled_sweep_matches_oracle():
    model = rayleigh_band_model(0.1)
    grid = [2.0, 0.25, 1, 0.25, 0.001, 4]
    snr_grid = [10.0 ** k for k in range(2, 10)]
    for threads in (1, 2, 4):
        low, _ = bound_sweep(model, snr_grid, grid, threads=threads)
        want = [threshold_argmax(model.tail, model.spectrum, s, grid) for s in snr_grid]
        assert list(zip(low.params, low.values)) == want


BAD_THRESHOLDS = [0.0, -1.0, math.nan, math.inf, 1e-170, 1e200]


def _counting_model(monkeypatch):
    calls = []

    def tail(u):
        calls.append(u)
        return math.exp(-u * u)

    monkeypatch.setitem(bounds.LAWS, "rayleigh", (tail, 0.0))
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
