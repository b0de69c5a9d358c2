"""Capacity bounds, pre-log reports, and their frozen reference values."""

import math
from dataclasses import fields

import numpy as np
import pytest

from prelog_lab.bounds import (
    LAWS,
    FadingModel,
    PrelogReport,
    bound_sweep,
    capacity_lower_bound,
    coherent_avg_upper_bound,
    default_upsilon_grid,
    masspoint_prelog_upper,
    miso_prelog_lower,
    onoff_model,
    optimize_upsilon,
    phase_noise_lower_bound,
    phase_noise_model,
    phase_noise_upper_bound,
    prelog_lower_bound,
    prelog_report,
    rayleigh_band_model,
)
from prelog_lab.errors import DomainError, NumericError, PreconditionError
from prelog_lab.spectra import make_rect_band, zero_set_measure

from oracles import random_density


class TestCapacityLowerBound:
    def test_band_example_direct_arithmetic(self):
        # tail e^{-0.25} at threshold 0.5, band integral 0.1 ln(1 + 1e7)
        model = rayleigh_band_model(0.05)
        got = capacity_lower_bound(model, 1e6, 0.5)
        want = math.exp(-0.25) * (math.log(1e6) - (1 - math.log(0.25))) - 0.1 * math.log(
            1 + 1e7
        )
        assert got == pytest.approx(want, abs=1e-12)
        assert got == pytest.approx(7.29, abs=2e-3)

    def test_iid_bound_is_trivially_negative(self):
        model = rayleigh_band_model(0.5)
        for snr in (1e2, 1e4, 1e8):
            got = capacity_lower_bound(model, snr, 1.0)
            want = math.exp(-1) * (math.log(snr) - 1) - math.log1p(snr)
            assert got == pytest.approx(want, abs=1e-12)
            assert got < 0

    def test_threshold_guard(self):
        model = rayleigh_band_model(0.1)
        with pytest.raises(DomainError):
            capacity_lower_bound(model, 1e4, 0.0)
        with pytest.raises(DomainError):
            capacity_lower_bound(model, 1e4, -1.0)
        with pytest.raises(DomainError):
            capacity_lower_bound(model, 0.0, 1.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(DomainError):
                capacity_lower_bound(model, bad, 1.0)
            with pytest.raises(DomainError):
                capacity_lower_bound(model, 1e4, bad)


class TestOptimizeUpsilon:
    def test_singleton(self):
        model = rayleigh_band_model(0.1)
        u, lb = optimize_upsilon(model, 1e4, [1.0])
        assert u == 1.0
        assert lb == capacity_lower_bound(model, 1e4, 1.0)

    def test_refinement_never_hurts(self):
        model = rayleigh_band_model(0.1)
        coarse = default_upsilon_grid(points=10)
        fine = default_upsilon_grid(points=40)
        _, lb_c = optimize_upsilon(model, 1e6, coarse)
        _, lb_f = optimize_upsilon(model, 1e6, coarse + fine)
        assert lb_f >= lb_c

    def test_dominates_fixed_threshold(self):
        model = rayleigh_band_model(0.05)
        _, lb = optimize_upsilon(model, 1e6, default_upsilon_grid(1e-3, 2.0, 50))
        assert lb >= 7.29

    def test_tie_breaks_small(self):
        # tails underflow to exactly 0 at both thresholds, so the bounds tie
        model = rayleigh_band_model(0.1)
        assert model.tail(30.0) == 0.0 == model.tail(40.0)
        u, lb = optimize_upsilon(model, 1e4, [40.0, 30.0])
        assert u == 30.0
        assert lb == capacity_lower_bound(model, 1e4, 40.0)

    def test_empty_grid(self):
        with pytest.raises(DomainError):
            optimize_upsilon(rayleigh_band_model(0.1), 1e4, [])


class TestPrelogLower:
    def test_band(self):
        assert prelog_lower_bound(rayleigh_band_model(0.1)) == pytest.approx(0.8, abs=1e-15)

    def test_iid(self):
        assert prelog_lower_bound(rayleigh_band_model(0.5)) == 0.0

    def test_mass_at_zero_rejected(self):
        with pytest.raises(PreconditionError):
            prelog_lower_bound(onoff_model(1 / 16))


class TestCoherentUpper:
    def test_full_support(self):
        model = rayleigh_band_model(0.3)
        assert coherent_avg_upper_bound(model, 100.0) == pytest.approx(
            4.61512051684126, abs=1e-14
        )

    def test_onoff_half_support(self):
        got = coherent_avg_upper_bound(onoff_model(1 / 16), 1e6)
        assert got == pytest.approx(0.5 * math.log1p(2e6), abs=1e-12)
        assert got == pytest.approx(7.254329119262048, abs=1e-12)

    def test_snr_domain(self):
        for bad in (0.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                coherent_avg_upper_bound(rayleigh_band_model(0.1), bad)


class TestMasspointUpper:
    def test_values(self):
        assert masspoint_prelog_upper(onoff_model(1 / 16)) == 0.5
        assert masspoint_prelog_upper(rayleigh_band_model(0.2)) == 1.0

    def test_strict_gap_certificate(self):
        model = onoff_model(1 / 16)
        upper = masspoint_prelog_upper(model)
        assert upper == 0.5
        assert zero_set_measure(model.spectrum) == 0.75
        assert upper < zero_set_measure(model.spectrum)


class TestPhaseNoise:
    def test_lower_frozen_value(self):
        assert phase_noise_lower_bound(1e4) == pytest.approx(
            2.839633063128426, abs=1e-12
        )

    def test_lower_slope_half(self):
        slope = (phase_noise_lower_bound(1e8) - phase_noise_lower_bound(1e4)) / (
            math.log(1e8) - math.log(1e4)
        )
        assert slope == pytest.approx(0.5, abs=1e-3)

    def test_slope_every_decade(self):
        for k in range(4, 12):
            lo, hi = 10.0 ** k, 10.0 ** (k + 1)
            slope = (phase_noise_lower_bound(hi) - phase_noise_lower_bound(lo)) / (
                math.log(hi) - math.log(lo)
            )
            assert 0.49 <= slope <= 0.51

    def test_upper_values(self):
        assert phase_noise_upper_bound(2.0) == pytest.approx(
            0.34657359027997264, abs=1e-15
        )
        ratio = phase_noise_upper_bound(1e12) / math.log(1e12)
        assert ratio == pytest.approx(0.487457083514037, abs=1e-12)
        assert abs(ratio - 0.5) <= 0.03

    def test_upper_offset_limit(self):
        # UB - (1/2) ln snr tends to -(1/2) ln 2
        for snr in (1e10, 1e14):
            off = phase_noise_upper_bound(snr) - 0.5 * math.log(snr)
            assert off == pytest.approx(-0.5 * math.log(2), abs=1e-9)

    def test_ordering(self):
        for k in range(2, 11):
            snr = 10.0 ** k
            assert phase_noise_lower_bound(snr) <= phase_noise_upper_bound(snr)

    def test_domain(self):
        with pytest.raises(DomainError):
            phase_noise_lower_bound(0.0)
        with pytest.raises(DomainError):
            phase_noise_upper_bound(-1.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(DomainError):
                phase_noise_lower_bound(bad)
            with pytest.raises(DomainError):
                phase_noise_upper_bound(bad)


class TestMiso:
    def test_two_antennas(self):
        spectra = [make_rect_band(0.1), make_rect_band(0.2)]
        assert miso_prelog_lower(spectra) == pytest.approx(0.8, abs=1e-15)

    def test_single_antenna_reduces(self):
        model = rayleigh_band_model(0.15)
        assert miso_prelog_lower([model.spectrum]) == prelog_lower_bound(model)

    def test_iid_pair(self):
        assert miso_prelog_lower([make_rect_band(0.5)] * 2) == 0.0

    def test_composition_identity(self):
        rng = np.random.default_rng(41)
        spectra = [random_density(rng, unit_variance=True) for _ in range(4)]
        models = [FadingModel(f"m{i}", S, "rayleigh") for i, S in enumerate(spectra)]
        want = max(prelog_lower_bound(m) for m in models)
        assert miso_prelog_lower(spectra) == want

    def test_guards(self):
        with pytest.raises(DomainError):
            miso_prelog_lower([])


class TestBoundOrdering:
    def test_random_models(self):
        rng = np.random.default_rng(43)
        snrs = [10.0 ** k for k in range(2, 10)]
        for _ in range(6):
            model = FadingModel(
                "rand", random_density(rng, unit_variance=True, force_zero_band=True), "rayleigh"
            )
            for snr in snrs:
                _, lb = optimize_upsilon(model, snr, default_upsilon_grid())
                assert lb <= coherent_avg_upper_bound(model, snr) + 1e-9


class TestBoundSweep:
    def test_generic_curves(self):
        model = rayleigh_band_model(0.05)
        snrs = [1e2, 1e4, 1e6]
        low, up = bound_sweep(model, snrs)
        assert low.kind == "LOWER_LB" and up.kind == "UPPER_COHERENT"
        assert low.snrs == (1e2, 1e4, 1e6)
        for (snr, lb), star in zip(low.points, low.params):
            assert lb == capacity_lower_bound(model, snr, star)
        for snr, ub in up.points:
            assert ub == coherent_avg_upper_bound(model, snr)

    def test_phase_curves(self):
        low, up = bound_sweep(phase_noise_model(), [1e2, 1e4])
        assert low.kind == "PHASE_LB" and up.kind == "PHASE_UB"
        assert low.values == tuple(phase_noise_lower_bound(s) for s in (1e2, 1e4))

    def test_threads_do_not_change_values(self):
        model = rayleigh_band_model(0.1)
        snrs = [10.0 ** k for k in range(2, 9)]
        serial = bound_sweep(model, snrs, threads=1)
        pooled = bound_sweep(model, snrs, threads=8)
        assert serial[0].points == pooled[0].points
        assert serial[1].points == pooled[1].points

    def test_snr_grid_must_increase(self):
        with pytest.raises(DomainError):
            bound_sweep(rayleigh_band_model(0.1), [1e4, 1e2])


class TestPrelogReport:
    @pytest.mark.parametrize("W", [0.05, 0.1, 0.2])
    def test_band_trajectory(self, W):
        report = prelog_report(rayleigh_band_model(W), [1e4, 1e6, 1e8, 1e10])
        assert report.analytic_limit == pytest.approx(1 - 2 * W, abs=1e-15)
        assert report.upper_prelog == 1.0
        ratios = [r for _, r in report.finite_ratios]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))
        assert all(r <= (1 - 2 * W) + 0.02 for r in ratios)
        assert not any(report.floored)

    def test_onoff_masspoint_route(self):
        report = prelog_report(onoff_model(1 / 16), [1e4, 1e6, 1e8])
        assert report.analytic_limit is None
        assert report.upper_prelog == 0.5
        assert max(r for _, r in report.finite_ratios) <= 0.5 + 0.02

    def test_phase_route(self):
        report = prelog_report(phase_noise_model(), [1e4, 1e8, 1e10])
        assert report.analytic_limit == 0.5
        assert report.upper_prelog == 0.5
        snr, last = report.finite_ratios[-1]
        assert snr == 1e10
        assert last == pytest.approx(
            phase_noise_lower_bound(1e10) / math.log(1e10), abs=1e-15
        )
        assert report.upsilon_star == (None, None, None)

    def test_floor_flags(self):
        # IID Rayleigh bound is negative at moderate snr, so ratios floor at 0
        report = prelog_report(rayleigh_band_model(0.5), [1e2, 1e3])
        assert all(report.floored)
        assert all(r == 0.0 for _, r in report.finite_ratios)

    def test_grid_guards(self):
        model = rayleigh_band_model(0.1)
        with pytest.raises(DomainError):
            prelog_report(model, [])
        with pytest.raises(DomainError):
            prelog_report(model, [1e6, 1e4])
        with pytest.raises(DomainError):
            prelog_report(model, [0.5, 1e4])


class TestFadingModelValidation:
    def test_rayleigh_needs_unit_variance(self):
        with pytest.raises(DomainError):
            FadingModel("bad", make_rect_band(0.1, variance=2.0), "rayleigh")

    def test_law_model_checks(self):
        for law in LAWS:
            with pytest.raises(DomainError, match="unit variance"):
                FadingModel("bad", make_rect_band(0.5, variance=2.0), law)
        with pytest.raises(DomainError, match="flat spectrum"):
            FadingModel("bad", make_rect_band(0.1), "unit")
        with pytest.raises(DomainError, match="unknown law"):
            FadingModel("bad", make_rect_band(0.5), "rice")
        # the onoff tail bounds any spectrum; only its paths need the on-off one
        assert FadingModel("ok", make_rect_band(0.1), "onoff").mass_at_zero == 0.5

    def test_builtin_models_carry_their_law(self):
        assert rayleigh_band_model(0.1).law == "rayleigh"
        assert onoff_model(1 / 16).law == "onoff"
        assert phase_noise_model().law == "unit"

    def test_three_fields_and_the_law_sets_the_rest(self):
        assert [f.name for f in fields(FadingModel) if f.init] == ["name", "spectrum", "law"]
        for law, (tail, mass) in LAWS.items():
            model = FadingModel("m", make_rect_band(0.5), law)
            assert model.tail is tail and model.mass_at_zero == mass

    def test_closed_loopholes(self):
        # a law's variance and a unit law's spectrum are checked at build time
        with pytest.raises(DomainError, match="unit variance"):
            FadingModel("x", make_rect_band(0.1, variance=2.0), "onoff")
        with pytest.raises(DomainError, match="flat spectrum"):
            FadingModel("x", make_rect_band(0.1), "unit")


# thresholds on which every tail of LAWS is checked, 0+ first
TAIL_PROBES = (1e-9, 0.25, 0.5, 1.0, 2.0, 4.0, 40.0)


@pytest.mark.parametrize("law", sorted(LAWS))
def test_law_tail_is_a_tail(law):
    tail, mass = LAWS[law]
    assert abs(tail(TAIL_PROBES[0]) - (1.0 - mass)) <= 1e-6
    values = [tail(u) for u in TAIL_PROBES]
    assert all(0.0 <= t <= 1.0 for t in values)
    assert all(b <= a for a, b in zip(values, values[1:]))


class TestReportInvariantGuard:
    def test_ratio_above_limit_rejected(self):
        with pytest.raises(NumericError):
            PrelogReport(
                analytic_limit=0.2,
                finite_ratios=((1e4, 0.5),),
                upper_prelog=1.0,
            )
