"""Capacity bounds, pre-log reports, and their frozen reference values."""

import math
import sys
from dataclasses import fields

import numpy as np
import pytest

from prelog_lab import bounds
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
from prelog_lab.spectra import SpectralDensity, make_rect_band, zero_set_measure

from oracles import (
    FLOOR_SPECTRUM,
    decimal_coherent_upper,
    decimal_phase_lower,
    decimal_threshold_lower,
    log_grid,
    random_density,
)


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
        coarse = log_grid(1e-3, 4.0, 10)
        fine = log_grid(1e-3, 4.0, 40)
        _, lb_c = optimize_upsilon(model, 1e6, coarse)
        _, lb_f = optimize_upsilon(model, 1e6, coarse + fine)
        assert lb_f >= lb_c

    def test_dominates_fixed_threshold(self):
        model = rayleigh_band_model(0.05)
        _, lb = optimize_upsilon(model, 1e6, log_grid(1e-3, 2.0, 50))
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

    def test_default_grid(self):
        grid = default_upsilon_grid()
        assert grid == log_grid(1e-3, 4.0, 60)
        assert (grid[0], grid[-1]) == (0.0010000000000000002, 4.000000000000001)


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

    def test_overflow_stays_finite(self):
        # snr / p overflows past 8.99e307 at p = 1/2; at p = 1 it cannot.
        # Below that the direct form keeps its bits
        model = onoff_model(1 / 16)
        assert coherent_avg_upper_bound(model, 8.9e307) == 0.5 * math.log1p(8.9e307 / 0.5)
        for snr in (9e307, 1e308, 1.7e308, sys.float_info.max):
            assert coherent_avg_upper_bound(model, snr) == pytest.approx(
                decimal_coherent_upper(0.5, snr), rel=1e-15
            )
        assert coherent_avg_upper_bound(rayleigh_band_model(0.1), 1.7e308) == math.log1p(1.7e308)


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
        assert [s for s, _ in low.points] == snrs
        for (snr, lb), star in zip(low.points, low.params):
            assert lb == capacity_lower_bound(model, snr, star)
        for snr, ub in up.points:
            assert ub == coherent_avg_upper_bound(model, snr)

    def test_phase_curves(self):
        low, up = bound_sweep(phase_noise_model(), [1e2, 1e4])
        assert low.kind == "PHASE_LB" and up.kind == "PHASE_UB"
        assert low.values == tuple(phase_noise_lower_bound(s) for s in (1e2, 1e4))

    @pytest.mark.parametrize("model", [rayleigh_band_model(0.1), onoff_model(1 / 16),
                                       phase_noise_model()], ids=["rayleigh", "onoff", "unit"])
    def test_threads_do_not_change_values(self, model):
        snrs = [10.0 ** k for k in range(2, 9)]
        serial = bound_sweep(model, snrs, threads=1)
        pooled = bound_sweep(model, snrs, threads=8)
        assert serial[0].points == pooled[0].points
        assert serial[1].points == pooled[1].points

    def test_snr_grid_must_increase(self):
        with pytest.raises(DomainError):
            bound_sweep(rayleigh_band_model(0.1), [1e4, 1e2])

    def test_snr_order_is_checked_before_any_point(self, monkeypatch):
        calls = []
        for name in ("spectral_log_integral", "phase_noise_lower_bound"):
            fn = getattr(bounds, name)
            monkeypatch.setattr(bounds, name, lambda *a, fn=fn: calls.append(a) or fn(*a))
        for model in (rayleigh_band_model(0.1), phase_noise_model()):
            for snrs in ([1e308, 1e4], [1e2, 1e4, 1e4]):
                with pytest.raises(DomainError, match="strictly increasing"):
                    bound_sweep(model, snrs)
        assert calls == []
        for model in (rayleigh_band_model(0.1), phase_noise_model()):
            bound_sweep(model, [1e2, 1e4])
        assert len(calls) == 4


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

    def test_density_floor_has_limit_zero_and_positive_ratios(self):
        # no exact zero, so the zero set and the pre-log are 0, while the
        # finite-snr ratios are positive and fall toward it
        model = FadingModel("floor", SpectralDensity.from_json(FLOOR_SPECTRUM), "rayleigh")
        snrs = [1e4, 1e6, 1e8, 1e10]
        report = prelog_report(model, snrs)
        assert report.analytic_limit == 0.0
        assert not any(report.floored)
        low, _ = bound_sweep(model, snrs)
        ratios = [r for _, r in report.finite_ratios]
        assert ratios == [lb / math.log(snr) for snr, lb in low.points]
        assert all(b < a for a, b in zip(ratios, ratios[1:]))
        assert ratios[0] > 0.2

    def test_ratio_may_exceed_the_ceiling_near_snr_one(self):
        report = prelog_report(onoff_model(0.001), [1.001])
        assert report.upper_prelog == 0.5
        assert report.finite_ratios == ((1.001, 3.764308673960528),)

    def test_grid_guards(self):
        model = rayleigh_band_model(0.1)
        with pytest.raises(DomainError, match="nonempty"):
            prelog_report(model, [])
        with pytest.raises(DomainError, match="strictly increasing"):
            prelog_report(model, [1e6, 1e4])
        with pytest.raises(DomainError, match="snr > 1"):
            prelog_report(model, [0.5, 1e4])


class TestOverflow:
    """Where a bound's direct form overflows the float range, the bound
    stays finite and matches a 40-digit decimal reference."""

    def test_phase_noise_lower_bound(self):
        # 4 pi e (2 + 4 snr) is finite here, and the direct form keeps its bits
        snr = 1.3e306
        assert phase_noise_lower_bound(snr) == (
            math.log(snr) - 0.5 * math.log(4.0 * math.pi * math.e * (2.0 + 4.0 * snr))
            + math.log(2.0)
        )
        for snr in (1.4e306, 1e308, 1.7e308, sys.float_info.max):
            assert phase_noise_lower_bound(snr) == pytest.approx(
                decimal_phase_lower(snr), rel=1e-15
            )

    @pytest.mark.parametrize("model, snrs", [
        (phase_noise_model(), [1e4, 1.4e306, 1e308, sys.float_info.max]),
        (onoff_model(0.0625), [1e4, 1e308, sys.float_info.max]),
        (rayleigh_band_model(0.1), [1e300, 1.7e308]),
    ], ids=["phase", "onoff", "rayleigh"])
    def test_sweep_and_report(self, model, snrs):
        low, up = bound_sweep(model, snrs)
        for (snr, lb), u_star, ub in zip(low.points, low.params, up.values):
            if model.law == "unit":
                assert lb == pytest.approx(decimal_phase_lower(snr), rel=1e-15)
                assert math.isfinite(ub)
            else:
                assert lb == pytest.approx(decimal_threshold_lower(
                    model.law, model.spectrum, snr, u_star), rel=1e-15)
                assert ub == pytest.approx(decimal_coherent_upper(
                    1.0 - model.mass_at_zero, snr), rel=1e-15)
        report = prelog_report(model, snrs)
        assert report.finite_ratios == tuple(
            (snr, max(lb / math.log(snr), 0.0)) for snr, lb in low.points
        )


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
    def test_report_is_a_plain_record(self):
        # the limits are snr -> infinity values, so a record holds any ratio
        report = PrelogReport(analytic_limit=0.2, finite_ratios=((1e4, 0.5),),
                              upper_prelog=0.2, floored=(False,), upsilon_star=(None,))
        assert report.finite_ratios == ((1e4, 0.5),)

    @pytest.mark.parametrize("model", [rayleigh_band_model(0.1), onoff_model(1 / 16)],
                             ids=["rayleigh", "onoff"])
    def test_lower_above_upper_rejected(self, monkeypatch, model):
        monkeypatch.setattr(bounds, "coherent_avg_upper_bound", lambda model, snr: -1.0)
        with pytest.raises(NumericError, match="exceeds upper bound"):
            prelog_report(model, [1e4, 1e6])
