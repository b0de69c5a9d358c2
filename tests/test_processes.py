"""Sample-path laws and path file formats."""

import math

import numpy as np
import pytest

from prelog_lab.bounds import (
    FadingModel,
    onoff_model,
    phase_noise_model,
    rayleigh_band_model,
)
from prelog_lab.errors import DomainError
from prelog_lab.processes import (
    empirical_autocov,
    marginal_draws,
    read_path_binary,
    simulate_gaussian,
    simulate_model,
    simulate_onoff,
    simulate_phase_noise,
    tail_probability,
    tail_probability_mc,
    write_path_binary,
    write_path_csv,
)
from prelog_lab.spectra import autocovariance, make_piecewise, make_rect_band, sinc


class TestReproducibility:
    def test_gaussian_bit_identical(self):
        S = make_rect_band(0.2)
        a = simulate_gaussian(S, 512, 99)
        b = simulate_gaussian(S, 512, 99)
        assert np.array_equal(a.values, b.values)
        c = simulate_gaussian(S, 512, 100)
        assert not np.array_equal(a.values, c.values)

    def test_onoff_and_phase_bit_identical(self):
        assert np.array_equal(
            simulate_onoff(0.1, 256, 5).values, simulate_onoff(0.1, 256, 5).values
        )
        assert np.array_equal(
            simulate_phase_noise(256, 5).values, simulate_phase_noise(256, 5).values
        )


class TestGaussianPath:
    def test_iid_empirical_covariance(self):
        path = simulate_gaussian(make_rect_band(0.5), 100_000, 1)
        emp = empirical_autocov(path, 1)
        assert emp.values[0].real == pytest.approx(1.0, abs=0.02)
        assert abs(emp.values[1]) <= 0.02

    def test_band_empirical_covariance_all_lags(self):
        S = make_rect_band(0.15)
        n = 100_000
        path = simulate_gaussian(S, n, 2)
        emp = empirical_autocov(path, 8)
        tol = 5.0 / math.sqrt(n)
        for m in range(9):
            want = autocovariance(S, m)
            assert abs(emp.values[m] - want) <= tol

    def test_single_sample(self):
        path = simulate_gaussian(make_rect_band(0.25), 1, 4)
        assert path.n == 1
        assert path.model_name.startswith("gaussian:")

    def test_guards(self):
        with pytest.raises(DomainError):
            simulate_gaussian(make_rect_band(0.25), 0, 1)


class TestOnoffPath:
    def test_one_parity_class_is_zero(self):
        for seed in range(6):
            path = simulate_onoff(1 / 16, 2001, seed)
            even_zero = np.all(path.values[0::2] == 0)
            odd_zero = np.all(path.values[1::2] == 0)
            assert even_zero != odd_zero  # exactly one class dies
            live = path.values[1::2] if even_zero else path.values[0::2]
            assert np.all(np.abs(live) > 0)

    def test_both_parities_occur(self):
        kinds = set()
        for seed in range(12):
            path = simulate_onoff(1 / 16, 100, seed)
            kinds.add(bool(np.all(path.values[0::2] == 0)))
        assert kinds == {True, False}

    def test_nonzero_fraction(self):
        path = simulate_onoff(1 / 16, 100_000, 7)
        frac = np.mean(np.abs(path.values) > 0)
        assert abs(frac - 0.5) <= 0.01

    def test_empirical_covariance(self):
        W = 1 / 16
        n = 100_000
        path = simulate_onoff(W, n, 7)
        emp = empirical_autocov(path, 4)
        assert abs(emp.values[1]) <= 0.02
        assert abs(emp.values[2] - sinc(4 * W)) <= 0.02
        # closed form through the spectrum agrees with the product law
        assert autocovariance(onoff_model(W).spectrum, 2).real == pytest.approx(
            sinc(4 * W), abs=1e-12
        )

    def test_guards(self):
        with pytest.raises(DomainError):
            simulate_onoff(0.3, 100, 1)
        with pytest.raises(DomainError):
            simulate_onoff(1 / 16, 0, 1)


class TestPhaseNoisePath:
    def test_unit_modulus_exact(self):
        path = simulate_phase_noise(100_000, 3)
        assert np.max(np.abs(np.abs(path.values) - 1.0)) == 0.0

    def test_mean_small(self):
        n = 100_000
        path = simulate_phase_noise(n, 4)
        assert abs(np.mean(path.values)) <= 3.0 / math.sqrt(n) * 2

    def test_lags_vanish(self):
        path = simulate_phase_noise(100_000, 5)
        emp = empirical_autocov(path, 4)
        assert emp.values[0].real == pytest.approx(1.0, abs=0.02)
        for m in (1, 2, 3, 4):
            assert abs(emp.values[m]) <= 0.02


class TestErgodicAverages:
    @pytest.mark.parametrize(
        "path_fn",
        [
            lambda: simulate_gaussian(make_rect_band(0.1), 1_000_000, 11),
            lambda: simulate_onoff(1 / 16, 1_000_000, 11),
            lambda: simulate_phase_noise(1_000_000, 11),
        ],
        ids=["gaussian-band", "onoff", "phase"],
    )
    def test_power_time_average(self, path_fn):
        path = path_fn()
        assert np.mean(np.abs(path.values) ** 2) == pytest.approx(1.0, abs=0.01)


class TestTails:
    def test_closed_forms(self):
        assert tail_probability(rayleigh_band_model(0.1), 1.0) == pytest.approx(
            math.exp(-1), abs=1e-15
        )
        assert tail_probability(phase_noise_model(), 0.5) == 1.0
        assert tail_probability(onoff_model(1 / 16), 1.0) == pytest.approx(
            0.5 * math.exp(-0.5), abs=1e-15
        )

    def test_guard(self):
        model = rayleigh_band_model(0.1)
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                tail_probability(model, bad)
            with pytest.raises(DomainError):
                tail_probability_mc(model, bad, n_samples=16)

    @pytest.mark.parametrize(
        "model", [rayleigh_band_model(0.1), onoff_model(1 / 16)], ids=["rayleigh", "onoff"]
    )
    def test_monte_carlo_agreement_small(self, model):
        # quick 1e5-draw version; the acceptance suite reruns this at 1e6
        n = 100_000
        for ups in (0.5, 1.0, 2.0):
            p = tail_probability(model, ups)
            p_hat = tail_probability_mc(model, ups, n_samples=n, seed=21)
            sigma = math.sqrt(p * (1 - p) / n)
            assert abs(p_hat - p) <= 3 * sigma + 1e-9

    def test_marginal_draw_laws(self):
        n = 50_000
        r = marginal_draws(rayleigh_band_model(0.2), n, 1)
        assert np.mean(np.abs(r) ** 2) == pytest.approx(1.0, abs=0.05)
        o = marginal_draws(onoff_model(0.1), n, 2)
        assert np.mean(np.abs(o) > 0) == pytest.approx(0.5, abs=0.02)
        assert np.mean(np.abs(o) ** 2) == pytest.approx(1.0, abs=0.05)
        u = marginal_draws(phase_noise_model(), n, 3)
        assert np.all(np.abs(u) == 1.0)


class TestEmpiricalAutocov:
    def test_constant_path_all_zero(self):
        from prelog_lab.processes import SamplePath

        # dyadic constant sums exactly, so the centered path is exactly zero
        path = SamplePath(np.full(64, 1.25 - 0.5j), "const", 0)
        emp = empirical_autocov(path, 5)
        assert all(v == 0 for v in emp.values)

    def test_guards(self):
        path = simulate_phase_noise(16, 1)
        with pytest.raises(DomainError):
            empirical_autocov(path, 16)
        with pytest.raises(DomainError):
            empirical_autocov(path, -1)


class TestModelDispatch:
    def test_law_paths_need_their_process_spectrum(self):
        v = 1 / 0.3
        uneven = make_piecewise([(-0.5, -0.45, v), (-0.45, -0.1, 0.0), (-0.1, 0.1, v),
                                 (0.1, 0.45, 0.0), (0.45, 0.5, v)])
        for law, S in [("unit", make_rect_band(0.1)), ("onoff", make_rect_band(0.1)),
                       ("onoff", make_rect_band(0.3)), ("onoff", uneven)]:
            with pytest.raises(DomainError):
                simulate_model(FadingModel("fake", S, law), 32, 1)

    def test_routes(self):
        assert simulate_model(phase_noise_model(), 32, 1).model_name == "phase-noise"
        on = simulate_model(onoff_model(1 / 8), 32, 1)
        assert on.model_name.startswith("onoff:")
        assert np.array_equal(on.values, simulate_onoff(1 / 8, 32, 1).values)
        g = simulate_model(rayleigh_band_model(0.2), 32, 1)
        assert np.array_equal(
            g.values, simulate_gaussian(make_rect_band(0.2), 32, 1).values
        )


class TestPathFiles:
    def test_binary_round_trip(self, tmp_path):
        src = simulate_gaussian(make_rect_band(0.3), 777, 123)
        fname = str(tmp_path / "p.bin")
        write_path_binary(src, fname)
        back = read_path_binary(fname)
        assert back.n == src.n
        assert back.seed == src.seed
        assert np.array_equal(back.values, src.values)

    def test_binary_truncation_detected(self, tmp_path):
        src = simulate_phase_noise(32, 1)
        fname = str(tmp_path / "p.bin")
        write_path_binary(src, fname)
        with open(fname, "r+b") as fh:
            fh.truncate(16 + 8 * 7)
        with pytest.raises(DomainError):
            read_path_binary(fname)

    def test_csv_layout(self, tmp_path):
        src = simulate_phase_noise(4, 2)
        fname = str(tmp_path / "p.csv")
        write_path_csv(src, fname)
        with open(fname) as fh:
            lines = fh.read().strip().split("\n")
        assert lines[0] == "k,re,im"
        assert len(lines) == 5
        k, re, im = lines[4].split(",")
        assert k == "3"
        assert complex(float(re), float(im)) == complex(src.values[3])
