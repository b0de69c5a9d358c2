"""Acceptance gate: eight criteria, one test each, with runtime budgets.

Each test pins the tolerances the project ships with; the conftest hook
prints a PASS/FAIL line per criterion in the terminal summary.  Headline
pre-log statements are snr -> infinity limits, so the finite-snr criteria
check exact closed forms plus convergence behavior, never the limits
themselves.
"""

import math
import time

import numpy as np

from prelog_lab.bounds import (
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
    FadingModel,
    prelog_report,
    rayleigh_band_model,
)
from prelog_lab.processes import (
    empirical_autocov,
    simulate_gaussian,
    simulate_onoff,
    simulate_phase_noise,
    tail_probability,
    tail_probability_mc,
)
from prelog_lab.spectra import (
    autocovariance_sequence,
    make_rect_band,
    sinc,
    spectral_log_integral,
    zero_set_measure,
)
from prelog_lab.toeplitz import hermitian_eigenvalues, szego_gap, szego_logdet_rate

from oracles import eig_oracle, quad_log_integral, random_density, toeplitz_matrix


def test_criterion_1_masspoint_gap():
    t0 = time.perf_counter()
    model = onoff_model(1 / 16)
    upper = masspoint_prelog_upper(model)
    measure = zero_set_measure(model.spectrum)
    elapsed = time.perf_counter() - t0
    assert upper == 0.5
    assert measure == 0.75
    assert upper < measure
    assert elapsed < 1e-3


def test_criterion_2_phase_noise_slope_and_ordering():
    t0 = time.perf_counter()
    slope = (phase_noise_lower_bound(1e12) - phase_noise_lower_bound(1e4)) / (
        math.log(1e12) - math.log(1e4)
    )
    assert abs(slope - 0.5) <= 0.005
    ratio = phase_noise_upper_bound(1e12) / math.log(1e12)
    assert abs(ratio - 0.5) <= 0.03
    grid = [10.0 ** (k / 2.0) for k in range(4, 25)]  # 1e2 .. 1e12
    for snr in grid:
        assert phase_noise_lower_bound(snr) <= phase_noise_upper_bound(snr)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1e-2


def test_criterion_3_szego_convergence():
    t0 = time.perf_counter()
    S = make_rect_band(0.25)
    rate512 = szego_logdet_rate(S, 100.0, 512)
    assert abs(rate512 - 2.6516) <= 0.05
    gaps = dict(szego_gap(S, 100.0, [64, 512]))
    assert gaps[512] < gaps[64]
    # the integral itself is the frozen closed form
    assert spectral_log_integral(S, 100.0) == 2.651652454029538
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0


def test_criterion_4_prelog_trajectory():
    t0 = time.perf_counter()
    report = prelog_report(rayleigh_band_model(0.1), [1e4, 1e6, 1e8, 1e10])
    assert report.analytic_limit == 0.8
    ratios = [r for _, r in report.finite_ratios]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))
    assert all(r <= 0.8 + 0.02 for r in ratios)
    assert ratios[-1] > 0.4
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0


def test_criterion_5_bound_ordering_random_models():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    snrs = [10.0 ** k for k in range(2, 10)]
    ugrid = default_upsilon_grid()
    for i in range(20):
        model = FadingModel(
            f"random-{i}",
            random_density(rng, unit_variance=True, force_zero_band=True),
            "rayleigh",
        )
        for snr in snrs:
            _, lb = optimize_upsilon(model, snr, ugrid)
            assert lb <= coherent_avg_upper_bound(model, snr) + 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0


def test_criterion_6_simulation_consistency():
    t0 = time.perf_counter()
    n = 100_000
    W = 1 / 16

    onoff = simulate_onoff(W, n, seed=7)
    frac = float(np.mean(np.abs(onoff.values) > 0))
    assert abs(frac - 0.5) <= 0.01
    emp = empirical_autocov(onoff, 2)
    assert abs(emp.values[1]) <= 0.02
    assert abs(emp.values[2] - sinc(4 * W)) <= 0.02

    phase = simulate_phase_noise(n, seed=3)
    assert np.max(np.abs(np.abs(phase.values) - 1.0)) == 0.0

    iid = simulate_gaussian(make_rect_band(0.5), n, seed=11)
    r0 = empirical_autocov(iid, 0).values[0].real
    assert abs(r0 - 1.0) <= 0.02

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0


def test_criterion_7_oracle_equivalence():
    t0 = time.perf_counter()

    # Hermitian eigenvalues vs the general LAPACK oracle at n <= 8
    rng = np.random.default_rng(99)
    for n in range(2, 9):
        for _ in range(4):
            row = np.concatenate(
                ([2.0], 0.4 * (rng.normal(size=n - 1) + 1j * rng.normal(size=n - 1)))
            )
            A = toeplitz_matrix(row)
            assert np.max(np.abs(hermitian_eigenvalues(A) - eig_oracle(A))) <= 1e-8

    # closed-form spectral log-integral vs adaptive quadrature, 100 densities
    for _ in range(100):
        S = random_density(rng)
        snr = float(10 ** rng.uniform(-1, 6))
        assert abs(spectral_log_integral(S, snr) - quad_log_integral(S, snr)) <= 1e-9

    # Levinson rate == (1/n) sum log1p(snr eig) == slogdet / n, 20 random cases
    for _ in range(20):
        S = random_density(rng, force_zero_band=True)
        snr = float(10 ** rng.uniform(0, 4))
        n = int(rng.integers(2, 129))
        T = toeplitz_matrix(autocovariance_sequence(S, n - 1).values)
        rate = szego_logdet_rate(S, snr, n)
        eig_rate = float(np.sum(np.log1p(snr * eig_oracle(T)))) / n
        sign, logdet = np.linalg.slogdet(np.eye(n) + snr * T)
        assert sign.real > 0
        assert abs(rate - eig_rate) <= 1e-8
        assert abs(rate - logdet / n) <= 1e-8

    # closed-form tails vs Monte Carlo at 1e6 draws, four thresholds per model
    n_mc = 1_000_000
    for model in (rayleigh_band_model(0.1), onoff_model(1 / 16)):
        draws_checked = 0
        for ups in (0.25, 0.5, 1.0, 2.0):
            p = tail_probability(model, ups)
            p_hat = tail_probability_mc(model, ups, n_samples=n_mc, seed=17)
            sigma = math.sqrt(p * (1 - p) / n_mc)
            assert abs(p_hat - p) <= 3 * sigma
            draws_checked += 1
        assert draws_checked == 4
    # unit-modulus tails are deterministic: the estimate must be exact
    phase = phase_noise_model()
    for ups in (0.25, 0.5, 1.0, 2.0):
        p = tail_probability(phase, ups)
        p_hat = tail_probability_mc(phase, ups, n_samples=n_mc, seed=17)
        assert p_hat == p

    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0


def test_criterion_8_miso():
    t0 = time.perf_counter()
    spectra = [make_rect_band(0.1), make_rect_band(0.2)]
    value = miso_prelog_lower(spectra)
    assert value == 0.8
    per_antenna = max(
        prelog_lower_bound(rayleigh_band_model(0.1)),
        prelog_lower_bound(rayleigh_band_model(0.2)),
    )
    assert value == per_antenna
    elapsed = time.perf_counter() - t0
    assert elapsed < 1e-3
