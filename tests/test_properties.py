"""Properties over drawn spectra, laws, snr grids and sample paths.

Sizes stay small (at most 6 snr points, n <= 64 for Toeplitz matrices,
first rows of at most 1024 lags for the Schur recursion, paths of at
most 40000 samples and 300 lags, or a dozen examples on one path of 3e5
samples, synthesized paths of at most 1e5 samples, phasor paths of at
most about 2e5 samples) so the tier1 profile's fixed examples keep
Tier-1 fast.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from prelog_lab import processes  # noqa: E402
from prelog_lab.bounds import (  # noqa: E402
    FadingModel,
    bound_sweep,
    onoff_model,
    phase_noise_model,
    rayleigh_band_model,
)
from prelog_lab.spectra import (  # noqa: E402
    SpectralDensity,
    _autocovariance_row,
    autocovariance,
    autocovariance_sequence,
    make_onoff_spectrum,
    make_rect_band,
)
from prelog_lab.toeplitz import _innovation_variances, szego_logdet_rate  # noqa: E402

from oracles import (  # noqa: E402
    FLOOR_SPECTRUM,
    LONG_DOUBLE_IS_EXTENDED,
    complex_innovation_variances,
    direct_autocov,
    exact_harmonic_sum,
    random_density,
    symmetric_density,
    toeplitz_matrix,
    unit_phasors,
    variance_bits,
    whole_table_synthesis,
)

seeds = st.integers(0, 2**32 - 1)
snr_grids = st.lists(st.floats(1e-3, 1e6), min_size=1, max_size=6, unique=True).map(sorted)


@given(seeds, st.sampled_from(["rayleigh", "onoff"]), snr_grids)
def test_lower_bound_never_exceeds_upper(seed, law, snr_grid):
    S = random_density(np.random.default_rng(seed), unit_variance=True)
    low, up = bound_sweep(FadingModel(f"random:{seed}", S, law), snr_grid)
    for lb, ub in zip(low.values, up.values):
        assert lb <= ub


@given(seeds, st.integers(1, 64), st.floats(1.0, 1e6))
def test_levinson_rate_matches_slogdet(seed, n, snr):
    S = random_density(np.random.default_rng(seed))
    row = np.asarray(autocovariance_sequence(S, n - 1).values)
    sign, logdet = np.linalg.slogdet(np.eye(n) + snr * toeplitz_matrix(row))
    assert sign.real > 0
    r0 = row[0].real
    assert abs(szego_logdet_rate(S, snr, n) - logdet / n) <= 1e-13 * snr * max(1.0, r0)


# snr from 1 to 1e15, where rows near a spectral zero stop being positive
# definite; the real part drops the 1e-17 imaginary residues a symmetric
# random spectrum leaves on its row
@given(seeds, st.integers(1, 1024), st.floats(0.0, 15.0))
@example(seed=1, n=1024, log_snr=15.0)
@example(seed=2, n=2, log_snr=0.0)
def test_real_schur_route_is_the_complex_recursion(seed, n, log_snr):
    S = symmetric_density(np.random.default_rng(seed))
    row = 10.0**log_snr * _autocovariance_row(S, n - 1).real
    row[0] += 1.0
    assert (variance_bits(_innovation_variances, row)
            == variance_bits(complex_innovation_variances, row))


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.complex128).tobytes()


# W = 1/2 and symmetric bands, where the real part of every phase
# difference is exactly 0; on-off spectra; the density floor, whose three
# nonzero segments share their edges; and random densities
spectra_for_rows = (
    st.sampled_from([make_rect_band(0.5), make_rect_band(0.25), make_rect_band(0.1),
                     make_rect_band(1e-3, variance=3.0), make_onoff_spectrum(0.0625),
                     make_onoff_spectrum(0.2), SpectralDensity.from_json(FLOOR_SPECTRUM)])
    | seeds.map(lambda seed: random_density(np.random.default_rng(seed))))


@given(spectra_for_rows, st.integers(0, 2048))
@example(S=make_rect_band(0.5), m_max=0)
@example(S=make_onoff_spectrum(0.0625), m_max=2048)
@example(S=SpectralDensity.from_json(FLOOR_SPECTRUM), m_max=2048)
@example(S=random_density(np.random.default_rng(5)), m_max=2047)
def test_autocovariance_row_is_the_scalar_closed_form(S, m_max):
    row = _autocovariance_row(S, m_max)
    want = np.array([autocovariance(S, m) for m in range(m_max + 1)], dtype=np.complex128)
    assert row.shape == want.shape
    # re and im as integers: every bit, the sign of zero included
    assert np.array_equal(row.real.view(np.uint64), want.real.view(np.uint64))
    assert np.array_equal(row.imag.view(np.uint64), want.imag.view(np.uint64))
    assert autocovariance_sequence(S, m_max).values == tuple(want.tolist())


@given(seeds, st.integers(1, 200_000))
def test_blocked_pairwise_sum_is_numpy_sum(seed, length):
    # guards the split rule empirical_autocov copies from numpy's pairwise sum
    rng = np.random.default_rng(seed)
    scale = np.exp(rng.uniform(-30.0, 30.0, length))
    x = (rng.standard_normal(length) + 1j * rng.standard_normal(length)) * scale

    def block_sum(start, count):
        return np.add.reduce(x[start:start + count], initial=0j)

    assert _bits(processes._pairwise_sum(block_sum, length)) == _bits(np.sum(x))


_PATH_LEN = 40_000


@pytest.fixture(scope="module")
def law_paths():
    """One long path per law; examples take slices of them."""
    models = {"rayleigh": rayleigh_band_model(0.1), "onoff": onoff_model(1 / 16),
              "unit": phase_noise_model()}
    return {law: processes.simulate_model(model, _PATH_LEN, 3).values
            for law, model in models.items()}


@given(st.sampled_from(["rayleigh", "onoff", "unit"]),
       # lengths next to 16384 put n - m on both sides of numpy's elision size
       st.integers(1, _PATH_LEN) | st.integers(16_384 - 8, 16_384 + 300),
       st.integers(0, 300), st.integers(0, _PATH_LEN))
@example(law="rayleigh", n=5000, m_max=300, offset=0)  # every lag shorter than 16384
@example(law="onoff", n=16_389, m_max=10, offset=11)  # n - m crosses 16384
@example(law="unit", n=3, m_max=2, offset=5)
def test_empirical_autocov_is_direct_sum(law_paths, law, n, m_max, offset):
    offset = min(offset, _PATH_LEN - n)
    path = processes.SamplePath(law_paths[law][offset:offset + n], 0)
    m_max = min(m_max, n - 1)
    got = processes.empirical_autocov(path, m_max).values
    assert _bits(got) == _bits(direct_autocov(path.values, m_max))


_LONG_LEN = 300_000


@pytest.fixture(scope="module")
def long_path():
    """A path spanning several conjugation windows of the lag schedule."""
    return processes.simulate_model(rayleigh_band_model(0.1), _LONG_LEN, 4).values


def _near_multiples(step: int):
    return st.tuples(st.integers(1, _LONG_LEN // step), st.integers(-8, 8)).map(
        lambda t: min(t[0] * step + t[1], _LONG_LEN))


# n next to a multiple of the leaf or the window length; n - m on both
# sides of numpy's elision size within one call; and short paths, where
# m_max is mostly n - 1
@settings(max_examples=12)
@given(_near_multiples(processes._SUM_BLOCK) | _near_multiples(processes._SUM_WINDOW)
       | st.integers(processes._ELIDE_LEN - 8, processes._ELIDE_LEN + 300)
       | st.integers(1, 64),
       st.integers(0, 300), st.integers(0, _LONG_LEN))
@example(n=_LONG_LEN, m_max=300, offset=0)
@example(n=processes._ELIDE_LEN + 1, m_max=processes._ELIDE_LEN, offset=7)
def test_lag_schedule_is_direct_sum(long_path, n, m_max, offset):
    offset = min(offset, _LONG_LEN - n)
    path = processes.SamplePath(long_path[offset:offset + n], 0)
    m_max = min(m_max, n - 1)
    got = processes.empirical_autocov(path, m_max).values
    assert _bits(got) == _bits(direct_autocov(path.values, m_max))


# lengths 1 to 40, odd and even, which take the floor grid; powers of
# two and their neighbours, whose grids hold about 2 or 4 times the path;
# and lengths up to 1e5
synthesis_lengths = (st.integers(1, 40)
                     | st.integers(2, 16).flatmap(
                         lambda p: st.sampled_from([2**p - 1, 2**p, 2**p + 1]))
                     | st.integers(2050, 100_000))


def _assert_as_exact(got, table, lam, amp, ks) -> None:
    """At the samples ks, got's largest error against the exact-phase sum
    is at most the table product's, or 1e-14."""
    exact = exact_harmonic_sum(lam, amp, ks)
    err = np.max(np.abs(got[ks] - exact))
    assert err <= max(np.max(np.abs(table[ks] - exact)), 1e-14), err


@pytest.mark.skipif(not LONG_DOUBLE_IS_EXTENDED,
                    reason="the exact-phase sum needs an extended long double")
@settings(max_examples=24)
@given(seeds, synthesis_lengths)
@example(seed=1, n=1)
@example(seed=2, n=2)
@example(seed=3, n=3)
@example(seed=4, n=16)
@example(seed=5, n=4095)  # a grid of 2n points
@example(seed=6, n=100_000)
def test_synthesis_is_as_exact_as_the_table_product(seed, n):
    rng = np.random.default_rng(seed)
    S = random_density(rng, unit_variance=True)
    ks = np.unique(np.concatenate(([0, n - 1], rng.integers(0, n, 16))))
    lam, amp = processes._harmonics(S, seed)
    got = processes.simulate_gaussian(S, n, seed).values
    _assert_as_exact(got, whole_table_synthesis(lam, amp, n), lam, amp, ks)

    W = 1 / 8
    lam, amp = processes._harmonics(make_rect_band(W, variance=2.0), seed)
    table = whole_table_synthesis(lam, amp, n)
    parity = int(processes.stream_rng(seed, processes.STREAM_PARITY).integers(0, 2))
    for off in (parity, 1 - parity):
        got = (processes.simulate_onoff(W, n, seed).values if off == parity
               else processes._synthesize(lam, amp, n, off))
        zeros = got[off::2]
        assert _bits(zeros) == bytes(16 * zeros.size)  # +0.0, not computed
        kept = np.arange(1 - off, n, 2)
        if kept.size:  # its first and last samples, and those of ks it keeps
            _assert_as_exact(got, table, lam, amp, np.union1d(
                kept[[0, -1]], ks[ks % 2 != off]))


def _kept_in_rounds(seed: int, stream: int, rounds: int) -> int:
    """Exactly-unit phasors among the first rounds * _PHASOR_BLOCK angles."""
    theta = processes.stream_rng(seed, stream).uniform(
        -np.pi, np.pi, rounds * processes._PHASOR_BLOCK)
    return int(np.count_nonzero(np.abs(np.cos(theta) + 1j * np.sin(theta)) == 1.0))


# n next to the phasors kept from 0, 1 or 2 whole rounds of angles, so a
# path ends just before, at or just after the end of a round, or anywhere
@settings(max_examples=24)
@given(seeds, st.integers(0, 2), st.integers(-2, 2) | st.integers(1, 100_000))
@example(seed=0, rounds=1, offset=0)
@example(seed=0, rounds=1, offset=1)
@example(seed=1, rounds=2, offset=-1)
def test_unit_phasors_are_the_stream_s_first(seed, rounds, offset):
    for stream, draw in (
        (processes.STREAM_PHASE, lambda n: processes.simulate_phase_noise(n, seed).values),
        (processes.STREAM_TAIL_MC, lambda n: processes.marginal_draws(phase_noise_model(), n, seed)),
    ):
        n = max(1, _kept_in_rounds(seed, stream, rounds) + offset)
        want = unit_phasors(processes.stream_rng(seed, stream), n)
        assert _bits(draw(n)) == _bits(want)
