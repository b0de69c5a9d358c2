"""Covariance construction, Hermitian eigenvalues, and the Levinson Szego rate."""

import math

import numpy as np
import pytest

from prelog_lab.errors import DomainError, NumericError
from prelog_lab.spectra import (
    autocovariance_sequence,
    make_piecewise,
    make_rect_band,
    sinc,
    spectral_log_integral,
)
from prelog_lab.toeplitz import (
    ToeplitzCov,
    _innovation_variances,
    covariance_matrix,
    hermitian_eigenvalues,
    szego_gap,
    szego_logdet_rate,
)

from oracles import eig_oracle, random_density, toeplitz_matrix


def random_toeplitz(rng, n, decay=0.3):
    r = np.concatenate(
        ([1.5], decay * (rng.normal(size=n - 1) + 1j * rng.normal(size=n - 1)) / np.arange(1, n))
    )
    return ToeplitzCov(tuple(r), n)


class TestCovarianceMatrix:
    def test_iid_gives_identity(self):
        seq = autocovariance_sequence(make_rect_band(0.5), 3)
        M = covariance_matrix(seq, 4).matrix()
        assert np.allclose(M, np.eye(4), atol=1e-12)

    def test_two_by_two_band(self):
        W = 0.2
        seq = autocovariance_sequence(make_rect_band(W), 1)
        M = covariance_matrix(seq, 2).matrix()
        c = sinc(2 * W)
        assert M == pytest.approx(np.array([[1.0, c], [c, 1.0]]), abs=1e-12)

    def test_dimension_guards(self):
        seq = autocovariance_sequence(make_rect_band(0.5), 3)
        with pytest.raises(DomainError):
            covariance_matrix(seq, 0)
        with pytest.raises(DomainError):
            covariance_matrix(seq, 5)

    def test_matrix_is_hermitian_and_matches_oracle_layout(self):
        rng = np.random.default_rng(3)
        cov = random_toeplitz(rng, 6)
        M = cov.matrix()
        assert np.array_equal(M, M.conj().T)
        assert np.allclose(M, toeplitz_matrix(cov.first_row), atol=1e-12)

    def test_r0_must_be_real_positive(self):
        with pytest.raises(DomainError):
            ToeplitzCov((1.0 + 0.5j, 0.1 + 0j), 2)
        with pytest.raises(DomainError):
            ToeplitzCov((-1.0 + 0j, 0.1 + 0j), 2)


class TestEigensolver:
    def test_identity(self):
        seq = autocovariance_sequence(make_rect_band(0.5), 4)
        vals = hermitian_eigenvalues(covariance_matrix(seq, 5))
        assert vals == pytest.approx(np.ones(5), abs=1e-12)

    def test_two_by_two_closed_form(self):
        c = 0.37
        cov = ToeplitzCov((1.0, c), 2)
        vals = hermitian_eigenvalues(cov)
        assert vals == pytest.approx([1 - c, 1 + c], abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    def test_matches_oracle_small(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(5):
            cov = random_toeplitz(rng, n)
            mine = hermitian_eigenvalues(cov)
            ora = eig_oracle(cov.matrix())
            assert np.max(np.abs(mine - ora)) <= 1e-8

    def test_matches_oracle_medium(self):
        rng = np.random.default_rng(7)
        cov = random_toeplitz(rng, 48)
        assert np.max(np.abs(hermitian_eigenvalues(cov) - eig_oracle(cov.matrix()))) <= 1e-8

    def test_general_hermitian_array(self):
        rng = np.random.default_rng(23)
        A = rng.normal(size=(10, 10)) + 1j * rng.normal(size=(10, 10))
        A = (A + A.conj().T) / 2
        assert np.max(np.abs(hermitian_eigenvalues(A) - eig_oracle(A))) <= 1e-8

    def test_non_hermitian_rejected(self):
        A = np.array([[1.0, 2.0], [0.5, 1.0]], dtype=np.complex128)
        with pytest.raises(NumericError):
            hermitian_eigenvalues(A)

    def test_trace_conservation(self):
        rng = np.random.default_rng(29)
        for n in (3, 9, 33):
            cov = random_toeplitz(rng, n)
            vals = hermitian_eigenvalues(cov)
            r0 = cov.first_row[0].real
            assert np.sum(vals) == pytest.approx(n * r0, rel=1e-8)

    def test_interlacing_against_oracle(self):
        rng = np.random.default_rng(31)
        for n in (4, 8, 16):
            cov = random_toeplitz(rng, n)
            big = hermitian_eigenvalues(cov)
            small = hermitian_eigenvalues(covariance_matrix_like(cov, n - 1))
            assert np.allclose(big, eig_oracle(cov.matrix()), atol=1e-8)
            for k in range(n - 1):
                assert big[k] <= small[k] + 1e-10
                assert small[k] <= big[k + 1] + 1e-10

    def test_psd_from_spectra(self):
        rng = np.random.default_rng(37)
        for _ in range(5):
            S = random_density(rng)
            seq = autocovariance_sequence(S, 23)
            vals = hermitian_eigenvalues(covariance_matrix(seq, 24))
            assert vals[0] >= -1e-9 * S.variance


def covariance_matrix_like(cov: ToeplitzCov, n: int) -> ToeplitzCov:
    # leading principal submatrix of a Toeplitz matrix is Toeplitz
    return ToeplitzCov(cov.first_row[:n], n)


class TestSzego:
    def test_iid_rate_exact_any_n(self):
        S = make_rect_band(0.5)
        for n in (1, 2, 9, 40):
            assert szego_logdet_rate(S, 50.0, n) == pytest.approx(
                math.log1p(50.0), rel=1e-12
            )

    def test_n1_is_single_log(self):
        S = make_rect_band(0.2)
        assert szego_logdet_rate(S, 7.0, 1) == pytest.approx(math.log1p(7.0), rel=1e-12)

    def test_rate_approaches_integral(self):
        S = make_rect_band(0.25)
        target = spectral_log_integral(S, 100.0)
        rate = szego_logdet_rate(S, 100.0, 128)
        assert abs(rate - target) < 0.1

    def test_gap_shrinks_with_n(self):
        S = make_rect_band(0.25)
        gaps = dict(szego_gap(S, 100.0, [16, 128]))
        assert gaps[128] < gaps[16]
        assert dict(szego_gap(make_rect_band(0.5), 100.0, [8, 32]))[32] == pytest.approx(
            0.0, abs=1e-12
        )

    def test_snr_guard(self):
        for snr in (0.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                szego_logdet_rate(make_rect_band(0.25), snr, 8)

    def test_large_n_needs_no_cap(self):
        S = make_rect_band(0.25)
        rate = szego_logdet_rate(S, 100.0, 8192)
        assert abs(rate - spectral_log_integral(S, 100.0)) < 0.005


# unit-variance spectra with zero bands on the 1/64 grid on which an
# iterative eigensolver stalls; the rate must still match the determinant
STALLING_SPECTRA = {
    512: [
        (-0.5, -0.40625, 0.0),
        (-0.40625, -0.3125, 0.0),
        (-0.3125, -0.234375, 1.1168577015800765),
        (-0.234375, -0.15625, 5.697340482497893),
        (-0.15625, 0.109375, 0.0),
        (0.109375, 0.40625, 0.0),
        (0.40625, 0.5, 4.988168179935027),
    ],
    1024: [
        (-0.5, -0.453125, 11.849899544119253),
        (-0.453125, -0.34375, 0.0),
        (-0.34375, -0.015625, 0.0),
        (-0.015625, 0.21875, 0.0),
        (0.21875, 0.40625, 2.37085844730352),
        (0.40625, 0.5, 0.0),
    ],
}


class TestLevinson:
    @pytest.mark.parametrize("snr", [1e2, 1e6])
    @pytest.mark.parametrize("n", sorted(STALLING_SPECTRA))
    def test_rate_matches_slogdet(self, n, snr):
        S = make_piecewise(STALLING_SPECTRA[n])
        cov = covariance_matrix(autocovariance_sequence(S, n - 1), n)
        sign, logdet = np.linalg.slogdet(np.eye(n) + snr * cov.matrix())
        assert sign.real > 0
        r0 = cov.first_row[0].real
        assert abs(szego_logdet_rate(S, snr, n) - logdet / n) <= 1e-13 * snr * max(1.0, r0)

    def test_zero_band_at_huge_snr(self):
        # prediction is nearly perfect, so reflection coefficients approach 1
        # in modulus; the innovation variances still never drop below the
        # unit noise floor by more than rounding
        snr = 1e12
        S = make_rect_band(0.1)
        row = snr * np.asarray(autocovariance_sequence(S, 255).values)
        row[0] += 1.0
        P = _innovation_variances(row)
        assert np.all(P >= 1 - 1e-9)
        assert math.isfinite(szego_logdet_rate(S, snr, 256))

    def test_indefinite_row_is_numeric_error(self):
        with pytest.raises(NumericError):
            _innovation_variances(np.array([1.0, 2.0, 0.5]))
