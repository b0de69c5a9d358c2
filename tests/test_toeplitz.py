"""Covariance construction, Hermitian eigenvalues, and the Levinson Szego rate."""

import math
import warnings

import numpy as np
import pytest

from prelog_lab import toeplitz
from prelog_lab.errors import DomainError, NumericError
from prelog_lab.spectra import (
    AutocovarianceSeq,
    SpectralDensity,
    _autocovariance_row,
    autocovariance,
    autocovariance_sequence,
    make_onoff_spectrum,
    make_rect_band,
    spectral_log_integral,
)
from prelog_lab.toeplitz import (
    _innovation_variances,
    covariance_matrix,
    hermitian_eigenvalues,
    szego_logdet_rate,
)

from oracles import (
    complex_innovation_variances,
    eig_oracle,
    random_density,
    sinc,
    symmetric_density,
    toeplitz_matrix,
    variance_bits,
)


def random_row(rng, n, decay=0.3):
    """First row r(0..n-1) of a random Hermitian Toeplitz matrix."""
    return np.concatenate(
        ([1.5], decay * (rng.normal(size=n - 1) + 1j * rng.normal(size=n - 1)) / np.arange(1, n))
    )


class TestCovarianceMatrix:
    def test_iid_gives_identity(self):
        seq = autocovariance_sequence(make_rect_band(0.5), 3)
        M = covariance_matrix(seq, 4)
        assert np.allclose(M, np.eye(4), atol=1e-12)

    def test_two_by_two_band(self):
        W = 0.2
        seq = autocovariance_sequence(make_rect_band(W), 1)
        M = covariance_matrix(seq, 2)
        c = sinc(2 * W)
        assert M == pytest.approx(np.array([[1.0, c], [c, 1.0]]), abs=1e-12)

    def test_dimension_guards(self):
        seq = autocovariance_sequence(make_rect_band(0.5), 3)
        with pytest.raises(DomainError):
            covariance_matrix(seq, 0)
        with pytest.raises(DomainError):
            covariance_matrix(seq, 5)

    @pytest.mark.parametrize("n", [2.5, 3.0, "3", None])
    def test_dimension_that_is_not_an_integer(self, n):
        seq = autocovariance_sequence(make_rect_band(0.5), 3)
        with pytest.raises(DomainError) as error:
            covariance_matrix(seq, n)
        assert str(error.value) == f"dimension must be an integer in [1, 5), got {n}"

    def test_matrix_is_hermitian_and_matches_oracle_layout(self):
        rng = np.random.default_rng(3)
        row = random_row(rng, 6)
        M = covariance_matrix(AutocovarianceSeq(tuple(row)), 6)
        assert np.array_equal(M, M.conj().T)
        assert np.allclose(M, toeplitz_matrix(row), atol=1e-12)

    def test_r0_past_half_the_float_range(self):
        # the diagonal is r(0) itself: r(0) + conj(r(0)) would overflow
        row = _autocovariance_row(SpectralDensity([(-0.5, 0.5, 1.5e308)], 1.5e308), 5)
        M = covariance_matrix(AutocovarianceSeq(tuple(row)), 6)
        assert np.array_equal(M, toeplitz_matrix(row))
        assert np.array_equal(M.diagonal(), np.full(6, 1.5e308 + 0j))


class TestEigensolver:
    def test_identity(self):
        seq = autocovariance_sequence(make_rect_band(0.5), 4)
        vals = hermitian_eigenvalues(covariance_matrix(seq, 5))
        assert vals == pytest.approx(np.ones(5), abs=1e-12)

    def test_two_by_two_closed_form(self):
        c = 0.37
        vals = hermitian_eigenvalues(toeplitz_matrix([1.0, c]))
        assert vals == pytest.approx([1 - c, 1 + c], abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    def test_matches_oracle_small(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(5):
            A = toeplitz_matrix(random_row(rng, n))
            assert np.max(np.abs(hermitian_eigenvalues(A) - eig_oracle(A))) <= 1e-8

    def test_matches_oracle_medium(self):
        rng = np.random.default_rng(7)
        A = toeplitz_matrix(random_row(rng, 48))
        assert np.max(np.abs(hermitian_eigenvalues(A) - eig_oracle(A))) <= 1e-8

    def test_general_hermitian_array(self):
        rng = np.random.default_rng(23)
        A = rng.normal(size=(10, 10)) + 1j * rng.normal(size=(10, 10))
        A = (A + A.conj().T) / 2
        assert np.max(np.abs(hermitian_eigenvalues(A) - eig_oracle(A))) <= 1e-8

    def test_non_square_rejected(self):
        with pytest.raises(DomainError) as error:
            hermitian_eigenvalues(np.zeros((2, 3)))
        assert str(error.value) == "need a square matrix, got shape (2, 3)"

    def test_empty_rejected(self):
        with pytest.raises(DomainError) as error:
            hermitian_eigenvalues(np.ones((0, 0)))
        assert str(error.value) == "need a matrix of at least one entry, got shape (0, 0)"

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0, math.nan)], ids=repr)
    def test_non_finite_rejected(self, bad):
        # refused before the Hermitian check, which would warn on inf - inf
        for A in ([[bad]], [[1.0, bad], [bad, 1.0]]):
            with pytest.raises(DomainError) as error:
                hermitian_eigenvalues(np.array(A, dtype=np.complex128))
            assert str(error.value) == "matrix entries must be finite"

    def test_non_hermitian_rejected(self):
        A = np.array([[1.0, 2.0], [0.5, 1.0]], dtype=np.complex128)
        with pytest.raises(NumericError):
            hermitian_eigenvalues(A)

    def test_trace_conservation(self):
        rng = np.random.default_rng(29)
        for n in (3, 9, 33):
            row = random_row(rng, n)
            vals = hermitian_eigenvalues(toeplitz_matrix(row))
            assert np.sum(vals) == pytest.approx(n * row[0].real, rel=1e-8)

    def test_interlacing_against_oracle(self):
        rng = np.random.default_rng(31)
        for n in (4, 8, 16):
            row = random_row(rng, n)
            big = hermitian_eigenvalues(toeplitz_matrix(row))
            # leading principal submatrix of a Toeplitz matrix is Toeplitz
            small = hermitian_eigenvalues(toeplitz_matrix(row[:n - 1]))
            assert np.allclose(big, eig_oracle(toeplitz_matrix(row)), atol=1e-8)
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
        def gap(S, n):
            return abs(szego_logdet_rate(S, 100.0, n) - spectral_log_integral(S, 100.0))

        S = make_rect_band(0.25)
        assert gap(S, 128) < gap(S, 16)
        assert gap(make_rect_band(0.5), 32) == pytest.approx(0.0, abs=1e-12)

    def test_snr_guard(self):
        for snr in (0.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                szego_logdet_rate(make_rect_band(0.25), snr, 8)

    @pytest.mark.parametrize("n, message", [
        (0, "dimension must be an integer in [1, 2**59), got 0"),
        (-3, "dimension must be an integer in [1, 2**59), got -3"),
        (2.5, "dimension must be an integer in [1, 2**59), got 2.5"),
        (2**59, f"dimension must be an integer in [1, 2**59), got {2**59}"),
        (10**19, f"dimension must be an integer in [1, 2**59), got {10**19}"),
        # an int past the float range is shown in six digits, not its 401
        (10**400, "dimension must be an integer in [1, 2**59), got 1.000000e+400"),
        (-10**400, "dimension must be an integer in [1, 2**59), got -1.000000e+400"),
    ], ids=["0", "-3", "2.5", "2**59", "10**19", "10**400", "-10**400"])
    def test_dimension_guard(self, n, message):
        with pytest.raises(DomainError) as error:
            szego_logdet_rate(make_rect_band(0.25), 1e2, n)
        assert str(error.value) == message

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
        segments = STALLING_SPECTRA[n]
        S = SpectralDensity(segments, math.fsum((hi - lo) * v for lo, hi, v in segments))
        row = np.asarray(autocovariance_sequence(S, n - 1).values)
        sign, logdet = np.linalg.slogdet(np.eye(n) + snr * toeplitz_matrix(row))
        assert sign.real > 0
        r0 = row[0].real
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

    @pytest.mark.parametrize("row, p0", [([0.0], "0.0"), ([-1.0], "-1.0"), ([math.nan], "nan"),
                                         ([0.0, 0.0], "0.0"), ([-1.0, 0.5], "-1.0"),
                                         ([-1.0, 0.5j], "-1.0")])
    def test_nonpositive_r0_is_numeric_error_at_p0(self, row, p0):
        text = rf"^innovation variance P_0 = {p0} is not positive$"
        with pytest.raises(NumericError, match=text):
            _innovation_variances(np.array(row))


# the szego-sweep benchmark's spectra: its band, its on-off spectrum, and
# its custom spectrum (bench/oracle.random_spectrum of generator seed 2)
SWEEP_CUSTOM = ((-0.5, -0.40625, 0.34868133701027576),
                (-0.40625, -0.390625, 0.9542350934976439),
                (-0.390625, -0.265625, 2.0078217130557428),
                (-0.265625, -0.21875, 0.0), (-0.21875, -0.109375, 0.0),
                (-0.109375, -0.0625, 0.0), (-0.0625, 0.28125, 2.040504689999762),
                (0.28125, 0.5, 0.0))
SWEEP_SPECTRA = {
    "band": make_rect_band(0.25),
    "onoff": make_onoff_spectrum(0.0625),
    "custom": SpectralDensity(SWEEP_CUSTOM),
}


def per_lag_rate(S, snr, n):
    """The rate from the first row built one scalar autocovariance at a time,
    through the frozen complex recursion."""
    row = snr * np.array([autocovariance(S, m) for m in range(n)])
    row[0] += 1.0
    return float(np.mean(np.log(complex_innovation_variances(row))))


class TestArrayRow:
    @pytest.mark.parametrize("snr", [1e2, 1e6, 1e10])
    @pytest.mark.parametrize("n", [1, 2, 3, 16, 512, 1024])
    @pytest.mark.parametrize("name", sorted(SWEEP_SPECTRA))
    def test_rate_is_the_per_lag_rate(self, name, n, snr):
        S = SWEEP_SPECTRA[name]
        assert szego_logdet_rate(S, snr, n).hex() == per_lag_rate(S, snr, n).hex()

    @pytest.mark.parametrize("r1", [1.5, -1.5j, 0.9 + 0.9j])
    def test_lag_past_r0_is_domain_error(self, monkeypatch, r1):
        def row_with_r1(S, m_max):
            row = np.zeros(m_max + 1, dtype=np.complex128)
            row[0], row[1] = S.variance, r1
            return row

        with pytest.raises(DomainError) as record_error:
            AutocovarianceSeq(row_with_r1(make_rect_band(0.25), 15).tolist())
        monkeypatch.setattr(toeplitz, "_autocovariance_row", row_with_r1)
        # the record's check and message, before the recursion could fail
        with pytest.raises(DomainError) as rate_error:
            szego_logdet_rate(make_rect_band(0.25), 1e2, 16)
        assert str(rate_error.value) == str(record_error.value) == (
            f"|r(1)| = {abs(r1)} exceeds r(0) = 1.0")


def snr_row(S, snr, n):
    """First row of I + snr T_n, as szego_logdet_rate builds it."""
    row = snr * _autocovariance_row(S, n - 1)
    row[0] += 1.0
    return row


# spectra symmetric about 0, whose rows are real; a seeded symmetric
# random spectrum leaves imaginary residues near 1e-17 on its row, which
# the tests drop by taking the real part
REAL_SPECTRA = {
    "band0.1": make_rect_band(0.1),
    "band0.25": make_rect_band(0.25),
    "flat": make_rect_band(0.5),
    "onoff0.0625": make_onoff_spectrum(0.0625),
    "onoff0.2": make_onoff_spectrum(0.2),
    **{f"symmetric{seed}": symmetric_density(np.random.default_rng(seed))
       for seed in (1, 2, 3)},
}
ORACLE_SNRS = (1e2, 1e6, 1e10, 1e14, 1e15)
# a real row moves a over its gap after every C-th step: C - 1 and C never
# move it, C + 1 and 2C + 1 end on a move, and C + 2 ends one step after one
C = toeplitz._COMPACT
ORACLE_NS = tuple(sorted({1, 2, 3, 16, 33, 512, 1024, C - 1, C, C + 1, C + 2, 2 * C + 1}))


class TestFrozenOracle:
    """The library recursion against the complex128 recursion it replaced:
    the same P bit for bit, or the same NumericError text."""

    @pytest.mark.parametrize("n", ORACLE_NS)
    @pytest.mark.parametrize("name", sorted(REAL_SPECTRA))
    def test_real_rows(self, name, n):
        for snr in ORACLE_SNRS:
            row = snr_row(REAL_SPECTRA[name], snr, n).real
            assert (variance_bits(_innovation_variances, row)
                    == variance_bits(complex_innovation_variances, row))

    @pytest.mark.parametrize("n", ORACLE_NS)
    def test_complex_rows(self, n):
        for snr in ORACLE_SNRS:
            row = snr_row(SWEEP_SPECTRA["custom"], snr, n)
            assert n == 1 or row.imag.any()
            assert (variance_bits(_innovation_variances, row)
                    == variance_bits(complex_innovation_variances, row))

    def test_random_rows(self):
        rng = np.random.default_rng(41)
        for n in (2, 5, 17, 64, 200):
            for _ in range(6):
                row = random_row(rng, n)
                for candidate in (row, row.real):
                    assert (variance_bits(_innovation_variances, candidate)
                            == variance_bits(complex_innovation_variances, candidate))
        # real rows past the sizes above, where the buffer's slices are long
        for n in (513, 1024):
            for _ in range(3):
                row = random_row(rng, n).real
                assert (variance_bits(_innovation_variances, row)
                        == variance_bits(complex_innovation_variances, row))

    def test_band_row_at_snr_1e300(self):
        # entries near 1e300, short of the float range: the real route's gap
        # adds no overflow and no warning of its own
        row = snr_row(make_rect_band(0.25), 1e300, 1024).real
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert (variance_bits(_innovation_variances, row)
                    == variance_bits(complex_innovation_variances, row))

    # the three ceilings at which the szego command exits 4
    @pytest.mark.parametrize("S, snr, n", [
        (make_rect_band(0.1), 1e15, 128),
        (make_onoff_spectrum(0.0625), 1e14, 1024),
        (make_rect_band(0.1), 1e16, 32),
    ])
    def test_exit_4_rows_fail_alike(self, S, snr, n):
        row = snr_row(S, snr, n)
        with pytest.raises(NumericError) as frozen:
            complex_innovation_variances(row)
        with pytest.raises(NumericError) as library:
            _innovation_variances(row)
        assert str(library.value) == str(frozen.value)


class TestRealRowGap:
    """A real row's buffer keeps each entry the recursion eliminates at 0.0
    until a moves over it, so the gap's products are 0.0 * kappa."""

    @pytest.mark.parametrize("n", [2, C - 1, C, C + 1, C + 2, 2 * C + 5, 512])
    def test_eliminated_entries_are_zero(self, monkeypatch, n):
        row = snr_row(make_rect_band(0.25), 1e6, n).real
        arrays = []

        def recording_empty(*args, **kwargs):
            arrays.append(numpy_empty(*args, **kwargs))
            return arrays[-1]

        numpy_empty = np.empty
        monkeypatch.setattr(np, "empty", recording_empty)
        _innovation_variances(row)
        [X] = [a for a in arrays if a.shape == (2 * n,)]
        # the steps after a last moved, after step k = C floor((n - 1) / C)
        # or never (k = 0), eliminated X[:n - 1 - k]
        assert not X[:(n - 1) % C].any()


class TestRealRowsStayReal:
    """The built-in models' rows must stay exactly real, or they fall back
    to the complex128 route without a word."""

    @pytest.mark.parametrize("n", [1, 2, 17, 256, 1024])
    @pytest.mark.parametrize("S", [
        make_rect_band(0.5),
        *(make_rect_band(W) for W in (0.01, 0.1, 0.25, 1 / 3)),
        *(make_onoff_spectrum(W) for W in (0.01, 0.0625, 0.2)),
    ])
    def test_imaginary_parts_are_zero(self, S, n):
        assert np.all(_autocovariance_row(S, n - 1).imag == 0.0)
