"""Spectral densities: constructors, closed forms, and quadrature checks."""

import math
import sys
import warnings

import numpy as np
import pytest

from prelog_lab.errors import DomainError
from prelog_lab.spectra import (
    DIAGNOSTIC_SNRS,
    AutocovarianceSeq,
    SpectralDensity,
    _autocovariance_row,
    autocovariance,
    autocovariance_sequence,
    finite_snr_ratios,
    limiting_ratio,
    make_onoff_spectrum,
    make_rect_band,
    spectral_log_integral,
    zero_set_measure,
)
from prelog_lab.toeplitz import szego_logdet_rate

from oracles import (
    decimal_log_integral,
    density_at,
    quad_autocovariance,
    quad_log_integral,
    random_density,
    sinc,
    spectrum_json,
)


class TestConstructors:
    def test_rect_full_width_is_iid(self):
        S = make_rect_band(0.5)
        assert S.segments == ((-0.5, 0.5, 1.0),)
        assert S.variance == 1.0

    def test_rect_quarter_width(self):
        S = make_rect_band(0.25)
        assert density_at(S, 0.0) == 2.0
        assert density_at(S, 0.4) == 0.0
        assert math.isclose(sum((hi - lo) * v for lo, hi, v in S.segments), 1.0)

    @pytest.mark.parametrize("W", [0.0, -0.1, 0.51])
    def test_rect_domain(self, W):
        with pytest.raises(DomainError):
            make_rect_band(W)

    @pytest.mark.parametrize("segments, variance, message", [
        ([(-10**400, 0.5, 1.0)], 1.0, "segment edge -1.000000e+400"),
        ([(-0.5, 10**400, 1.0)], 1.0, "segment edge 1.000000e+400"),
        ([(-0.5, 0.5, 10**400)], 1.0, "density value 1.000000e+400"),
        ([(-0.5, 0.5, 1.0)], 10**400, "variance 1.000000e+400"),
        ([(-0.1, 0.1, 5.0)], 10**400, "variance 1.000000e+400"),
    ], ids=["low edge", "high edge", "value", "variance", "variance of a short list"])
    def test_int_past_the_float_range_is_domain_error(self, segments, variance, message):
        with pytest.raises(DomainError) as error:
            SpectralDensity(segments, variance)
        assert str(error.value) == f"{message} leaves the float range"

    @pytest.mark.parametrize("segments, message", [
        ([], "density needs at least one segment"),
        ([(-0.5, 0.5, math.inf)], "density values must be finite"),
    ], ids=["no segment", "inf"])
    def test_malformed_segments_are_named(self, segments, message):
        with pytest.raises(DomainError) as error:
            SpectralDensity(segments, 1.0)
        assert str(error.value) == message

    def test_onoff_bands(self):
        S = make_onoff_spectrum(1 / 16)
        assert len(S.segments) == 5
        assert density_at(S, 0.0) == 4.0
        assert density_at(S, 0.5) == 4.0
        assert density_at(S, 0.25) == 0.0
        assert S.variance == 1.0

    @pytest.mark.parametrize("W", [0.0, 0.25, 0.3])
    def test_onoff_domain(self, W):
        with pytest.raises(DomainError):
            make_onoff_spectrum(W)

    def test_piecewise_simple(self):
        S = SpectralDensity(((-0.5, 0.5, 1.0),))
        assert S.variance == 1.0
        S2 = SpectralDensity(((-0.5, 0.0, 0.0), (0.0, 0.5, 2.0)))
        assert S2.variance == 1.0

    def test_piecewise_overlap_rejected(self):
        with pytest.raises(DomainError):
            SpectralDensity(((-0.5, 0.1, 1.0), (0.0, 0.5, 1.0)))

    def test_piecewise_gap_rejected(self):
        with pytest.raises(DomainError):
            SpectralDensity(((-0.5, -0.1, 1.0), (0.1, 0.5, 1.0)))

    def test_piecewise_negative_rejected(self):
        with pytest.raises(DomainError):
            SpectralDensity(((-0.5, 0.5, -1.0),))

    @pytest.mark.parametrize("segments, message", [
        ([(-0.5, 0.5)], "a segment is a (lo, hi, value) triple, got (-0.5, 0.5)"),
        ([None], "a segment is a (lo, hi, value) triple, got None"),
        ("abc", "a segment is a (lo, hi, value) triple, got 'a'"),
        ([(-0.5, 0.5, 1.0, 2.0)], "a segment is a (lo, hi, value) triple, "
                                  "got (-0.5, 0.5, 1.0, 2.0)"),
        ([(-0.5, 0.5, "1")], "density value must be a number, got '1'"),
    ], ids=["pair", "none", "string", "quadruple", "text-value"])
    def test_malformed_segment_rejected(self, segments, message):
        with pytest.raises(DomainError) as error:
            SpectralDensity(segments)
        assert str(error.value) == message

    def test_piecewise_span_required(self):
        with pytest.raises(DomainError):
            SpectralDensity(((-0.4, 0.5, 1.0),))

    def test_mass_must_match_variance(self):
        with pytest.raises(DomainError, match="does not match"):
            SpectralDensity(((-0.5, 0.5, 1.0),), 2.0)
        assert SpectralDensity(((-0.5, 0.5, 2.0),), 2.0).variance == 2.0

    @pytest.mark.parametrize("variance", [0.0, -1e-13])
    def test_variance_must_be_positive(self, variance):
        # an all-zero density matches both within MASS_TOL, but it is no
        # fading process: its pre-log would read as 1
        with pytest.raises(DomainError, match="variance must be finite and positive"):
            SpectralDensity(((-0.5, 0.5, 0.0),), variance)

    @pytest.mark.parametrize("variance", [0.0, -1.0, math.nan, math.inf])
    def test_rect_variance_must_be_positive(self, variance):
        with pytest.raises(DomainError, match="variance must be finite and positive"):
            make_rect_band(0.1, variance=variance)

    def test_constructor_masses_exact(self):
        for S in (make_rect_band(0.1), make_rect_band(0.3, variance=2.0),
                  make_onoff_spectrum(0.1)):
            mass = math.fsum((hi - lo) * v for lo, hi, v in S.segments)
            assert abs(mass - S.variance) <= 1e-12

    def test_endpoint_belongs_to_left_segment(self):
        S = make_rect_band(0.25)
        # -0.25 is the right endpoint of the zero segment on its left
        assert density_at(S, -0.25) == 0.0
        assert density_at(S, 0.25) == 2.0
        assert density_at(S, -0.5) == 0.0


class TestZeroSetMeasure:
    def test_iid_zero(self):
        assert zero_set_measure(make_rect_band(0.5)) == 0.0

    def test_rect_complement_exact(self):
        assert zero_set_measure(make_rect_band(0.1)) == 0.8

    def test_onoff_exact(self):
        assert zero_set_measure(make_onoff_spectrum(1 / 16)) == 0.75
        assert zero_set_measure(make_onoff_spectrum(1 / 8)) == 0.5


class TestAutocovariance:
    def test_rect_is_sinc(self):
        W = 0.25
        S = make_rect_band(W)
        assert autocovariance(S, 2) == pytest.approx(0.0, abs=1e-15)
        for m in range(-6, 7):
            assert autocovariance(S, m).real == pytest.approx(sinc(2 * W * m), abs=1e-13)
            assert autocovariance(S, m).imag == pytest.approx(0.0, abs=1e-13)

    def test_variance_two_band(self):
        S = make_rect_band(0.05, variance=2.0)
        for m in (0, 1, 3, 10):
            assert autocovariance(S, m).real == pytest.approx(2 * sinc(2 * 0.05 * m), abs=1e-12)

    def test_onoff_even_lags_only(self):
        W = 1 / 16
        S = make_onoff_spectrum(W)
        assert abs(autocovariance(S, 1)) == pytest.approx(0.0, abs=1e-13)
        for m in range(0, 12):
            want = sinc(2 * W * m) if m % 2 == 0 else 0.0
            assert autocovariance(S, m).real == pytest.approx(want, abs=1e-12)

    def test_conjugate_symmetry_and_r0_dominance(self):
        rng = np.random.default_rng(42)
        S = random_density(rng)
        for m in range(-64, 65):
            r = autocovariance(S, m)
            assert r == np.conj(autocovariance(S, -m))
            assert abs(r) <= S.variance * (1 + 1e-12)

    def test_matches_quadrature(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            S = random_density(rng)
            for m in (0, 1, 2, 5, 17):
                assert autocovariance(S, m) == pytest.approx(
                    quad_autocovariance(S, m), abs=1e-9
                )

    def test_sequence(self):
        seq = autocovariance_sequence(make_rect_band(0.5), 4)
        assert len(seq) == 5
        assert seq.values[0] == 1.0
        with pytest.raises(DomainError):
            autocovariance_sequence(make_rect_band(0.5), -1)

    @pytest.mark.parametrize("m_max, message", [
        (2.5, "m_max must be an integer in [0, 2**59 - 1), got 2.5"),
        ("3", "m_max must be an integer in [0, 2**59 - 1), got 3"),
        (-10**400, "m_max must be an integer in [0, 2**59 - 1), got -1.000000e+400"),
        (2**59 - 1, f"m_max must be an integer in [0, 2**59 - 1), got {2**59 - 1}"),
        (10**400, "m_max must be an integer in [0, 2**59 - 1), got 1.000000e+400"),
    ], ids=["2.5", "'3'", "-10**400", "2**59-1", "10**400"])
    def test_sequence_lag_guard(self, m_max, message):
        with pytest.raises(DomainError) as error:
            autocovariance_sequence(make_rect_band(0.5), m_max)
        assert str(error.value) == message

    def test_sequence_takes_a_numpy_integer(self):
        S = make_onoff_spectrum(1 / 16)
        assert autocovariance_sequence(S, np.int64(6)) == autocovariance_sequence(S, 6)


# valid spectra whose density value v passes half the float maximum, so
# v d, with |d| up to 2, overflows in the direct closed form
HUGE_DENSITIES = [
    [(-0.5, 0.2, 0.0), (0.2, 0.5, 1.7e308)],
    [(-0.5, -0.1, 0.0), (-0.1, 0.5, 1.7e308)],
]


@pytest.mark.parametrize("segments", HUGE_DENSITIES)
class TestDensityPastHalfTheFloatMax:
    @staticmethod
    def spectrum(segments, scale=1.0):
        segs = [(lo, hi, v * scale) for lo, hi, v in segments]
        return SpectralDensity(segs, math.fsum((hi - lo) * v for lo, hi, v in segs))

    def test_row_is_the_scalar_and_the_scaled_row(self, segments):
        S = self.spectrum(segments)
        row = _autocovariance_row(S, 64)
        want = np.array([autocovariance(S, m) for m in range(65)], dtype=np.complex128)
        assert np.all(np.isfinite(row))
        assert row.tobytes() == want.tobytes()
        # scaling by a power of two is exact on both sides
        scaled = _autocovariance_row(self.spectrum(segments, 2.0**-1000), 64)
        assert row.tobytes() == (2.0**1000 * scaled).tobytes()
        assert np.all(np.abs(row) <= row[0].real)

    def test_sequence_and_rate_are_finite_without_warnings(self, segments):
        S = self.spectrum(segments)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            seq = autocovariance_sequence(S, 5)
            rate = szego_logdet_rate(S, 1.0, 6)
        assert all(abs(v) <= seq.values[0].real for v in seq.values)
        assert math.isfinite(rate)


class TestAutocovarianceSeqType:
    def test_r0_zero_allowed(self):
        seq = AutocovarianceSeq((0j, 0j))
        assert seq.values == (0j, 0j)

    def test_empty_rejected(self):
        with pytest.raises(DomainError) as error:
            AutocovarianceSeq(())
        assert str(error.value) == "autocovariance sequence needs at least r(0)"

    def test_r0_complex_rejected(self):
        with pytest.raises(DomainError):
            AutocovarianceSeq((1 + 0.1j,))

    def test_r0_negative_rejected(self):
        with pytest.raises(DomainError):
            AutocovarianceSeq((-1.0,))

    def test_dominance_enforced(self):
        with pytest.raises(DomainError):
            AutocovarianceSeq((1.0, 1.5))

    @pytest.mark.parametrize("values, message", [
        (["1.0"], "r(0) must be a number, got '1.0'"),
        ([1.0, b"0.5"], "r(1) must be a number, got b'0.5'"),
        ([1.0, None], "r(1) must be a number, got None"),
        ("abc", "r(0) must be a number, got 'a'"),
        ([math.nan], "r(0) must be finite, got (nan+0j)"),
        ([math.inf, 1.0], "r(0) must be finite, got (inf+0j)"),
        ([1.0, complex(0, math.nan)], "r(1) must be finite, got nanj"),
        ([10**400], "r(0) 1.000000e+400 leaves the float range"),
    ], ids=["text", "bytes", "none", "string", "nan", "inf", "nan-imag", "huge-int"])
    def test_values_must_be_finite_numbers(self, values, message):
        with pytest.raises(DomainError) as error:
            AutocovarianceSeq(values)
        assert str(error.value) == message

    def test_numeric_types_read_as_complex(self):
        seq = AutocovarianceSeq([np.float32(1.0), np.complex64(0.5j), 0, np.complex128(0.25)])
        assert seq.values == (1 + 0j, 0.5j, 0j, 0.25 + 0j)
        assert all(type(v) is complex for v in seq.values)


class TestLogIntegral:
    def test_iid(self):
        for snr in (0.5, 1.0, 100.0, 1e8):
            assert spectral_log_integral(make_rect_band(0.5), snr) == pytest.approx(
                math.log1p(snr), rel=1e-15
            )

    def test_rect_closed_form_frozen(self):
        val = spectral_log_integral(make_rect_band(0.25), 100.0)
        assert val == pytest.approx(2.651652454029538, abs=1e-14)
        assert val == pytest.approx(0.5 * math.log(201), abs=1e-14)

    def test_snr_domain(self):
        with pytest.raises(DomainError):
            spectral_log_integral(make_rect_band(0.25), 0.0)
        with pytest.raises(DomainError):
            spectral_log_integral(make_rect_band(0.25), -5.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(DomainError):
                spectral_log_integral(make_rect_band(0.25), bad)

    def test_overflow_stays_finite(self):
        # density 5: snr 5 stays finite up to snr 3.59e307 and keeps the
        # direct form's bits; past it the integral is still finite
        S = make_rect_band(0.1)
        assert spectral_log_integral(S, 3.5e307) == 0.2 * math.log1p(5 * 3.5e307)
        for snr in (3.6e307, 1e308, 1.7e308, sys.float_info.max):
            assert spectral_log_integral(S, snr) == pytest.approx(
                decimal_log_integral(S, snr), rel=1e-15
            )

    def test_matches_quadrature(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            S = random_density(rng)
            snr = float(10 ** rng.uniform(-1, 8))
            assert spectral_log_integral(S, snr) == pytest.approx(
                quad_log_integral(S, snr), abs=1e-9
            )

    def test_nondecreasing_in_snr_and_capped(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            S = random_density(rng)
            snrs = [10.0 ** k for k in range(-1, 10)]
            vals = [spectral_log_integral(S, s) for s in snrs]
            assert all(b >= a for a, b in zip(vals, vals[1:]))
            top = max(v for _, _, v in S.segments)
            for s, v in zip(snrs, vals):
                assert v <= math.log1p(s * top) + 1e-12


class TestLimitingRatio:
    def test_values(self):
        assert limiting_ratio(make_rect_band(0.5)) == 1.0
        assert limiting_ratio(make_rect_band(0.1)) == pytest.approx(0.2, abs=1e-15)
        assert limiting_ratio(make_onoff_spectrum(1 / 16)) == 0.25

    def test_iid_ratio_near_one(self):
        pairs = finite_snr_ratios(make_rect_band(0.5))
        assert [snr for snr, _ in pairs] == list(DIAGNOSTIC_SNRS)
        assert abs(pairs[-1][1] - 1.0) <= 4e-2

    def test_ratio_converges_to_limit(self):
        # density >= 1 on the support makes the ratio decrease to the limit
        rng = np.random.default_rng(17)
        for S in (make_rect_band(0.25), make_onoff_spectrum(1 / 16), random_density(rng)):
            mu = limiting_ratio(S)
            ratios = [r for _, r in finite_snr_ratios(S)]
            ratios.append(spectral_log_integral(S, 1e15) / math.log(1e15))
            errs = [abs(r - mu) for r in ratios]
            assert errs[-1] < errs[0]
            assert ratios[-1] == pytest.approx(mu, abs=0.05)
            min_pos = min(v for _, _, v in S.segments if v > 0)
            if min_pos >= 1.0:
                assert all(b <= a + 1e-12 for a, b in zip(ratios, ratios[1:]))

    def test_ratio_cap_at_high_snr(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            S = random_density(rng)
            mu = limiting_ratio(S)
            for k in (12, 13, 15):
                r = spectral_log_integral(S, 10.0 ** k) / math.log(10.0 ** k)
                assert r <= mu + 0.05


class TestSerialization:
    def test_json_round_trip(self):
        for S in (make_rect_band(0.1), make_rect_band(0.2, variance=3.0), make_onoff_spectrum(0.2)):
            back = SpectralDensity.from_json(spectrum_json(S))
            assert back == S

    def test_malformed_json(self):
        with pytest.raises(DomainError):
            SpectralDensity.from_json("{not json")
        with pytest.raises(DomainError):
            SpectralDensity.from_json('{"segments": "nope"}')
        with pytest.raises(DomainError):
            SpectralDensity.from_json('{"variance": 1.0}')
