"""Every number enters the formulas as the float its check returns.

Each entry point below takes an snr, a threshold, a band half-width or a
variance.  The same value given as a numpy float16, float32, float64 or
long double, or as an int, gives exactly the result of passing
float(value), and raises no numpy warning (the suite turns warnings into
errors).  Without that, numpy's scalar rules leak into the formulas: a
comparison casts a bound down and overflows, a product rounds in float16
or float32, or a long double carries extended precision through a sum.
"""

import numpy as np
import pytest

from prelog_lab._record import Record
from prelog_lab.bounds import (
    bound_sweep,
    miso_prelog_lower,
    capacity_lower_bound,
    coherent_avg_upper_bound,
    optimize_upsilon,
    phase_noise_lower_bound,
    phase_noise_model,
    phase_noise_upper_bound,
    prelog_report,
    rayleigh_band_model,
)
from prelog_lab.processes import simulate_onoff, tail_probability_mc
from prelog_lab.errors import DomainError
from prelog_lab.spectra import (
    AutocovarianceSeq,
    SpectralDensity,
    make_onoff_spectrum,
    make_rect_band,
    spectral_log_integral,
)
from prelog_lab.toeplitz import hermitian_eigenvalues, szego_logdet_rate

MODEL = rayleigh_band_model(0.1)
PHASE = phase_noise_model()

SNRS = (0.3, 300.0, 30000.0)
RATIO_SNRS = (1.5, 300.0, 30000.0)  # pre-log ratios need snr > 1
# a float16 threshold of 300 squared overflows in float16; its bound is finite
THRESHOLDS = (0.3, 1.0, 300.0)

# entry -> (call with the value, the values it takes)
ENTRIES = {
    "spectral_log_integral": (lambda x: spectral_log_integral(MODEL.spectrum, x), SNRS),
    "capacity_lower_bound snr": (lambda x: capacity_lower_bound(MODEL, x, 0.5), SNRS),
    "capacity_lower_bound threshold": (lambda x: capacity_lower_bound(MODEL, 1e4, x),
                                       THRESHOLDS),
    "optimize_upsilon snr": (lambda x: optimize_upsilon(MODEL, x, [1e-3, 4.0]), SNRS),
    "optimize_upsilon threshold": (lambda x: optimize_upsilon(MODEL, 1e6, [x]), THRESHOLDS),
    "coherent_avg_upper_bound": (lambda x: coherent_avg_upper_bound(MODEL, x), SNRS),
    "phase_noise_lower_bound": (phase_noise_lower_bound, SNRS),
    "phase_noise_upper_bound": (phase_noise_upper_bound, SNRS),
    "bound_sweep snr": (lambda x: bound_sweep(MODEL, [x]), SNRS),
    "bound_sweep snr array": (lambda x: bound_sweep(MODEL, np.array([x])), SNRS),
    "bound_sweep phase snr": (lambda x: bound_sweep(PHASE, [x]), SNRS),
    "bound_sweep threshold": (lambda x: bound_sweep(MODEL, [1e4], [x, 4.0]), THRESHOLDS),
    "prelog_report snr": (lambda x: prelog_report(MODEL, [x]), RATIO_SNRS),
    "prelog_report threshold": (lambda x: prelog_report(MODEL, [1e4], [x]), THRESHOLDS),
    "szego_logdet_rate": (lambda x: szego_logdet_rate(MODEL.spectrum, x, 64), SNRS),
    "tail_probability_mc": (lambda x: tail_probability_mc(MODEL, x, 1000, 1), THRESHOLDS),
    "make_rect_band": (make_rect_band, (0.1, 0.3, 0.5)),
    "make_rect_band variance": (lambda x: make_rect_band(0.1, x), (0.3, 2.0)),
    "make_onoff_spectrum": (make_onoff_spectrum, (0.1, 0.0625)),
    "simulate_onoff": (lambda x: simulate_onoff(x, 64, 1), (0.1, 0.0625)),
}

TYPES = (np.float16, np.float32, np.float64, np.longdouble, int)


def typed(kind, value):
    """value as kind: a numpy float parsed from its decimal text, so a long
    double holds more than the float does, or an int."""
    return int(value) if kind is int else kind(repr(value))


def plain(result):
    """result with every number as a Python float, a record as its fields
    and an array as its bytes, so results compare exactly whatever type a
    record keeps of its caller's value (a long double snr in the points of
    a curve, say)."""
    if isinstance(result, Record):
        return type(result).__name__, plain([getattr(result, f) for f in result.__slots__])
    if isinstance(result, np.ndarray):
        return result.tobytes()
    if isinstance(result, (tuple, list)):
        return tuple(map(plain, result))
    if result is None or isinstance(result, (bool, str)):
        return result
    return float(result)


CASES = [
    pytest.param(entry, kind, value, id=f"{entry}-{kind.__name__}-{value}")
    for entry, (_, values) in ENTRIES.items()
    for value in values
    for kind in TYPES
    if kind is not int or value.is_integer()
]


@pytest.mark.parametrize("entry, kind, value", CASES)
def test_a_number_is_the_float_it_holds(entry, kind, value):
    call, _ = ENTRIES[entry]
    x = typed(kind, value)
    # NaN compares unequal, so a bound that turns NaN fails here too
    assert plain(call(x)) == plain(call(float(x)))


# a numpy scalar next to a Python float it would have to cast down: 1e6
# overflows float16 and 1e300 float32
MIXED_GRIDS = ([np.float16(10), 1e6], [np.float32(10), 1e300])


@pytest.mark.parametrize("call", [bound_sweep, prelog_report])
@pytest.mark.parametrize("grid", MIXED_GRIDS, ids=["float16", "float32"])
def test_mixed_snr_grid_is_its_float_list(call, grid):
    assert plain(call(MODEL, grid)) == plain(call(MODEL, [float(s) for s in grid]))


# no numbers, though float() would parse the first three
NON_NUMBERS = {"str": "1e4", "bytes": b"0.5", "bytearray": bytearray(b"2"), "text": "abc",
               "None": None, "object": object()}
# the entries above, and the two that take a spectrum's numbers
NUMBER_ENTRIES = {
    **{entry: call for entry, (call, _) in ENTRIES.items()},
    "SpectralDensity edge": lambda x: SpectralDensity([(x, 0.5, 1.0)]),
    "SpectralDensity variance": lambda x: SpectralDensity([(-0.5, 0.5, 1.0)], x),
}


# the entries that take a container of numbers or spectra: (call with the
# container, start of the DomainError naming it, what is no such container)
CONTAINER_ENTRIES = {
    "SpectralDensity segments": (SpectralDensity, "segments must be an iterable of ",
                                 {"None": None, "int": 5}),
    "AutocovarianceSeq": (AutocovarianceSeq, "autocovariance values must be an iterable of ",
                          {"None": None}),
    "miso_prelog_lower": (miso_prelog_lower, "antenna spectr",
                          {"None": None, "None spectrum": [None]}),
    "bound_sweep snr grid": (lambda x: bound_sweep(MODEL, x), "snr grid must be an iterable of ",
                             {"None": None}),
    "bound_sweep threshold grid": (lambda x: bound_sweep(MODEL, [1e4], x),
                                   "threshold grid must be an iterable of ", {"int": 5}),
    "prelog_report snr grid": (lambda x: prelog_report(MODEL, x),
                               "snr grid must be an iterable of ", {"int": 5}),
    "hermitian_eigenvalues": (hermitian_eigenvalues, "matrix must be an array of numbers: ",
                              {"str entry": [["a"]]}),
}
NON_NUMBER_CASES = [
    pytest.param(call, value, "must be a number, got ", id=f"{entry}-{name}")
    for entry, call in NUMBER_ENTRIES.items()
    for name, value in NON_NUMBERS.items()
] + [
    pytest.param(call, value, start, id=f"{entry}-{name}")
    for entry, (call, start, values) in CONTAINER_ENTRIES.items()
    for name, value in values.items()
]


@pytest.mark.parametrize("call, value, message", NON_NUMBER_CASES)
def test_a_non_number_is_a_domain_error(call, value, message):
    with pytest.raises(DomainError, match=message):
        call(value)
