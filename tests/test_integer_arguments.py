"""Every integer argument is checked by one rule with one message.

Each library entry point below takes an integer in a range [lo, hi).  A
float, NaN, an int past the float range, lo - 1 and hi all raise the same
DomainError text, "<name> must be an integer in [lo, hi), got <value>",
and lo itself is accepted.  simulate's --m-max has no upper end and says
"--m-max must be an integer >= 0, got <value>".
"""

import math

import numpy as np
import pytest

from prelog_lab import cli
from prelog_lab.bounds import phase_noise_model, rayleigh_band_model
from prelog_lab.errors import DomainError
from prelog_lab.processes import (
    SamplePath,
    empirical_autocov,
    marginal_draws,
    simulate_gaussian,
    simulate_onoff,
    simulate_phase_noise,
    stream_rng,
    tail_probability_mc,
)
from prelog_lab.spectra import autocovariance, autocovariance_sequence, make_rect_band
from prelog_lab.toeplitz import covariance_matrix, szego_logdet_rate

BAND = make_rect_band(0.25)
SHORT_PATH = simulate_phase_noise(16, 1)
FOUR_LAGS = autocovariance_sequence(BAND, 3)

# entry -> (call with the integer, name, lo, hi, the range as the message shows it)
ENTRIES = {
    "seed": (lambda v: stream_rng(v, 0), "seed", 0, 2**64, "[0, 2**64)"),
    "path seed": (lambda v: SamplePath([0j], v), "seed", 0, 2**64, "[0, 2**64)"),
    "gaussian path length": (lambda v: simulate_gaussian(BAND, v, 1),
                             "path length", 1, 2**59, "[1, 2**59)"),
    "on-off path length": (lambda v: simulate_onoff(1 / 16, v, 1),
                           "path length", 1, 2**59, "[1, 2**59)"),
    "phase-noise path length": (lambda v: simulate_phase_noise(v, 1),
                                "path length", 1, 2**59, "[1, 2**59)"),
    "draw count": (lambda v: marginal_draws(rayleigh_band_model(0.1), v, 0),
                   "draw count", 0, 2**59, "[0, 2**59)"),
    "sample count": (lambda v: tail_probability_mc(phase_noise_model(), 1.0, v),
                     "Monte Carlo sample count", 1, 2**59, "[1, 2**59)"),
    "sequence m_max": (lambda v: autocovariance_sequence(BAND, v),
                       "m_max", 0, 2**59 - 1, "[0, 2**59 - 1)"),
    "empirical m_max": (lambda v: empirical_autocov(SHORT_PATH, v), "m_max", 0, 16, "[0, 16)"),
    "szego dimension": (lambda v: szego_logdet_rate(BAND, 100.0, v),
                        "dimension", 1, 2**59, "[1, 2**59)"),
    "matrix dimension": (lambda v: covariance_matrix(FOUR_LAGS, v), "dimension", 1, 5, "[1, 5)"),
    "lag": (lambda v: autocovariance(BAND, v), "lag", 1 - 2**59, 2**59,
            "[-(2**59 - 1), 2**59)"),
}


def shown(value):
    """value as the message shows it: a float as str, an int past the
    float range in six digits."""
    return {10**400: "1.000000e+400", -10**400: "-1.000000e+400"}.get(value, str(value))


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("kind", ["float", "nan", "10**400", "-10**400", "lo - 1", "hi"])
def test_outside_the_range(entry, kind):
    call, name, lo, hi, span = ENTRIES[entry]
    value = {"float": 2.5, "nan": math.nan, "10**400": 10**400, "-10**400": -10**400,
             "lo - 1": lo - 1, "hi": hi}[kind]
    with pytest.raises(DomainError) as error:
        call(value)
    assert str(error.value) == f"{name} must be an integer in {span}, got {shown(value)}"


@pytest.mark.parametrize("entry", ENTRIES)
def test_lo_and_a_numpy_integer_are_accepted(entry):
    call, _, lo, _, _ = ENTRIES[entry]
    call(lo)
    call(np.int64(lo))


SIMULATE = ["simulate", "--model", "phase-noise", "--n", "16"]


@pytest.mark.parametrize("value", [-1, -10**400])
def test_simulate_m_max_below_zero(capsys, value):
    assert cli.main([*SIMULATE, f"--m-max={value}"]) == cli.EXIT_USAGE
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.splitlines() == [f"error: --m-max must be an integer >= 0, "
                                    f"got {shown(value)}"]


@pytest.mark.parametrize("value", ["2.5", "nan"])
def test_simulate_m_max_that_is_no_integer_is_a_usage_error(capsys, value):
    # argparse's int type refuses it before any command code runs
    assert cli.main([*SIMULATE, f"--m-max={value}"]) == cli.EXIT_USAGE
    out = capsys.readouterr()
    assert out.out == "" and "invalid int value" in out.err


@pytest.mark.parametrize("value", [0, 10**400])
def test_simulate_m_max_has_no_upper_end(capsys, value):
    # a table past the path's last lag stops at it
    assert cli.main([*SIMULATE, f"--m-max={value}"]) == cli.EXIT_OK
    rows = [line for line in capsys.readouterr().out.splitlines()[1:] if line[0].isdigit()]
    assert len(rows) == min(value, 15) + 1
