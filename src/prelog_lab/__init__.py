"""Capacity pre-log analysis for noncoherent fading channels with memory.

Five layers: spectra (spectral densities and their closed forms), toeplitz
(the Szego log-det rate by Levinson-Durbin, plus the dense covariance and
its eigenvalues as a check), bounds (capacity bounds and pre-log reports),
processes (sample-path simulation and Monte Carlo checks), and cli (the
prelog-lab command, which prints the same operations as CSV/JSON).

spectra and bounds are closed forms in math, and importing the package
does not import numpy.  The names of toeplitz and processes, the two
layers built on numpy arrays, resolve on first use through the module's
__getattr__ and are looked up on each access, so a name rebound in its
layer shows through here too.  bounds imports numpy only to tabulate a
threshold grid.  So only the commands that compute with arrays load numpy
(szego, simulate, and the threshold-law bound-sweep and prelog-report);
the rest start in about half the time (see cli).
"""

import importlib

from .bounds import (
    BoundCurve,
    FadingModel,
    PrelogReport,
    bound_sweep,
    capacity_lower_bound,
    coherent_avg_upper_bound,
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
from .errors import DomainError, NumericError, PreconditionError
from .spectra import (
    AutocovarianceSeq,
    SpectralDensity,
    autocovariance,
    autocovariance_sequence,
    finite_snr_ratios,
    limiting_ratio,
    make_onoff_spectrum,
    make_rect_band,
    spectral_log_integral,
    zero_set_measure,
)

__version__ = "0.1.0"

# the array layers' re-exports: name -> submodule, imported on first use
_LAZY = {
    **dict.fromkeys(("SamplePath", "empirical_autocov", "simulate_gaussian", "simulate_onoff",
                     "simulate_phase_noise", "tail_probability_mc"), "processes"),
    **dict.fromkeys(("covariance_matrix", "hermitian_eigenvalues", "szego_logdet_rate"),
                    "toeplitz"),
}

__all__ = [
    "AutocovarianceSeq",
    "BoundCurve",
    "DomainError",
    "FadingModel",
    "NumericError",
    "PreconditionError",
    "PrelogReport",
    "SamplePath",
    "SpectralDensity",
    "autocovariance",
    "autocovariance_sequence",
    "bound_sweep",
    "capacity_lower_bound",
    "coherent_avg_upper_bound",
    "covariance_matrix",
    "empirical_autocov",
    "finite_snr_ratios",
    "hermitian_eigenvalues",
    "limiting_ratio",
    "make_onoff_spectrum",
    "make_rect_band",
    "masspoint_prelog_upper",
    "miso_prelog_lower",
    "onoff_model",
    "optimize_upsilon",
    "phase_noise_lower_bound",
    "phase_noise_model",
    "phase_noise_upper_bound",
    "prelog_lower_bound",
    "prelog_report",
    "rayleigh_band_model",
    "simulate_gaussian",
    "simulate_onoff",
    "simulate_phase_noise",
    "spectral_log_integral",
    "szego_logdet_rate",
    "tail_probability_mc",
    "zero_set_measure",
]


def __getattr__(name: str):
    layer = _LAZY.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{layer}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})
