"""Capacity pre-log analysis for noncoherent fading channels with memory.

Five layers: spectra (spectral densities and their closed forms), toeplitz
(the Szego log-det rate by Levinson-Durbin, plus the dense covariance and
its eigenvalues as a check), bounds (capacity bounds and pre-log reports),
processes (sample-path simulation and Monte Carlo checks), and cli (the
prelog-lab command, which prints the same operations as CSV/JSON).

spectra and bounds are closed forms in math, and the package re-exports
their names and those of errors; importing it does not import numpy.
toeplitz and processes, the two layers built on numpy arrays, are not
re-exported: import their names from prelog_lab.toeplitz and
prelog_lab.processes.  So only the commands that compute with arrays load
numpy (szego and simulate; see cli), and json is imported only where JSON
is read or written.  The value types of every layer (SpectralDensity,
AutocovarianceSeq, FadingModel, BoundCurve, PrelogReport, SamplePath) are
plain immutable records that compare by value (see _record).
"""

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

__all__ = [
    "AutocovarianceSeq",
    "BoundCurve",
    "DomainError",
    "FadingModel",
    "NumericError",
    "PreconditionError",
    "PrelogReport",
    "SpectralDensity",
    "autocovariance",
    "autocovariance_sequence",
    "bound_sweep",
    "capacity_lower_bound",
    "coherent_avg_upper_bound",
    "finite_snr_ratios",
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
    "spectral_log_integral",
    "zero_set_measure",
]

