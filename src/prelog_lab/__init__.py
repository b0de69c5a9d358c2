"""Capacity pre-log analysis for noncoherent fading channels with memory.

Four layers: spectra (spectral densities and their closed forms), toeplitz
(covariance matrices and the Szego log-det rate), bounds (capacity bounds
and pre-log reports), processes (sample-path simulation and Monte Carlo
checks).  The prelog-lab CLI exposes the same operations as CSV/JSON.
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
from .processes import (
    SamplePath,
    empirical_autocov,
    simulate_gaussian,
    simulate_onoff,
    simulate_phase_noise,
    tail_probability,
    tail_probability_mc,
)
from .spectra import (
    AutocovarianceSeq,
    SpectralDensity,
    autocovariance,
    autocovariance_sequence,
    finite_snr_ratios,
    limiting_ratio,
    make_onoff_spectrum,
    make_piecewise,
    make_rect_band,
    spectral_log_integral,
    zero_set_measure,
)
from .toeplitz import (
    ToeplitzCov,
    covariance_matrix,
    hermitian_eigenvalues,
    szego_gap,
    szego_logdet_rate,
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
    "SamplePath",
    "SpectralDensity",
    "ToeplitzCov",
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
    "make_piecewise",
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
    "szego_gap",
    "szego_logdet_rate",
    "tail_probability",
    "tail_probability_mc",
    "zero_set_measure",
]
