"""Hermitian Toeplitz fading covariances and the Szego log-det rate.

The covariance of n consecutive fading samples is the Hermitian Toeplitz
matrix built from the autocovariance sequence.  Its eigenvalue counting
measure converges to the spectral density, so the normalized log-det rate
(1/n) log det(I + snr T_n) approaches the spectral log-integral; szego_gap
measures that convergence.

The log-det is the sum of the log one-step prediction-error (innovation)
variances of the fading process observed in unit-variance noise.  The
Levinson-Durbin recursion gives those variances in O(n^2) straight from
the first row of I + snr T_n, with no matrix and no eigenvalues.  By
Kolmogorov-Szego they tend to exp(integral log(1 + snr F')), which grows
like snr to the power of the measure of the support of F', not like snr:
where F' vanishes the past predicts the fading perfectly, which is the
mechanism behind the pre-log.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError, check_positive
from .spectra import AutocovarianceSeq, SpectralDensity, autocovariance_sequence, spectral_log_integral

HERMITIAN_TOL = 1e-10


@dataclass(frozen=True)
class ToeplitzCov:
    """Hermitian Toeplitz covariance defined by its first row r(0..n-1)."""

    first_row: tuple[complex, ...]
    n: int

    def __post_init__(self):
        row = tuple(complex(v) for v in self.first_row)
        object.__setattr__(self, "first_row", row)
        object.__setattr__(self, "n", int(self.n))
        if self.n < 1:
            raise DomainError(f"dimension must be >= 1, got {self.n}")
        if len(row) != self.n:
            raise DomainError(f"first row has {len(row)} lags, need {self.n}")
        r0 = row[0]
        if abs(r0.imag) > 1e-12 * max(1.0, abs(r0.real)) or r0.real <= 0:
            raise DomainError(f"r(0) must be real positive, got {r0}")

    def matrix(self) -> np.ndarray:
        """Materialize M[j, k] = r(k - j) with r(-m) = conj(r(m))."""
        r = np.asarray(self.first_row, dtype=np.complex128)
        idx = np.subtract.outer(np.arange(self.n), np.arange(self.n))
        M = np.where(idx <= 0, r[np.abs(idx)], np.conj(r[np.abs(idx)]))
        # exact Hermitian symmetry regardless of rounding in the source lags
        return (M + M.conj().T) / 2


def covariance_matrix(r: AutocovarianceSeq, n: int) -> ToeplitzCov:
    """ToeplitzCov of dimension n from the autocovariance sequence.

    Needs lags 0..n-1; raises DomainError when the sequence is shorter.
    """
    if n < 1:
        raise DomainError(f"dimension must be >= 1, got {n}")
    if len(r) < n:
        raise DomainError(f"need lags 0..{n - 1}, sequence has only {len(r)}")
    return ToeplitzCov(tuple(r.values[:n]), n)


def hermitian_eigenvalues(M: ToeplitzCov | np.ndarray) -> np.ndarray:
    """Real eigenvalues of a Hermitian (Toeplitz) covariance, ascending."""
    A = np.asarray(M.matrix() if isinstance(M, ToeplitzCov) else M, dtype=np.complex128)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DomainError(f"need a square matrix, got shape {A.shape}")
    scale = max(1.0, float(np.max(np.abs(A))))
    if float(np.max(np.abs(A - A.conj().T))) > HERMITIAN_TOL * scale:
        raise NumericError("matrix is not Hermitian")
    return np.linalg.eigvalsh(A)


def _innovation_variances(first_row: np.ndarray) -> np.ndarray:
    """One-step prediction-error variances P_0..P_{n-1} of a Hermitian
    positive definite Toeplitz matrix, from its first row r(0..n-1).

    P_k is the ratio of the leading (k+1)- and k-dimensional principal
    minors, so sum(log P) is the log-determinant.  The Levinson-Durbin
    reflection coefficients kappa_k give P_k = P_{k-1} (1 - |kappa_k|^2).
    They are taken from Schur's generator recursion rather than from the
    predictor polynomial: the predictor's rounding errors grow with
    prod (1 + |kappa|) / (1 - |kappa|), and near spectral zeros at high snr,
    where |kappa| -> 1, they drive P negative (Cybenko 1980; Bojanczyk,
    Brent, de Hoog and Sweet 1995).  O(n^2) time and O(n) memory.  Raises
    NumericError when some P_k is not positive.
    """
    v = np.array(first_row, dtype=np.complex128)
    n = v.size
    # generator pair: u shifts right one place per step, so u[i] holds the
    # entry at position i + k; v stays in place and v[k] is eliminated
    u = v.copy()
    v[0] = 0.0
    P = np.empty(n)
    P[0] = u[0].real
    for k in range(1, n):
        a, b = u[:n - k], v[k:]
        kappa = -b[0] / a[0]
        t = kappa * a
        a += np.conj(kappa) * b
        b += t
        # 1 - |kappa|^2 without cancellation when |kappa| is near 1
        m = abs(kappa)
        P[k] = P[k - 1] * (1.0 - m) * (1.0 + m)
        if not P[k] > 0.0:
            raise NumericError(f"innovation variance P_{k} = {P[k]} is not positive")
    return P


def szego_logdet_rate(S: SpectralDensity, snr: float, n: int) -> float:
    """(1/n) log det(I + snr T_n) in nats, T_n the n x n fading covariance.

    Equals the mean log innovation variance of the fading process observed
    in unit-variance noise, computed by Levinson-Durbin in O(n^2) from the
    first row.  Converges to spectral_log_integral(S, snr) as n grows.
    """
    check_positive("snr", snr)
    if n < 1:
        raise DomainError(f"dimension must be >= 1, got {n}")
    row = snr * np.asarray(autocovariance_sequence(S, n - 1).values)
    row[0] += 1.0
    return float(np.mean(np.log(_innovation_variances(row))))


def szego_gap(S: SpectralDensity, snr: float, n_list) -> list[tuple[int, float]]:
    """|szego_logdet_rate(n) - spectral_log_integral| for each n in n_list."""
    target = spectral_log_integral(S, snr)
    return [(int(n), abs(szego_logdet_rate(S, snr, int(n)) - target)) for n in n_list]
