"""Hermitian Toeplitz fading covariances and the Szego log-det rate.

The covariance of n consecutive fading samples is the Hermitian Toeplitz
matrix built from the autocovariance sequence r(0..n-1), which the rate
takes from spectra as one array.  Its eigenvalue counting measure
converges to the spectral density, so the normalized log-det rate
(1/n) log det(I + snr T_n) approaches the spectral log-integral.

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

import numpy as np

from .errors import MAX_ELEMENTS, DomainError, NumericError, check_index, check_positive
from .spectra import (
    AutocovarianceSeq,
    SpectralDensity,
    _autocovariance_row,
    _lag_bound,
    _lag_error,
)

HERMITIAN_TOL = 1e-10


def covariance_matrix(r: AutocovarianceSeq, n: int) -> np.ndarray:
    """n x n Hermitian Toeplitz covariance M[j, k] = r(k - j), with
    r(-m) = conj(r(m)), from the autocovariance sequence.

    Needs lags 0..n-1: n must be an integer in [1, len(r)], or it is a
    DomainError.
    """
    n = check_index("dimension", n, 1, len(r) + 1)
    row = np.asarray(r.values[:n], dtype=np.complex128)
    idx = np.subtract.outer(np.arange(n), np.arange(n))
    # M[j, k] = conj(M[k, j]) exactly; r(0) is real up to the rounding it may hold
    M = np.where(idx <= 0, row[np.abs(idx)], np.conj(row[np.abs(idx)]))
    np.fill_diagonal(M, row[0].real)
    return M


def hermitian_eigenvalues(A: np.ndarray) -> np.ndarray:
    """Real eigenvalues of a Hermitian (Toeplitz) covariance, ascending."""
    A = np.asarray(A, dtype=np.complex128)
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

    A row whose imaginary parts are all exactly zero (a spectrum symmetric
    about 0, as every built-in model has) runs on float64 arrays; a row
    with any nonzero imaginary part runs on complex128 arrays.  Both give
    the bits of the complex recursion: with zero imaginary parts numpy's
    complex product rounds as the real product, with or without fused
    multiply-adds; numpy's complex quotient of two reals is
    (-b0) * (1 / a0), which the real route repeats (the true division
    -b0 / a0 differs in the last bit); and abs is hypot on both routes,
    which is |x| for a real x.

    A real row runs on one buffer g = [v | u | copy of b] of 3n floats.
    At step k, with L = n - k, b = v[k:] is g[k:n] and a = u[:L] is
    g[n:n+L], with the copy of b right after a; so (b, a) is the slice
    g[k:n+L] and (a, b) the slice g[n:n+2L], and one multiply and one
    in-place add update both halves: b + fl(kappa a) and a + fl(kappa b),
    the same bits as two updates.  A copy then puts the next step's b
    after the next step's a, over the entry a drops.  That is three numpy
    calls a step where two arrays take four.  A complex row keeps the two
    arrays: its halves need kappa and conj(kappa), two multiplies, and the
    buffer's copy on top of them measured 1.2x slower.
    """
    v = np.array(first_row, dtype=np.complex128)
    n = v.size
    P = np.empty(n)
    p = P[0] = float(v[0].real)
    real = not v.imag.any()
    if real:
        g = np.empty(3 * n)
        g[:n] = g[n:2 * n] = v.real
        g[0] = 0.0
        g[2 * n - 1:3 * n - 2] = g[1:n]  # the copy of b for k = 1
    else:
        # generator pair: u shifts right one place per step, so u[i] holds
        # the entry at position i + k; v stays in place and v[k] is eliminated
        u = v.copy()
        v[0] = 0.0
    for k in range(1, n):
        L = n - k
        if real:
            kappa = -g.item(k) * (1.0 / g.item(n))
            ba = g[k:n + L]  # a named view: g[...] += would assign it back
            ba += kappa * g[n:n + 2 * L]
            g[n + L - 1:n + 2 * L - 2] = g[k + 1:n]
        else:
            a, b = u[:L], v[k:]
            kappa = complex(-b[0] / a[0])
            t = kappa * a
            a += kappa.conjugate() * b
            b += t
        # 1 - |kappa|^2 without cancellation when |kappa| is near 1
        m = abs(kappa)
        p = P[k] = p * (1.0 - m) * (1.0 + m)
        if not p > 0.0:
            raise NumericError(f"innovation variance P_{k} = {p} is not positive")
    return P


def szego_logdet_rate(S: SpectralDensity, snr: float, n: int) -> float:
    """(1/n) log det(I + snr T_n) in nats, T_n the n x n fading covariance.

    Equals the mean log innovation variance of the fading process observed
    in unit-variance noise, computed by Levinson-Durbin in O(n^2) from the
    first row.  Converges to spectral_log_integral(S, snr) as n grows.
    The lags r(0..n-1) come as one array, with the bits and the
    |r(m)| <= r(0) check of autocovariance_sequence.  Raises DomainError
    for an n that is not an integer in [1, MAX_ELEMENTS).
    """
    snr = check_positive("snr", snr)
    n = check_index("dimension", n, 1, MAX_ELEMENTS)
    r = _autocovariance_row(S, n - 1)
    r0 = float(r[0].real)
    # np.hypot is Python's abs(complex) bit for bit; np.abs is not
    over = np.flatnonzero(np.hypot(r.real, r.imag) > _lag_bound(r0))
    if over.size:
        raise _lag_error(int(over[0]), complex(r[over[0]]), r0)
    row = snr * r
    row[0] += 1.0
    return float(np.mean(np.log(_innovation_variances(row))))

