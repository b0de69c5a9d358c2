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
# steps between the moves of a real row's a over its gap of zeros; 16 and
# 64 ran within 1% of 32 at n = 64..1024
_COMPACT = 32


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
    """Real eigenvalues of a Hermitian (Toeplitz) covariance, ascending.
    A must be a nonempty square matrix of finite entries (DomainError)."""
    A = np.asarray(A, dtype=np.complex128)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DomainError(f"need a square matrix, got shape {A.shape}")
    if A.size == 0:
        raise DomainError("need a matrix of at least one entry, got shape (0, 0)")
    if not np.isfinite(A).all():
        raise DomainError("matrix entries must be finite")
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
    NumericError when some P_k, P_0 = r(0) included, is not positive.

    A row whose imaginary parts are all exactly zero (a spectrum symmetric
    about 0, as every built-in model has) runs on float64 arrays; a row
    with any nonzero imaginary part runs on complex128 arrays.  Both give
    the bits of the complex recursion: with zero imaginary parts numpy's
    complex product rounds as the real product, with or without fused
    multiply-adds; numpy's complex quotient of two reals is
    (-b0) * (1 / a0), which the real route repeats (the true division
    -b0 / a0 differs in the last bit); and abs is hypot on both routes,
    which is |x| for a real x.

    A real row runs on one buffer X of 2n floats: b reversed, a gap, then
    a.  At step k, with L = n - k live entries and a starting at X[A],
    b[j] is X[L-1-j] and a[j] is X[A+j], so the slice s = X[:L+A] read
    backwards pairs each b[j] with a[j] and each gap entry with another
    gap entry, and s += (kappa * s)[::-1] gives b + fl(kappa a) and
    a + fl(kappa b) in two numpy calls, the same bits as two updates.
    The step eliminates b[0], X[L-1], which joins the gap: a stays in
    place and the next b is X[:L-1], so no entry moves.  The eliminated
    entry is a rounding residue, set to 0.0, so the gap pairs only zeros
    and can neither overflow nor warn.  The gap's zeros still cost a
    multiply and an add each, and the add over a reversed view runs
    numpy's strided loop, so every _COMPACT steps one overlapping copy
    moves a left over the gap; with no copy, n = 1024 ran 9% slower than
    the three-call step on [v | u | copy of b] that this one replaced.
    A complex row keeps two arrays and four calls a step: its halves need
    kappa and conj(kappa), and a palindrome with b stored conjugated,
    s += conj(kappa * s)[::-1], was bit-exact but slower than the two
    arrays, as numpy's complex add over a reversed view leaves its
    contiguous loop.
    """
    v = np.array(first_row, dtype=np.complex128)
    n = v.size
    P = np.empty(n)
    p = P[0] = float(v[0].real)
    if not p > 0.0:
        raise NumericError(f"innovation variance P_0 = {p} is not positive")
    real = not v.imag.any()
    if real:
        X = np.empty(2 * n)
        X[n:] = v.real
        X[:n] = v.real[::-1]
        X[n - 1] = 0.0  # b starts at r(1): r(0) is eliminated, a gap of one
        A = n
        x = memoryview(X)  # reads and stores one float in half X.item's time
    else:
        # generator pair: u shifts right one place per step, so u[i] holds
        # the entry at position i + k; v stays in place and v[k] is eliminated
        u = v.copy()
        v[0] = 0.0
    for k in range(1, n):
        L = n - k
        if real:
            kappa = -x[L - 1] * (1.0 / x[A])
            s = X[:L + A]  # a named view: X[...] += would assign it back
            s += (kappa * s)[::-1]
            x[L - 1] = 0.0
            if not k % _COMPACT:  # a, now L - 1 long, moves up to b
                X[L - 1:2 * L - 2] = X[A:A + L - 1]
                A = L - 1
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

