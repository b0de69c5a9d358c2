"""Independent reference implementations used to check the library.

Nothing here may call the routine it checks: integrals go through adaptive
Simpson quadrature with Richardson extrapolation evaluated pointwise on
the density, eigenvalues through numpy's general LAPACK solver, tails through
Monte Carlo draws.  Random piecewise densities exercise the closed forms
away from the hand-picked examples.
"""

from __future__ import annotations

import math

import numpy as np

from prelog_lab.spectra import SpectralDensity, make_piecewise


def adaptive_simpson(f, a: float, b: float, tol: float = 1e-13, depth: int = 48):
    """Recursive Simpson with Richardson extrapolation; handles complex f."""
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    def recurse(a, fa, m, fm, b, fb, whole, tol, depth):
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        flm, frm = f(lm), f(rm)
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        if depth <= 0 or abs(left + right - whole) <= 15.0 * tol:
            return left + right + (left + right - whole) / 15.0
        return recurse(a, fa, lm, flm, m, fm, left, tol / 2.0, depth - 1) + recurse(
            m, fm, rm, frm, b, fb, right, tol / 2.0, depth - 1
        )

    return recurse(a, fa, m, fm, b, fb, whole, tol, depth)


def _segmentwise(S: SpectralDensity, integrand):
    """Sum adaptive Simpson over the segments of S.

    The left endpoint is nudged inward one ulp so the quadrature sees the
    segment's own one-sided limit (boundary harmonics belong to the left
    neighbor), which only changes the integrand on a null set.
    """
    total = 0.0 + 0.0j
    for lo, hi, _ in S.segments:
        a = math.nextafter(lo, hi)
        total += adaptive_simpson(integrand, a, hi)
    return total


def quad_log_integral(S: SpectralDensity, snr: float) -> float:
    """Quadrature route for the spectral log-integral."""
    val = _segmentwise(S, lambda lam: math.log1p(snr * S.density_at(lam)))
    return float(val.real)


def quad_autocovariance(S: SpectralDensity, m: int) -> complex:
    """Quadrature route for r(m) = integral e^{i 2 pi m lam} F'(lam)."""
    w = 2j * math.pi * m
    return complex(
        _segmentwise(S, lambda lam: np.exp(w * lam) * S.density_at(lam))
    )


def eig_oracle(A: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, ascending, from LAPACK's general
    (non-Hermitian) solver, so no library route checks itself."""
    return np.sort(np.linalg.eigvals(A).real)


def random_density(rng: np.random.Generator, unit_variance: bool = False,
                   force_zero_band: bool = False) -> SpectralDensity:
    """Random piecewise-constant density with a sprinkling of exact zeros."""
    while True:
        k = int(rng.integers(3, 9))
        cuts = np.sort(rng.uniform(-0.5, 0.5, k - 1))
        edges = np.concatenate(([-0.5], cuts, [0.5]))
        if np.min(np.diff(edges)) < 1e-4:
            continue
        vals = rng.uniform(0.2, 3.0, k)
        zero_mask = rng.uniform(0.0, 1.0, k) < 0.35
        if force_zero_band and not zero_mask.any():
            zero_mask[int(rng.integers(0, k))] = True
        vals[zero_mask] = 0.0
        if not (vals > 0).any():
            continue
        if unit_variance:
            mass = float(np.sum(np.diff(edges) * vals))
            vals = vals / mass
        segments = [
            (float(edges[i]), float(edges[i + 1]), float(vals[i])) for i in range(k)
        ]
        return make_piecewise(segments)


def toeplitz_matrix(first_row) -> np.ndarray:
    """Dense Hermitian Toeplitz matrix straight from its first row."""
    r = np.asarray(first_row, dtype=np.complex128)
    n = r.size
    M = np.empty((n, n), dtype=np.complex128)
    for j in range(n):
        for k in range(n):
            d = k - j
            M[j, k] = r[d] if d >= 0 else np.conj(r[-d])
    return M
