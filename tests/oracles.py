"""Independent reference implementations used to check the library.

Nothing here may call the routine it checks: integrals go through adaptive
Simpson quadrature with Richardson extrapolation evaluated pointwise on
the density, eigenvalues through numpy's general LAPACK solver, tails through
Monte Carlo draws, the threshold optimum through a plain-float loop, the
empirical autocovariance through one whole-path np.sum per lag, Gaussian
path synthesis through one product with the whole harmonic power table,
unit-modulus phasors through one draw of 1.5 times the phasors still
missing, path CSV and binary files through one write per row or
sample, and the closed-form bounds past the float range through 40-digit
decimal arithmetic.
Random piecewise densities exercise the closed forms away from the
hand-picked examples.  The small helpers below (sinc, density_at,
spectrum_json, log_grid, FLOOR_SPECTRUM) exist only for tests; the library
has no copy.
"""

from __future__ import annotations

import json
import math
import struct
from decimal import Decimal, localcontext

import numpy as np

from prelog_lab.spectra import SpectralDensity


def sinc(x: float) -> float:
    """Normalized sinc, sin(pi x)/(pi x) with sinc(0) = 1."""
    if x == 0:
        return 1.0
    return math.sin(math.pi * x) / (math.pi * x)


def density_at(S: SpectralDensity, lam: float) -> float:
    """F'(lam) of S.  A boundary harmonic takes the value of the segment on
    its left, and -1/2 that of the first segment."""
    if lam == -0.5:
        return S.segments[0][2]
    for lo, hi, v in S.segments:
        if lo < lam <= hi:
            return v
    raise ValueError(f"harmonic {lam} outside [-1/2, 1/2]")


def spectrum_json(S: SpectralDensity) -> str:
    """S as the text of a spectrum file, the form SpectralDensity.from_json
    and the CLI's custom: models read."""
    return json.dumps({"segments": [list(seg) for seg in S.segments],
                       "variance": S.variance})


def log_grid(lo: float, hi: float, points: int) -> list[float]:
    """points log-spaced values from lo to hi, by the formula of
    bounds.default_upsilon_grid (points >= 2)."""
    step = (math.log(hi) - math.log(lo)) / (points - 1)
    return [math.exp(math.log(lo) + k * step) for k in range(points)]


# unit variance with a 1e-3 density floor and no exact zero: zero-set
# measure 0, so pre-log 0, while every finite-snr ratio is positive
FLOOR_SPECTRUM = ('{"segments": [[-0.5, -0.05, 0.001], [-0.05, 0.05, 9.991], '
                  '[0.05, 0.5, 0.001]], "variance": 1.0}')


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
    val = _segmentwise(S, lambda lam: math.log1p(snr * density_at(S, lam)))
    return float(val.real)


def quad_autocovariance(S: SpectralDensity, m: int) -> complex:
    """Quadrature route for r(m) = integral e^{i 2 pi m lam} F'(lam)."""
    w = 2j * math.pi * m
    return complex(
        _segmentwise(S, lambda lam: np.exp(w * lam) * density_at(S, lam))
    )


def eig_oracle(A: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, ascending, from LAPACK's general
    (non-Hermitian) solver, so no library route checks itself."""
    return np.sort(np.linalg.eigvals(A).real)


def threshold_bounds(tail, S: SpectralDensity, snr: float, grid) -> list[float]:
    """The threshold capacity lower bound at each point of the sorted grid,
    one threshold at a time in plain floats, with the segment-sum integral
    written out here."""
    integral = math.fsum(
        (hi - lo) * math.log1p(snr * v) for lo, hi, v in S.segments if v > 0.0
    )
    out = []
    for u in sorted(grid):
        p = tail(u)
        out.append(p * math.log(snr) - p * (1.0 - math.log(u * u)) - integral)
    return out


def threshold_argmax(tail, S: SpectralDensity, snr: float, grid):
    """(upsilon_star, bound): the first strict maximum of threshold_bounds
    over the sorted grid."""
    best_u, best_lb = None, -math.inf
    for u, lb in zip(sorted(grid), threshold_bounds(tail, S, snr, grid)):
        if lb > best_lb:
            best_u, best_lb = u, lb
    return best_u, best_lb


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
        return SpectralDensity(segments, math.fsum((hi - lo) * v for lo, hi, v in segments))


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


def direct_autocov(values, m_max: int) -> list[complex]:
    """Biased autocovariance over lags 0..m_max, one whole-path sum per lag."""
    h = values - np.mean(values)
    n = h.size
    vals = []
    for m in range(m_max + 1):
        if m == 0:
            vals.append(complex(np.sum(h * np.conj(h)).real / n))
        else:
            vals.append(complex(np.sum(h[m:] * np.conj(h[:-m])) / n))
    return vals


def unit_phasors(rng: np.random.Generator, n: int) -> np.ndarray:
    """The first n exactly-unit phasors cos + i sin of the rng's uniform
    angles on [-pi, pi), each round drawing 1.5 times the phasors still
    missing plus 16 angles."""
    out = np.empty(n, dtype=np.complex128)
    filled = 0
    while filled < n:
        theta = rng.uniform(-np.pi, np.pi, int((n - filled) * 1.5) + 16)
        z = np.cos(theta) + 1j * np.sin(theta)
        z = z[np.abs(z) == 1.0]
        take = min(n - filled, z.size)
        out[filled:filled + take] = z[:take]
        filled += take
    return out


def path_csv_rows(values, fname: str) -> None:
    """k, re, im rows of a path, one row per write."""
    with open(fname, "w", encoding="utf-8", newline="") as fh:
        fh.write("k,re,im\n")
        for k, v in enumerate(values):
            fh.write(f"{k},{float(v.real)!r},{float(v.imag)!r}\n")


def path_binary_elements(values, seed: int, fname: str) -> None:
    """n, seed header then re, im of each sample, one struct.pack per sample."""
    with open(fname, "wb") as fh:
        fh.write(struct.pack("<QQ", len(values), seed))
        for v in values:
            fh.write(struct.pack("<dd", v.real, v.imag))


def whole_table_synthesis(lam, amp, n: int) -> np.ndarray:
    """sum_j amp_j exp(i 2 pi lam_j k) for k = 0..n-1 as one product of the
    whole (min(2048, n), M) harmonic power table with the chunk matrix."""
    M = lam.size
    D = min(2048, n)
    z = np.exp(2j * np.pi * lam)
    P = np.empty((D, M), dtype=np.complex128)
    P[0] = 1.0
    for d in range(1, D):
        P[d] = P[d - 1] * z
    chunks = -(-n // D)
    zD = np.exp(2j * np.pi * lam * D)
    W = np.empty((M, chunks), dtype=np.complex128)
    col = amp.astype(np.complex128)
    for c in range(chunks):
        W[:, c] = col
        col = col * zD
    return (P @ W).T.ravel()[:n]


# significant digits of the decimal references below, and pi to 50 digits
DECIMAL_DIGITS = 40
_PI = Decimal("3.1415926535897932384626433832795028841971693993751")
# the tails of bounds.LAWS in decimal arithmetic
DECIMAL_TAILS = {
    "rayleigh": lambda u: (-u * u).exp(),
    "onoff": lambda u: (-u * u / 2).exp() / 2,
}


def decimal_log_integral(S: SpectralDensity, snr: float) -> float:
    """integral log(1 + snr F') over S at DECIMAL_DIGITS digits."""
    with localcontext() as ctx:
        ctx.prec = DECIMAL_DIGITS
        return float(_dec_log_integral(S, Decimal(snr)))


def _dec_log_integral(S: SpectralDensity, snr: Decimal) -> Decimal:
    return sum(((Decimal(hi) - Decimal(lo)) * (1 + snr * Decimal(v)).ln()
                for lo, hi, v in S.segments if v > 0), Decimal(0))


def decimal_coherent_upper(p: float, snr: float) -> float:
    """p log(1 + snr/p) at DECIMAL_DIGITS digits."""
    with localcontext() as ctx:
        ctx.prec = DECIMAL_DIGITS
        p_d = Decimal(p)
        return float(p_d * (1 + Decimal(snr) / p_d).ln())


def decimal_phase_lower(snr: float) -> float:
    """log snr - (1/2) log(4 pi e (2 + 4 snr)) + log 2 at DECIMAL_DIGITS
    digits."""
    with localcontext() as ctx:
        ctx.prec = DECIMAL_DIGITS
        s = Decimal(snr)
        x = 4 * _PI * Decimal(1).exp() * (2 + 4 * s)
        return float(s.ln() - x.ln() / 2 + Decimal(2).ln())


def decimal_threshold_lower(law: str, S: SpectralDensity, snr: float, u: float) -> float:
    """The threshold lower bound P{|H1| >= u} (log snr - 1 + log u^2) -
    integral log(1 + snr F') of a DECIMAL_TAILS law at DECIMAL_DIGITS
    digits."""
    with localcontext() as ctx:
        ctx.prec = DECIMAL_DIGITS
        s, u_d = Decimal(snr), Decimal(u)
        tail = DECIMAL_TAILS[law](u_d)
        return float(tail * (s.ln() - 1 + (u_d * u_d).ln()) - _dec_log_integral(S, s))
