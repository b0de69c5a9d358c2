"""Sample-path simulation of the fading processes.

Stationary Gaussian paths are zero-mean and synthesized as a superposition
of M = HARMONICS (4096) random-phase harmonics whose frequencies are drawn
from the normalized spectral measure (stratified, one frequency per
equal-mass stratum).  The empirical autocovariance of such a path matches
the closed form of the spectrum, and the law is asymptotically Gaussian in
M.

Reproducibility contract: identical (model, n, seed) gives bit-identical
paths.  The generator is counter-based (Philox) keyed by (seed, stream),
with a distinct stream per draw purpose so fading, parity, phases and
Monte Carlo checks are mutually independent.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .bounds import FadingModel
from .errors import DomainError, check_positive
from .spectra import AutocovarianceSeq, SpectralDensity, make_onoff_spectrum, make_rect_band

# Philox stream tags, one per draw purpose; a tag is never renumbered, so
# every path keeps its bits
STREAM_FADING = 1
STREAM_NOISE = 2  # reserved for channel noise
STREAM_PARITY = 3
STREAM_PHASE = 4
STREAM_TAIL_MC = 5

HARMONICS = 4096
# block height of the harmonic power table; trades memory for gemm size
_SYNTH_BLOCK = 2048


def stream_rng(seed: int, stream: int) -> np.random.Generator:
    """Counter-based generator for one (seed, stream) pair.

    The seed is one 64-bit word of the Philox key, so it must lie in
    [0, 2**64); anything else raises DomainError.
    """
    if not 0 <= seed < 2**64:
        raise DomainError(f"seed must lie in [0, 2**64), got {seed}")
    key = np.array([seed, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class SamplePath:
    """Realization H_1..H_n of a fading process."""

    values: np.ndarray
    model_name: str
    seed: int

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.complex128)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 1 or vals.size < 1:
            raise DomainError("path must hold at least one sample")

    @property
    def n(self) -> int:
        return self.values.size


def _draw_frequencies(S: SpectralDensity, M: int, rng: np.random.Generator) -> np.ndarray:
    """M frequencies from the normalized spectral measure, stratified.

    One uniform draw per equal-mass stratum of the piecewise-linear inverse
    CDF; stratification pins the empirical spectrum to the target at rate
    1/M instead of 1/sqrt(M).
    """
    segs = [(lo, hi, v) for lo, hi, v in S.segments if v > 0.0]
    widths = np.array([hi - lo for lo, hi, _ in segs])
    vals = np.array([v for _, _, v in segs])
    los = np.array([lo for lo, _, _ in segs])
    masses = widths * vals
    cum = np.concatenate(([0.0], np.cumsum(masses)))
    total = cum[-1]
    t = (np.arange(M) + rng.uniform(0.0, 1.0, M)) / M * total
    idx = np.clip(np.searchsorted(cum, t, side="right") - 1, 0, len(segs) - 1)
    return los[idx] + (t - cum[idx]) / vals[idx]


def _synthesize(lam: np.ndarray, amp: np.ndarray, n: int) -> np.ndarray:
    """sum_j amp_j exp(i 2 pi lam_j k) for k = 0..n-1, blockwise.

    Builds a (block, M) table of per-step phasor powers once, then walks
    the path in chunks with a single matrix product per chunk.
    """
    M = lam.size
    D = min(_SYNTH_BLOCK, n)
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


def simulate_gaussian(S: SpectralDensity, n: int, seed: int) -> SamplePath:
    """Stationary zero-mean circularly-symmetric Gaussian path with spectrum S.

    Harmonic superposition of HARMONICS stratified spectral frequencies
    with IID uniform phases.
    """
    if n < 1:
        raise DomainError(f"path length must be >= 1, got {n}")
    rng = stream_rng(seed, STREAM_FADING)
    lam = _draw_frequencies(S, HARMONICS, rng)
    phases = rng.uniform(0.0, 2.0 * np.pi, HARMONICS)
    amp = np.sqrt(S.variance / HARMONICS) * np.exp(1j * phases)
    return SamplePath(_synthesize(lam, amp, n), f"gaussian:{S.to_json()}", seed)


def simulate_onoff(W: float, n: int, seed: int) -> SamplePath:
    """Path of the on-off product process H_k = A_k B_k.

    B is bandlimited Gaussian fading of half-width W and variance 2; A
    turns one whole parity class of time indices off, the class chosen by
    a fair coin per path.  Half the samples are exact zeros.
    """
    if not 0 < W < 0.25:
        raise DomainError(f"on-off half-width must lie in (0, 1/4), got {W}")
    if n < 1:
        raise DomainError(f"path length must be >= 1, got {n}")
    spectrum_b = make_rect_band(W, variance=2.0)
    b_path = simulate_gaussian(spectrum_b, n, seed)
    parity = int(stream_rng(seed, STREAM_PARITY).integers(0, 2))
    vals = np.array(b_path.values, copy=True)
    vals[parity::2] = 0.0
    return SamplePath(vals, f"onoff:W={W!r}", seed)


def _unit_phasors(rng: np.random.Generator, n: int) -> np.ndarray:
    """n uniformly distributed phasors with |z| exactly 1 in floats.

    cos/sin pairs do not always round to a unit-modulus complex, so draw
    extra angles and keep only the exactly-unit results; the kept angles
    remain uniform because the rounding defect is phase-symmetric at the
    resolution of the grid of representable phasors.
    """
    out = np.empty(n, dtype=np.complex128)
    filled = 0
    while filled < n:
        draw = int((n - filled) * 1.5) + 16
        theta = rng.uniform(-np.pi, np.pi, draw)
        z = np.cos(theta) + 1j * np.sin(theta)
        z = z[np.abs(z) == 1.0]
        take = min(n - filled, z.size)
        out[filled:filled + take] = z[:take]
        filled += take
    return out


def simulate_phase_noise(n: int, seed: int) -> SamplePath:
    """IID uniform-phase unit-modulus path H_k = e^{i Theta_k}.

    Every sample satisfies |H_k| = 1 exactly, not merely to rounding.
    """
    if n < 1:
        raise DomainError(f"path length must be >= 1, got {n}")
    rng = stream_rng(seed, STREAM_PHASE)
    return SamplePath(_unit_phasors(rng, n), "phase-noise", seed)


def simulate_model(model: FadingModel, n: int, seed: int) -> SamplePath:
    """Path of the model's process, the sampler picked by its law.

    The onoff law names the on-off product process, so its paths need the
    spectrum make_onoff_spectrum(W) of some W; FadingModel already holds
    the unit law to the flat spectrum.
    """
    if model.law == "unit":
        return simulate_phase_noise(n, seed)
    if model.law == "onoff":
        return simulate_onoff(_onoff_halfwidth(model.spectrum), n, seed)
    return simulate_gaussian(model.spectrum, n, seed)


def _onoff_halfwidth(S: SpectralDensity) -> float:
    """W such that S is make_onoff_spectrum(W)."""
    # the band around zero of the on-off spectrum ends at its half-width
    W = next(hi for lo, hi, _ in S.segments if lo < 0 <= hi)
    if not (0 < W < 0.25 and S == make_onoff_spectrum(W)):
        raise DomainError("an onoff-law path needs the spectrum make_onoff_spectrum(W)")
    return W


def marginal_draws(model: FadingModel, n: int, seed: int) -> np.ndarray:
    """n independent draws of H1 under the model's law."""
    rng = stream_rng(seed, STREAM_TAIL_MC)
    if model.law == "rayleigh":
        g = rng.standard_normal(2 * n)
        return (g[0::2] + 1j * g[1::2]) * math.sqrt(0.5)
    if model.law == "onoff":
        g = rng.standard_normal(2 * n)
        b = g[0::2] + 1j * g[1::2]  # variance 2
        a = rng.integers(0, 2, n)
        return a * b
    return _unit_phasors(rng, n)


def tail_probability(model: FadingModel, upsilon: float) -> float:
    """Closed-form P(|H1| >= upsilon) from the model's tail function."""
    check_positive("threshold", upsilon)
    return model.tail(upsilon)


def tail_probability_mc(
    model: FadingModel, upsilon: float, n_samples: int = 1_000_000, seed: int = 0
) -> float:
    """Monte Carlo estimate of the tail, the cross-check for closed forms."""
    check_positive("threshold", upsilon)
    draws = marginal_draws(model, n_samples, seed)
    return float(np.mean(np.abs(draws) >= upsilon))


def empirical_autocov(path: SamplePath, m_max: int) -> AutocovarianceSeq:
    """Biased autocovariance estimate r(m) over lags 0..m_max.

    r(m) = (1/n) sum_k (H_{k+m} - mean)(H_k - mean)*; the 1/n normalization
    keeps the estimated sequence positive semidefinite.
    """
    n = path.n
    if m_max < 0:
        raise DomainError(f"m_max must be nonnegative, got {m_max}")
    if m_max >= n:
        raise DomainError(f"m_max = {m_max} needs a path longer than {n}")
    h = path.values - np.mean(path.values)
    vals = []
    for m in range(m_max + 1):
        if m == 0:
            vals.append(complex(np.sum(h * np.conj(h)).real / n))
        else:
            vals.append(complex(np.sum(h[m:] * np.conj(h[:-m])) / n))
    return AutocovarianceSeq(tuple(vals))


# ---------------------------------------------------------------------------
# path files

_HEADER = struct.Struct("<QQ")  # n, seed


def write_path_csv(path: SamplePath, fname: str) -> None:
    """Write k, re, im rows; floats at full round-trip precision."""
    with open(fname, "w", encoding="utf-8", newline="") as fh:
        fh.write("k,re,im\n")
        for k, v in enumerate(path.values):
            fh.write(f"{k},{float(v.real)!r},{float(v.imag)!r}\n")


def write_path_binary(path: SamplePath, fname: str) -> None:
    """16-byte header (n, seed as little-endian u64) then interleaved
    re/im little-endian doubles."""
    flat = np.empty(2 * path.n, dtype="<f8")
    flat[0::2] = path.values.real
    flat[1::2] = path.values.imag
    with open(fname, "wb") as fh:
        fh.write(_HEADER.pack(path.n, path.seed & 0xFFFFFFFFFFFFFFFF))
        fh.write(flat.tobytes())


def read_path_binary(fname: str) -> SamplePath:
    """Read a path written by write_path_binary; model name is not stored."""
    with open(fname, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) != _HEADER.size:
            raise DomainError(f"{fname}: truncated header")
        n, seed = _HEADER.unpack(head)
        flat = np.frombuffer(fh.read(), dtype="<f8")
    if flat.size != 2 * n:
        raise DomainError(f"{fname}: expected {2 * n} floats, found {flat.size}")
    return SamplePath(flat[0::2] + 1j * flat[1::2], "binary", int(seed))
