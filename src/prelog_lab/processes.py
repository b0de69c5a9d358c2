"""Sample-path simulation of the fading processes.

Paths of the Gaussian laws are zero-mean and synthesized as a
superposition of M = HARMONICS (4096) equal-power random-phase harmonics
whose frequencies are drawn from the normalized spectral measure
(stratified, one frequency per equal-mass stratum).  The empirical
autocovariance of such a path matches the closed form of the spectrum.
The law is not exactly Gaussian, only asymptotically in M: a sample H has
E|H|^4 = (2 - 1/M) var^2, where a circularly-symmetric Gaussian has
2 var^2.  The harmonics' sum at every sample time is one nonuniform FFT
(Gaussian gridding, see _synthesize), whose error, near 1e-14, does not
grow along the path.

Memory: a path of n samples is made inside a grid of the least power of
two of at least 2n points and _GRID_FLOOR (at most 64 n bytes), in which
the FFT runs in place, and the grid is then cut to the path's 16 n
bytes: 38.1 MiB traced at n = 1e6, and a rise of the peak resident set
(VmHWM) of 42.7 MiB, 537 MiB at n = 1e7 (numpy 2.4).  On-off paths
compute only the samples they keep, on a grid of half the length, and
write the others as exact zeros (21.3 MiB traced and a 29.2 MiB VmHWM
rise at n = 1e6, 274 MiB at n = 1e7).  Unit-modulus phasors are drawn
at most _PHASOR_BLOCK angles at a time, cos and sin written into the
parts of one reused block, so a phase-noise path or n unit-law marginal
draws cost their output plus about 3.4 MiB of temporaries (18.7 MiB traced at
n = 1e6).  A unit-law Monte Carlo tail draws nothing: its value is known
exactly.  Gaussian Monte Carlo draws are the buffer of 2n standard
normals read as n complex pairs and scaled in place, so a 1e6-draw
Rayleigh or on-off tail costs the draws, their moduli and the comparison (23.8 MiB traced; 30.6 and
53.5 MiB with the complex temporaries of g[0::2] + 1j * g[1::2]).
The empirical autocovariance costs the centred path, one conjugated
window of about 1.25 MiB, a 256 KiB product buffer and one leaf sum per
256 KiB or less of each lag's sum (about 64 per lag at n = 1e6).  A CSV
path file is written _CSV_ROWS rows at a time, so its text costs one
block, whatever the path length.

Reproducibility contract: identical (model, n, seed) gives bit-identical
paths.  The generator is counter-based (Philox) keyed by (seed, stream),
with a distinct stream per draw purpose so fading, parity, phases and
Monte Carlo checks are mutually independent.
"""

from __future__ import annotations

import math
import struct
import sys

import numpy as np

from ._record import Record
from .bounds import FadingModel
from .errors import MAX_ELEMENTS, DomainError, as_complex, check_index, check_positive
from .spectra import AutocovarianceSeq, SpectralDensity, make_onoff_spectrum, make_rect_band

# Philox stream tags, one per draw purpose; a tag is never renumbered, so
# every path keeps its bits
STREAM_FADING = 1
STREAM_NOISE = 2  # channel noise is gone; reserved so no purpose is renumbered
STREAM_PARITY = 3
STREAM_PHASE = 4
STREAM_TAIL_MC = 5

HARMONICS = 4096
# Gaussian gridding kernel of _synthesize: each harmonic is spread onto
# _KERNEL_WIDTH grid points; _KERNEL_BETA is Greengard and Lee's tau for
# half-width _KERNEL_HALF at oversampling 2, pi (2 - 1/2) / (2 _KERNEL_HALF),
# in grid steps.  Against an exact-phase sum, half-widths 15 and 17 and
# betas 0.14-0.16 moved the error by under a factor 2 either way.
_KERNEL_HALF = 16
_KERNEL_WIDTH = 2 * _KERNEL_HALF
_KERNEL_BETA = 0.75 * math.pi / _KERNEL_HALF
_KERNEL_OFFSETS = np.arange(1 - _KERNEL_HALF, _KERNEL_HALF + 1)
# fewest grid points: the spread evaluates HARMONICS * _KERNEL_WIDTH kernel
# weights, about the work of an FFT of the largest N with N log2 N at most
# that (8192), so a smaller grid saves nothing.  A path of up to 2048
# samples thus gets a grid of at least 4 times its length, which holds its
# error near 1e-15: on grids of about 2L points the error at the ends of
# the path reached 3e-14, and 3e-13 on grids of 4 to 32 points, where
# every grid point sums thousands of weights.
_GRID_FLOOR = max(1 << p for p in range(1, 64) if p << p <= HARMONICS * _KERNEL_WIDTH)
# complex elements in 256 KiB: from this size up numpy evaluates
# a * np.conj(b) as multiply(conj_tmp, a, out=conj_tmp) (temporary elision)
_ELIDE_LEN = 256 * 1024 // 16
# most complex elements per leaf of a lag sum: a 256 KiB buffer stays in
# cache with the two path slices it reads; at least numpy's 64-element leaf
_SUM_BLOCK = 1 << 14
# path elements whose leaves one conjugated window serves; the window holds
# one more block, so a leaf starting in them ends inside it (1.25 MiB)
_SUM_WINDOW = 4 * _SUM_BLOCK
# most angles one draw of _unit_phasors takes (512 KiB of them)
_PHASOR_BLOCK = 1 << 16
# most samples _synthesize moves in one piece (1 MiB of them)
_MOVE_PIECE = 1 << 16


def stream_rng(seed: int, stream: int) -> np.random.Generator:
    """Counter-based generator for one (seed, stream) pair.

    The seed is one 64-bit word of the Philox key, so it must be an
    integer in [0, 2**64); anything else raises DomainError.
    """
    seed = check_index("seed", seed, 0, 2**64)
    key = np.array([seed, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


class SamplePath(Record):
    """Realization H_1..H_n of a fading process.

    values is a read-only complex128 copy of the caller's array, and paths
    compare and hash by (seed, samples), the samples bit for bit.  Every
    sample must be a finite number (see errors.as_complex).
    """

    __slots__ = ("values", "seed")

    def __init__(self, values, seed: int):
        _own_path(_finite(_sample_array(values)), seed, self)

    @property
    def n(self) -> int:
        return self.values.size

    def _key(self) -> tuple:
        return self.seed, self.values.tobytes()

    def __reduce__(self):  # an unpickled or deep-copied array is writeable
        return _own_path, (self.values, self.seed)


def _own_path(vals: np.ndarray, seed: int, path: SamplePath | None = None) -> SamplePath:
    """path, or a new SamplePath, holding vals itself, made read-only: a
    complex128 array no caller keeps, so the library's paths take no copy."""
    path = object.__new__(SamplePath) if path is None else path
    vals.setflags(write=False)
    object.__setattr__(path, "values", vals)
    object.__setattr__(path, "seed", check_index("seed", seed, 0, 2**64))
    if vals.ndim != 1 or vals.size < 1:
        raise DomainError("path must hold at least one sample")
    return path


def _sample_array(values) -> np.ndarray:
    """values as a new complex128 array; a sample that is no number raises
    DomainError."""
    raw = np.asarray(values)
    if raw.dtype.kind == "O":  # Python objects, each read as errors reads a number
        return np.array([as_complex("path sample", v) for v in raw.flat],
                        dtype=np.complex128).reshape(raw.shape)
    if raw.dtype.kind not in "biufc":
        raise DomainError(f"path samples must be numbers, got {raw.dtype} values")
    with np.errstate(over="ignore"):  # a long double past the float range is inf
        return raw.astype(np.complex128)


def _finite(vals: np.ndarray) -> np.ndarray:
    """vals, once every sample is finite; else DomainError.  Only the
    caller's samples are scanned: the library's own paths are finite."""
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        raise DomainError(f"path samples must be finite, got {vals.flat[bad[0]]} "
                          f"at index {bad[0]}")
    return vals


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


def _synthesize(lam: np.ndarray, amp: np.ndarray, n: int,
                off_parity: int | None = None) -> np.ndarray:
    """sum_j amp_j exp(i 2 pi lam_j k) for k = 0..n-1, by one nonuniform FFT.

    The sum is a type-1 nonuniform DFT, evaluated by Gaussian gridding
    (Greengard & Lee, SIAM Review 46(3), 2004).  The computed samples are
    k = start + step t for t = 0..L-1, and with c = start + step (L // 2)
    sample k is sum_j b_j exp(i 2 pi step lam_j m) at m = t - L // 2, where
    b_j = amp_j exp(i 2 pi lam_j c).  Each b_j is spread onto the
    _KERNEL_WIDTH points of a periodic grid of N points nearest
    step lam_j N, with the Gaussian weights exp(-_KERNEL_BETA u^2) of its
    distance u in grid steps; one inverse FFT of the grid gives every m at
    once, and dividing by the kernel's transform,
    sqrt(pi / _KERNEL_BETA) exp(-(pi m / N)^2 / _KERNEL_BETA), undoes the
    spread.  Centring m on zero keeps |m| / N at most 1/4, where that
    division amplifies rounding least.

    The phases lam_j c are reduced mod 1 in Python integers before their
    one rounding, and step lam_j N is exact (N and step are powers of two),
    so no phase error grows with k: the error is that of the kernel and
    the FFT, about 1e-14 at N = 2L and 1e-15 from N = 4L on (see
    _GRID_FLOOR).  N is the least power of two of at least 2L points and
    _GRID_FLOOR, so the grid costs at most 64 L bytes, and the path is made
    inside it: the spread's temporaries are freed before the transform,
    every computed sample is moved to its k in the grid, and the grid is
    cut to the n samples.  A Gaussian path of 1e6 samples thus peaks at
    38.1 MiB traced and raises the peak resident set (VmHWM) by 42.7 MiB,
    the 32 MiB grid and the FFT's own buffers.

    off_parity: samples k with k % 2 == off_parity are exact zeros and are
    not computed; the kept ones (step 2) take a grid of half the length.
    """
    start, step = (0, 1) if off_parity is None else (1 - off_parity, 2)
    L = len(range(start, n, step))
    if L == 0:
        return np.zeros(n, dtype=np.complex128)
    half = L // 2
    N = max(_GRID_FLOOR, 1 << (2 * L - 1).bit_length())
    # the grid comes first, so a path too long to hold fails before any
    # work; one numpy cannot even size would raise ValueError, not
    # MemoryError.  An on-off path of 2 L + 1 samples reaches one past a
    # grid of 2 L points.
    size = max(N, n)
    if 16 * size > sys.maxsize:
        raise MemoryError(f"Unable to allocate a synthesis grid of {size} complex128 points")
    y = np.zeros(size, dtype=np.complex128)
    rows = 1 << (N.bit_length() - 1) // 2
    centre = start + step * half
    turns = [num * centre % den / den
             for num, den in map(float.as_integer_ratio, lam.tolist())]
    b = amp * np.exp(2j * np.pi * np.array(turns))
    pos = (step * N) * lam
    near = np.floor(pos)
    u = (pos - near)[:, None] - _KERNEL_OFFSETS
    weights = b[:, None] * np.exp(-_KERNEL_BETA * u * u)
    del u
    points = (near.astype(np.int64)[:, None] + _KERNEL_OFFSETS) % N
    # point p at grid[p % rows, p // rows]; numpy's fast add.at takes
    # one-dimensional indices only
    points = points % rows * (N // rows) + points // rows
    np.add.at(y, points.ravel(), weights.ravel())
    del b, pos, near, weights, points
    grid = y[:N].reshape(rows, N // rows)
    _inverse_fft(grid)
    # kept sample t is y[m] at m = t - half >= 0, else y[N + m], times the
    # kernel's 1 / transform at |m|; it goes to y[start + step t]
    top = L - half
    low = y[N - half:N]
    if start + step * (L - 1) >= N - half:  # kept samples reach over them
        low = low.copy()
    # top-down, each piece at most half long: the piece of m in [lo, hi)
    # reads y[lo:hi] and writes from centre + step lo >= half + lo >= hi
    # on, so it reads nothing that it or an earlier piece wrote
    piece = max(1, min(half, _MOVE_PIECE))
    for hi in range(max(top, half + 1), 0, -piece):
        lo = max(0, hi - piece)
        # 1 / transform of the kernel at |m| = lo..hi-1
        undo = np.arange(lo, hi, dtype=np.float64)
        undo *= undo
        undo *= (np.pi / N) ** 2 / _KERNEL_BETA
        np.exp(undo, out=undo)
        undo *= math.sqrt(_KERNEL_BETA / math.pi)
        end = min(hi, top)
        if lo < end:
            np.multiply(y[lo:end], undo[:end - lo],
                        out=y[centre + step * lo:centre + step * end:step])
        # below the centre, |m| in [m0, m1) is low[half - |m|]
        m0, m1 = max(lo, 1), min(hi, half + 1)
        if m0 < m1:
            low[half + 1 - m1:half + 1 - m0] *= undo[m0 - lo:m1 - lo][::-1]
    y[start:start + step * half:step] = low
    if off_parity is not None:
        y[off_parity:n:2] = 0
    del grid, low
    y.resize(n, refcheck=False)  # the grid's tail goes back to the allocator
    return y


def _inverse_fft(grid: np.ndarray) -> None:
    """Unscaled inverse DFT, in place, of the N = R C points G[p] held at
    grid[p % R, p // R]: afterwards grid[k // C, k % C] is
    sum_p G[p] exp(i 2 pi p k / N).

    Bailey's four steps: C-point FFTs along the rows, the twiddles
    exp(i 2 pi a k / N) of row a and column k, and R-point FFTs down the
    columns, each in place.  numpy's one N-point FFT, even in place,
    raised the peak resident memory by twice the grid's size (64 MiB at
    N = 2**21, numpy 2.4); the row and column FFTs work a line at a time,
    and on a shared 2-vCPU x86 host took 55-65 ms at N = 2**21 where the
    one FFT took 95-115 ms.
    """
    R, C = grid.shape
    np.fft.ifft(grid, axis=1, norm="forward", out=grid)
    # row a = a_hi + a_lo: the twiddles of a_hi (multiples of S) times
    # those of a_lo < S; a k < R C, so each angle is exact before its rounding
    S = 1 << R.bit_length() // 2
    k = np.arange(C)
    scale = 2j * np.pi / (R * C)
    low = np.exp(scale * (np.arange(S)[:, None] * k))
    for block, a_hi in zip(grid.reshape(R // S, S, C), range(0, R, S)):
        block *= np.exp(scale * (a_hi * k)) * low
    np.fft.ifft(grid, axis=0, norm="forward", out=grid)


def _harmonics(S: SpectralDensity, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Frequencies and complex amplitudes of the harmonics of a path with
    spectrum S: HARMONICS stratified frequencies with IID uniform phases."""
    rng = stream_rng(seed, STREAM_FADING)
    lam = _draw_frequencies(S, HARMONICS, rng)
    phases = rng.uniform(0.0, 2.0 * np.pi, HARMONICS)
    amp = np.sqrt(S.variance / HARMONICS) * np.exp(1j * phases)
    return lam, amp


def simulate_gaussian(S: SpectralDensity, n: int, seed: int) -> SamplePath:
    """Stationary zero-mean path with spectrum S, Gaussian as HARMONICS grows.

    A sum of HARMONICS equal-power harmonics at stratified spectral
    frequencies with IID uniform phases, so E|H|^4 = (2 - 1/HARMONICS)
    var^2 rather than the 2 var^2 of a circularly-symmetric Gaussian.
    """
    n = check_index("path length", n, 1, MAX_ELEMENTS)
    return _own_path(_synthesize(*_harmonics(S, seed), n), seed)


def simulate_onoff(W: float, n: int, seed: int) -> SamplePath:
    """Path of the on-off product process H_k = A_k B_k.

    B is bandlimited Gaussian fading of half-width W and variance 2; A
    turns one whole parity class of time indices off, the class chosen by
    a fair coin per path.  Half the samples are exact zeros, and only the
    other half of B is computed.
    """
    make_onoff_spectrum(W)  # a DomainError for a W the on-off spectrum does not take
    n = check_index("path length", n, 1, MAX_ELEMENTS)
    parity = int(stream_rng(seed, STREAM_PARITY).integers(0, 2))
    lam, amp = _harmonics(make_rect_band(W, variance=2.0), seed)
    return _own_path(_synthesize(lam, amp, n, parity), seed)


def _unit_phasors(rng: np.random.Generator, n: int) -> np.ndarray:
    """n uniformly distributed phasors with |z| exactly 1 in floats.

    cos/sin pairs do not always round to a unit-modulus complex, so keep
    only the exactly-unit results of the angle stream; the kept angles
    remain uniform because the rounding defect is phase-symmetric at the
    resolution of the grid of representable phasors.  The result is the
    first n kept phasors in stream order, whatever the size of each draw:
    1.5 times the phasors still missing plus 16, at most _PHASOR_BLOCK.
    """
    out = np.empty(n, dtype=np.complex128)
    # the first draw is the largest; cos and sin go straight into its parts
    block = np.empty(min(int(n * 1.5) + 16, _PHASOR_BLOCK), dtype=np.complex128)
    filled = 0
    while filled < n:
        draw = min(int((n - filled) * 1.5) + 16, _PHASOR_BLOCK)
        theta = rng.uniform(-np.pi, np.pi, draw)
        z = block[:draw]
        np.cos(theta, out=z.real)
        np.sin(theta, out=z.imag)
        z = z[np.abs(z) == 1.0]
        take = min(n - filled, z.size)
        out[filled:filled + take] = z[:take]
        filled += take
    return out


def simulate_phase_noise(n: int, seed: int) -> SamplePath:
    """IID uniform-phase unit-modulus path H_k = e^{i Theta_k}.

    Every sample satisfies |H_k| = 1 exactly, not merely to rounding.
    """
    n = check_index("path length", n, 1, MAX_ELEMENTS)
    rng = stream_rng(seed, STREAM_PHASE)
    return _own_path(_unit_phasors(rng, n), seed)


def _onoff_path(model: FadingModel, n: int, seed: int) -> SamplePath:
    """The on-off product process's path, once the model's spectrum is
    make_onoff_spectrum(W) of some W, the only spectrum that process has."""
    S = model.spectrum
    # the band around zero of the on-off spectrum ends at its half-width
    W = next(hi for lo, hi, _ in S.segments if lo < 0 <= hi)
    if not (0 < W < 0.25 and S == make_onoff_spectrum(W)):
        raise DomainError("an onoff-law path needs the spectrum make_onoff_spectrum(W)")
    return simulate_onoff(W, n, seed)


def _rayleigh_draws(rng: np.random.Generator, n: int) -> np.ndarray:
    """Circularly-symmetric Gaussian draws of unit variance."""
    z = rng.standard_normal(2 * n).view(np.complex128)
    z *= math.sqrt(0.5)
    return z


def _onoff_draws(rng: np.random.Generator, n: int) -> np.ndarray:
    """A fair coin after the normals, times B of variance 2."""
    z = rng.standard_normal(2 * n).view(np.complex128)
    np.multiply(rng.integers(0, 2, n), z, out=z)
    return z


# law of bounds.LAWS -> (path sampler (model, n, seed), marginal draws
# (rng, n), whether the tail is known exactly: every draw has |H1| = 1.0).
# A sampler reaches its public simulate_* through this module's globals,
# so one rebound on the module (by a tracer or a test) sees each call.
_SAMPLERS = {
    "rayleigh": (lambda model, n, seed: simulate_gaussian(model.spectrum, n, seed),
                 _rayleigh_draws, False),
    "onoff": (_onoff_path, _onoff_draws, False),
    "unit": (lambda model, n, seed: simulate_phase_noise(n, seed), _unit_phasors, True),
}


def simulate_model(model: FadingModel, n: int, seed: int) -> SamplePath:
    """Path of the model's process, by the sampler of its law in _SAMPLERS.

    A rayleigh path is Gaussian with the model's spectrum.  The onoff law
    names the on-off product process, so its paths need the spectrum
    make_onoff_spectrum(W) of some W; FadingModel already holds the unit
    law to the flat spectrum of IID phases.
    """
    return _SAMPLERS[model.law][0](model, n, seed)


def marginal_draws(model: FadingModel, n: int, seed: int) -> np.ndarray:
    """n independent draws of H1 under the model's law, n in
    [0, MAX_ELEMENTS), by the draws of its law in _SAMPLERS.

    A Gaussian draw is a pair of consecutive standard normals read in
    place as one complex number, so the normals buffer is the result.
    """
    n = check_index("draw count", n, 0, MAX_ELEMENTS)
    return _SAMPLERS[model.law][1](stream_rng(seed, STREAM_TAIL_MC), n)


def tail_probability_mc(
    model: FadingModel, upsilon: float, n_samples: int = 1_000_000, seed: int = 0
) -> float:
    """Monte Carlo estimate of the tail, the cross-check for closed forms.

    Where every draw of marginal_draws has |H1| = 1.0 exactly (the unit
    law), the fraction at or above upsilon is model.tail(upsilon), 1.0 or
    0.0, for every sample count and seed; that value is returned without
    drawing, after the same argument checks in the same order (threshold,
    count, seed).  Such a tail therefore costs no memory, whatever its
    count.
    """
    upsilon = check_positive("threshold", upsilon)
    n_samples = check_index("Monte Carlo sample count", n_samples, 1, MAX_ELEMENTS)
    if _SAMPLERS[model.law][2]:
        check_index("seed", seed, 0, 2**64)
        return model.tail(upsilon)
    draws = marginal_draws(model, n_samples, seed)
    # the bits of np.mean: a pairwise sum of 0/1 values is exact below 2**53
    return float(np.count_nonzero(np.abs(draws) >= upsilon)) / n_samples


def empirical_autocov(path: SamplePath, m_max: int) -> AutocovarianceSeq:
    """Biased autocovariance estimate r(m) over lags 0..m_max.

    r(m) = (1/n) sum_k (H_{k+m} - mean)(H_k - mean)*; the 1/n normalization
    keeps the estimated sequence positive semidefinite.

    Each lag's sum has the bits of np.sum(h[m:] * np.conj(h[:n-m])), yet
    all lags share one pass over the path.  Two choices in that expression
    decide the last bit, so both are kept:

    - the operand order of the product: numpy elides the conj temporary
      once it holds 256 KiB (n - m >= _ELIDE_LEN = 16384) and computes
      multiply(conj, h[m:]) in place, and below that multiply(h[m:], conj);
      with fused multiply-adds the two orders round differently, so each
      lag's leaves take the order its length picks;
    - the order of the sum: np.sum is numpy's pairwise sum, and
      _pairwise_sum splits a lag exactly where numpy would, so each leaf
      of at most _SUM_BLOCK elements is a whole subtree of numpy's tree,
      and the leaf sums are added in its order.  A lag shorter than
      _ELIDE_LEN is a single leaf.

    The leaves of all lags are walked in order of their start, each
    multiplied from one window of the conjugated path that holds it.  The
    product is elementwise and each leaf is reduced alone, so neither the
    window nor the walk order changes a bit.
    """
    n = path.n
    m_max = check_index("m_max", m_max, 0, n)
    h = path.values - np.mean(path.values)
    leaves = []  # (start, lag, count); the zeros _pairwise_sum adds are dropped
    for m in range(m_max + 1):
        _pairwise_sum(lambda s, c: leaves.append((s, m, c)) or 0j, n - m)
    leaf_sums = [[] for _ in range(m_max + 1)]
    win = np.empty(min(n, _SUM_WINDOW + _SUM_BLOCK), dtype=np.complex128)
    buf = np.empty(min(n, _SUM_BLOCK), dtype=np.complex128)
    w0 = -_SUM_WINDOW  # start of the conjugated window
    for start, m, count in sorted(leaves):
        if start >= w0 + _SUM_WINDOW:
            w0 = start - start % _SUM_WINDOW
            part = h[w0:w0 + win.size]
            np.conjugate(part, out=win[:part.size])
        b = buf[:count]
        conj = win[start - w0:start - w0 + count]
        shifted = h[m + start:m + start + count]
        np.multiply(*((conj, shifted) if n - m >= _ELIDE_LEN else (shifted, conj)), out=b)
        leaf_sums[m].append(np.add.reduce(b, initial=0j))
    vals = []
    for m, sums in enumerate(map(iter, leaf_sums)):
        total = _pairwise_sum(lambda start, count: next(sums), n - m)
        vals.append(complex(total.real / n) if m == 0 else complex(total / n))
    return AutocovarianceSeq(tuple(vals))


def _pairwise_sum(leaf_sum, length: int, start: int = 0) -> np.complex128:
    """numpy's pairwise sum of `length` complex elements from `start`,
    with leaf_sum(start, count) summing each leaf of at most _SUM_BLOCK.

    numpy sums a complex array as 2*length doubles and splits a piece of
    N > 128 doubles after N/2 - (N/2 mod 8); the split depends only on the
    piece's length, so a leaf handed to np.add.reduce is summed exactly as
    the same piece inside the whole array.
    """
    if length <= _SUM_BLOCK:
        return leaf_sum(start, length)
    left = (length - length % 8) // 2
    return (_pairwise_sum(leaf_sum, left, start)
            + _pairwise_sum(leaf_sum, length - left, start + left))


# ---------------------------------------------------------------------------
# path files

_HEADER = struct.Struct("<QQ")  # n, seed
_CSV_ROWS = 16384  # rows formatted per write, so memory stays bounded


def write_path_csv(path: SamplePath, fname: str) -> None:
    """Write k, re, im rows; floats at full round-trip precision.

    Each block of _CSV_ROWS rows is one %-format call on the flat tuple
    (k, re, im, k, re, im, ...): %r of a Python float is its repr, as
    f"{x!r}" is, so the bytes are those of one f-string per row.  Memory
    is bounded by one block's text and tuple, whatever the path length.
    """
    with open(fname, "w", encoding="utf-8", newline="") as fh:
        fh.write("k,re,im\n")
        for start in range(0, path.n, _CSV_ROWS):
            rows = path.values[start:start + _CSV_ROWS]
            flat = [None] * (3 * rows.size)
            flat[0::3] = range(start, start + rows.size)
            flat[1::3] = rows.real.tolist()
            flat[2::3] = rows.imag.tolist()
            fh.write("%d,%r,%r\n" * rows.size % tuple(flat))


def write_path_binary(path: SamplePath, fname: str) -> None:
    """16-byte header (n, seed as little-endian u64) then interleaved
    re/im little-endian doubles."""
    with open(fname, "wb") as fh:
        fh.write(_HEADER.pack(path.n, path.seed))
        fh.write(np.ascontiguousarray(path.values, dtype="<c16"))


def read_path_binary(fname: str) -> SamplePath:
    """Read a path written by write_path_binary."""
    with open(fname, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) != _HEADER.size:
            raise DomainError(f"{fname}: truncated header")
        n, seed = _HEADER.unpack(head)
        body = fh.read()
    if len(body) != 16 * n:
        raise DomainError(f"{fname}: expected {16 * n} bytes of samples, found {len(body)}")
    return _own_path(_finite(np.frombuffer(body, dtype="<c16").astype(np.complex128,
                                                                      copy=False)), int(seed))
