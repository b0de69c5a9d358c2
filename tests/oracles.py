"""Independent reference implementations used to check the library.

Nothing here may call the routine it checks: integrals go through adaptive
Simpson quadrature with Richardson extrapolation evaluated pointwise on
the density, eigenvalues through numpy's general LAPACK solver, tails through
Monte Carlo draws, the best threshold bound on a grid through a plain-float
loop, the empirical autocovariance through one whole-path np.sum per lag,
Gaussian path synthesis through one product with the whole harmonic power
table, unit-modulus phasors through one draw of 1.5 times the phasors
still missing, path CSV and binary files through one write per row or
sample, the closed-form bounds past the float range through 40-digit
decimal arithmetic, the innovation variances through a frozen copy of
the complex128 Schur recursion as it stood before real rows took float64
arrays, the Gaussian Monte Carlo draws through a frozen copy of the
expressions that joined each pair of normals before the draws were read
in place, and the command line's usage, help, manual and usage-error
texts through a frozen copy of the parser that built every command's
arguments on each call.
Random piecewise densities exercise the closed forms away from the
hand-picked examples.  The small helpers below (sinc, density_at,
spectrum_json, log_grid, FLOOR_SPECTRUM) exist only for tests; the library
has no copy.
"""

from __future__ import annotations

import argparse
import json
import math
import struct
import sys
from collections.abc import Sequence
from decimal import Decimal, localcontext

import numpy as np

from prelog_lab import cli
from prelog_lab.cli import (
    EXIT_IO,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    _config_flags,
    _write_out,
    cmd_bound_sweep,
    cmd_miso,
    cmd_prelog_report,
    cmd_simulate,
    cmd_spectrum,
    cmd_szego,
)
from prelog_lab.errors import DomainError, NumericError
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
    """points log-spaced values from lo to hi (points >= 2): the formula
    exp(log lo + k step) at every point but the two ends, which are lo and
    hi themselves, as every lo:hi:points grid of the library is."""
    step = (math.log(hi) - math.log(lo)) / (points - 1)
    grid = [math.exp(math.log(lo) + k * step) for k in range(points)]
    grid[0], grid[-1] = lo, hi
    return grid


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


def threshold_rounding(snr: float, u: float) -> float:
    """How far rounding may put the threshold bound at u below the same
    bound at another threshold: a few ulps of its log terms."""
    return 4e-16 * (abs(math.log(snr)) + abs(1.0 - 2.0 * math.log(u)) + 1.0)


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


def complex_innovation_variances(first_row) -> np.ndarray:
    """P_0..P_{n-1} by Schur's generator recursion on complex128 arrays,
    kept verbatim from the library before its float64 route for real rows:
    the bits and the NumericError text that route must reproduce."""
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


def variance_bits(recursion, row):
    """The bits of recursion(row) as uint64, or the text of its NumericError."""
    try:
        return recursion(row).view(np.uint64).tolist()
    except NumericError as exc:
        return str(exc)


def symmetric_density(rng: np.random.Generator) -> SpectralDensity:
    """Random piecewise-constant density with F'(-lam) = F'(lam): random
    cuts of [0, 1/2] mirrored about 0, with a sprinkling of exact zeros."""
    k = int(rng.integers(2, 6))
    edges = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 0.5, k - 1)), [0.5]))
    vals = rng.uniform(0.2, 3.0, k)
    vals[rng.uniform(0.0, 1.0, k) < 0.35] = 0.0
    vals[int(rng.integers(0, k))] = rng.uniform(0.2, 3.0)
    half = [(float(edges[i]), float(edges[i + 1]), float(vals[i])) for i in range(k)]
    segments = [(0.0 - hi, 0.0 - lo, v) for lo, hi, v in reversed(half)] + half
    return SpectralDensity(segments, math.fsum((hi - lo) * v for lo, hi, v in segments))


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


def gaussian_marginal_draws(rng: np.random.Generator, law: str, n: int) -> np.ndarray:
    """n draws of H1 under the rayleigh or onoff law, each pair of normals
    joined by g[0::2] + 1j * g[1::2] as the library did before it read
    the normals buffer in place."""
    g = rng.standard_normal(2 * n)
    if law == "rayleigh":
        return (g[0::2] + 1j * g[1::2]) * math.sqrt(0.5)
    b = g[0::2] + 1j * g[1::2]  # variance 2
    a = rng.integers(0, 2, n)
    return a * b


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


# ---------------------------------------------------------------------------
# the argument parser as it stood when main built every command's arguments
# on each call: usage, --help, manual and usage-error texts are checked
# against it rather than against recorded bytes, which change with the
# terminal width and the Python version.  Only the names differ.

def eager_build_parser() -> argparse.ArgumentParser:
    fmt = argparse.ArgumentDefaultsHelpFormatter
    upsilon_help = ("threshold range: the optimal threshold is clamped to [lo, hi] of a "
                    "range lo:hi:points, whose interior is never built, or to [min, max] "
                    "of a list; a single value fixes it; unset uses 1e-3:4:60")
    parser = argparse.ArgumentParser(
        prog="prelog-lab",
        description="Capacity pre-log analysis for noncoherent fading channels with memory",
        formatter_class=fmt,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sections: list[tuple[str, argparse.ArgumentParser]] = []

    def command(name, help_text):
        p = sub.add_parser(name, help=help_text, description=help_text, formatter_class=fmt)
        sections.append((name, p))
        return p

    def common(p, model=True):
        if model:
            p.add_argument("--model", required=True, default=argparse.SUPPRESS,
                           help="model spec, name:key=value,...")
        p.add_argument("--out", "-o", default="-", help="output file, - for stdout")
        p.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="output format")
        p.add_argument("--config", help="JSON file whose entries override flags")

    p = command("spectrum", "segments and zero-set diagnostics of a model spectrum")
    common(p)
    p.set_defaults(fn=cmd_spectrum)

    p = command("bound-sweep", "lower/upper capacity bounds over an snr grid")
    common(p)
    p.add_argument("--snr", default="1e2:1e10:9", help="grid lo:hi:points, list, or value")
    p.add_argument("--upsilon", help=upsilon_help)
    p.set_defaults(fn=cmd_bound_sweep)

    p = command("prelog-report", "finite-snr pre-log ratios vs analytic limits")
    common(p)
    p.add_argument("--snr", default="1e4:1e10:4", help="grid lo:hi:points, list, or value")
    p.add_argument("--upsilon", help=upsilon_help)
    p.set_defaults(fn=cmd_prelog_report)

    p = command("szego", "log-det rate vs spectral integral over matrix sizes")
    common(p)
    p.add_argument("--snr", default="100", help="single snr value")
    p.add_argument("--n", default="32,64,128", help="comma list of dimensions")
    p.set_defaults(fn=cmd_szego)

    p = command("simulate", "sample a fading path and check its autocovariance")
    common(p)
    p.add_argument("--n", type=int, default=100_000, help="path length")
    p.add_argument("--seed", type=int, default=0, help="base seed for all streams")
    p.add_argument("--m-max", type=int, default=8, help="largest autocovariance lag to table")
    p.add_argument("--path-out", help="write the path itself (.bin for binary, else CSV)")
    p.set_defaults(fn=cmd_simulate)

    p = command("miso", "multi-antenna pre-log lower bound")
    common(p, model=False)
    p.add_argument("--spectra", required=True,
                   help="comma list of W=<half-width> or spectrum JSON files")
    p.set_defaults(fn=cmd_miso)

    p = command("manual", "print the assembled manual page for every command")
    p.add_argument("--out", "-o", default="-", help="output file, - for stdout")
    p.set_defaults(fn=lambda args: eager_cmd_manual(args, parser, sections))

    return parser


def eager_manual_text(parser: argparse.ArgumentParser,
                 sections: list[tuple[str, argparse.ArgumentParser]]) -> str:
    """Assemble a plain-text manual from the live parser tree.

    Defaults come straight out of argparse, so the page can never drift
    from what the program actually does.
    """
    title = "PRELOG-LAB(1)"
    chunks = [title, "=" * len(title), "", (cli.__doc__ or "").strip(), ""]
    head = "GLOBAL USAGE"
    chunks += [head, "-" * len(head), parser.format_help().rstrip()]
    for name, sp in sections:
        head = f"COMMAND: {name}"
        chunks += ["", head, "-" * len(head), sp.format_help().rstrip()]
    return "\n".join(chunks) + "\n"


def eager_cmd_manual(args, parser, sections) -> int:
    _write_out(args.out, eager_manual_text(parser, sections))
    return EXIT_OK


def eager_main(argv: Sequence[str] | None = None) -> int:
    parser = eager_build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        flags = _config_flags(args)
        if flags:
            args = parser.parse_args(argv + flags)
        return args.fn(args)
    except SystemExit as exc:  # argparse handles --help and usage errors
        code = exc.code if exc.code is not None else 0
        return int(code) if isinstance(code, int) else EXIT_USAGE
    except (DomainError, MemoryError) as exc:  # too large to allocate is usage
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
