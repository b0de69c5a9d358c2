"""Independent output checks for the benchmark, written with numpy only.

Nothing here imports prelog_lab.  Every expected value comes from the
benchmark's own closed forms for piecewise-constant spectra and the named
marginal laws, so a library route is never checked against itself.  A
failed check raises CheckError with a message naming the first bad cell.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

# criterion 6 of the acceptance suite: empirical lags within 0.02 at n = 1e5
LAG_TOL = 0.02
# Monte Carlo tails must land within this many binomial standard deviations
MC_SIGMAS = 5.0
# relative slack for values the library and the oracle compute by the same
# formula in a different summation order
REL_TOL = 1e-12
# the in-tree eigensolver and LAPACK's LU each commit errors of order
# eps * |T|; through log(1 + snr lam) they are magnified by at most snr
SZEGO_EPS = 1e-13


class CheckError(AssertionError):
    """An output disagrees with the benchmark's own reference value."""


@dataclass(frozen=True)
class ModelSpec:
    """What the benchmark knows about a model it asks the CLI for.

    segments: (lo, hi, value) triples of the spectral density.
    tail: "rayleigh", "onoff" or "unit", the marginal law of |H1|.
    phase: True for the unit-modulus model, which uses the phase bounds.
    """

    segments: tuple[tuple[float, float, float], ...]
    tail: str
    phase: bool = False

    @property
    def mass_at_zero(self) -> float:
        return 0.5 if self.tail == "onoff" else 0.0


def rect_band(W: float) -> ModelSpec:
    if W == 0.5:
        return ModelSpec(((-0.5, 0.5, 1.0),), "rayleigh")
    v = 1.0 / (2 * W)
    return ModelSpec(((-0.5, -W, 0.0), (-W, W, v), (W, 0.5, 0.0)), "rayleigh")


def onoff(W: float) -> ModelSpec:
    v = 1.0 / (4 * W)
    return ModelSpec(
        ((-0.5, -0.5 + W, v), (-0.5 + W, -W, 0.0), (-W, W, v),
         (W, 0.5 - W, 0.0), (0.5 - W, 0.5, v)),
        "onoff",
    )


def phase_noise() -> ModelSpec:
    return ModelSpec(((-0.5, 0.5, 1.0),), "unit", phase=True)


def random_spectrum(rng: np.random.Generator) -> ModelSpec:
    """Seeded unit-variance piecewise spectrum with at least one zero segment.

    Breakpoints sit on the 1/64 grid so segment widths are exact floats.
    """
    k = int(rng.integers(4, 9))
    cuts = np.sort(rng.choice(np.arange(1, 64), size=k - 1, replace=False))
    edges = [-0.5] + [-0.5 + c / 64 for c in cuts] + [0.5]
    vals = rng.uniform(0.2, 3.0, k)
    zero = rng.uniform(0.0, 1.0, k) < 0.4
    zero[int(rng.integers(0, k))] = True
    if zero.all():
        zero[0] = False
    vals[zero] = 0.0
    mass = math.fsum((edges[i + 1] - edges[i]) * vals[i] for i in range(k))
    return ModelSpec(
        tuple((edges[i], edges[i + 1], float(vals[i] / mass)) for i in range(k)),
        "rayleigh",
    )


def spectrum_json(spec: ModelSpec) -> str:
    """The spectrum file format the CLI's custom: models read."""
    segs = [list(s) for s in spec.segments]
    variance = math.fsum((hi - lo) * v for lo, hi, v in spec.segments)
    return json.dumps({"segments": segs, "variance": variance})


# ---------------------------------------------------------------------------
# closed forms

def autocov(spec: ModelSpec, m_max: int) -> np.ndarray:
    """r(0..m_max) = integral of e^{i 2 pi m lam} F'(lam), segment by segment."""
    lo, hi, v = (np.array(c) for c in zip(*spec.segments))
    m = np.arange(1, m_max + 1)[:, None]
    w = 2j * np.pi * m
    r = np.empty(m_max + 1, dtype=np.complex128)
    r[0] = np.sum((hi - lo) * v)
    r[1:] = np.sum(v * (np.exp(w * hi) - np.exp(w * lo)) / w, axis=1)
    return r


def log_integral(spec: ModelSpec, snr: float) -> float:
    lo, hi, v = (np.array(c) for c in zip(*spec.segments))
    return float(np.sum((hi - lo) * np.log1p(snr * v)))


def zero_set(spec: ModelSpec) -> float:
    return math.fsum(hi - lo for lo, hi, v in spec.segments if v == 0.0)


def tail(spec: ModelSpec, u):
    u = np.asarray(u, dtype=float)
    if spec.tail == "rayleigh":
        return np.exp(-u * u)
    if spec.tail == "onoff":
        return 0.5 * np.exp(-u * u / 2.0)
    return np.where(u <= 1.0, 1.0, 0.0)


def threshold_lb(spec: ModelSpec, snr: float, u):
    """P{|H1| >= u} (log snr - 1 + log u^2) - integral log(1 + snr F')."""
    p = tail(spec, u)
    return p * math.log(snr) - p * (1.0 - np.log(np.asarray(u) ** 2)) - log_integral(spec, snr)


def coherent_ub(spec: ModelSpec, snr: float) -> float:
    p = 1.0 - spec.mass_at_zero
    return p * math.log1p(snr / p)


def phase_lb(snr: float) -> float:
    return math.log(snr) - 0.5 * math.log(4 * math.pi * math.e * (2 + 4 * snr)) + math.log(2)


def phase_ub(snr: float) -> float:
    return 0.5 * math.log1p(snr / 2)


# the CLI's threshold grid when --upsilon is not given
DEFAULT_UPSILON = (1e-3, 4.0, 60)


# ---------------------------------------------------------------------------
# parsing CLI output

def _cell(text: str):
    if text == "":
        return None
    if text in ("true", "false"):
        return text == "true"
    try:
        return float(text)
    except ValueError:
        return text


def parse_output(text: str, fmt: str) -> tuple[dict, list[dict]]:
    """(scalars, rows) from the CLI's CSV or JSON output."""
    if fmt == "json":
        obj = json.loads(text)
        return obj, obj.pop("rows")
    scalars, rows, header = {}, [], None
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            scalars[key] = _cell(value)
        elif header is None:
            header = line.split(",")
        else:
            rows.append(dict(zip(header, (_cell(c) for c in line.split(",")))))
    return scalars, rows


# ---------------------------------------------------------------------------
# checks

def _require(ok, what: str) -> None:
    if not ok:
        raise CheckError(what)


def _close(got, want, what: str, rel: float = REL_TOL, abs_tol: float = 0.0) -> None:
    _require(
        got is not None and abs(got - want) <= rel * abs(want) + abs_tol,
        f"{what}: got {got!r}, want {want!r}",
    )


def check_szego(text: str, spec: ModelSpec, snr: float, n: int) -> None:
    """rate against numpy's slogdet(I + snr T_n) from the closed-form lags."""
    scalars, rows = parse_output(text, "csv")
    _require(len(rows) == 1 and rows[0]["n"] == n, f"want one row with n={n}")
    row = rows[0]
    r = autocov(spec, n - 1)
    idx = np.subtract.outer(np.arange(n), np.arange(n))
    T = np.where(idx <= 0, r[np.abs(idx)], np.conj(r[np.abs(idx)]))
    sign, logdet = np.linalg.slogdet(np.eye(n) + snr * T)
    _require(sign.real > 0, f"I + snr T_{n} is not positive definite")
    rate = logdet / n
    _close(row["rate"], rate, f"szego rate n={n} snr={snr!r}",
           rel=0.0, abs_tol=SZEGO_EPS * snr * max(1.0, abs(r[0])))
    integral = log_integral(spec, snr)
    _close(row["integral"], integral, "szego integral")
    _close(row["gap"], abs(row["rate"] - row["integral"]), "szego gap", abs_tol=1e-15)
    _close(scalars["snr"], snr, "szego snr")


def _threshold_value(spec: ModelSpec, snr: float, star, ugrid) -> tuple[float, float]:
    """(formula value at star, rounding scale); star must beat the grid.

    A better optimizer than the grid may only raise the bound, so the test
    is one-sided.
    """
    _require(star is not None and star > 0, f"snr={snr!r}: no threshold reported")
    value = float(threshold_lb(spec, snr, star))
    best = float(np.max(threshold_lb(spec, snr, ugrid)))
    _require(value >= best - REL_TOL * max(abs(value), 1.0),
             f"lb {value!r} at upsilon_star={star!r} below the grid maximum {best!r}"
             f" at snr={snr!r}")
    scale = abs(math.log(snr)) + abs(1 - 2 * math.log(star)) + log_integral(spec, snr)
    return value, REL_TOL * scale


def check_bound_sweep(text: str, fmt: str, spec: ModelSpec, snrs: np.ndarray,
                      ugrid: np.ndarray) -> None:
    scalars, rows = parse_output(text, fmt)
    _require(len(rows) == len(snrs), f"want {len(snrs)} rows, got {len(rows)}")
    want_kinds = ("PHASE_LB", "PHASE_UB") if spec.phase else ("LOWER_LB", "UPPER_COHERENT")
    _require((scalars["lower_kind"], scalars["upper_kind"]) == want_kinds,
             f"bound kinds {scalars['lower_kind']}/{scalars['upper_kind']}")
    for snr, row in zip(snrs, rows):
        _close(row["snr"], snr, "snr grid point")
        snr = row["snr"]
        if spec.phase:
            _close(row["lb"], phase_lb(snr), f"phase lb at snr={snr!r}")
            _close(row["ub_coherent"], phase_ub(snr), f"phase ub at snr={snr!r}")
            _require(row["upsilon_star"] is None, "phase rows carry no threshold")
        else:
            value, slack = _threshold_value(spec, snr, row["upsilon_star"], ugrid)
            _close(row["lb"], value, f"lb at snr={snr!r}", rel=0.0, abs_tol=slack)
            _close(row["ub_coherent"], coherent_ub(spec, snr), f"ub at snr={snr!r}")
        _require(row["lb"] <= row["ub_coherent"], f"lb > ub at snr={snr!r}")


def check_prelog_report(text: str, fmt: str, spec: ModelSpec, snrs: np.ndarray,
                        ugrid: np.ndarray) -> None:
    scalars, rows = parse_output(text, fmt)
    zset = zero_set(spec)
    if spec.phase:
        limit, upper = 0.5, 0.5
    elif spec.mass_at_zero > 0:
        limit, upper = None, 1.0 - spec.mass_at_zero
    else:
        limit, upper = zset, 1.0
    _require(scalars["analytic_limit"] == limit,
             f"analytic_limit {scalars['analytic_limit']!r}, want {limit!r}")
    _require(scalars["upper_prelog"] == upper,
             f"upper_prelog {scalars['upper_prelog']!r}, want {upper!r}")
    _require(scalars["zero_set_measure"] == zset,
             f"zero_set_measure {scalars['zero_set_measure']!r}, want {zset!r}")
    _require(scalars["note1-gap"] == (upper < zset), "note1-gap flag")
    _require(len(rows) == len(snrs), f"want {len(snrs)} rows, got {len(rows)}")
    for snr, row in zip(snrs, rows):
        _close(row["snr"], snr, "snr grid point")
        snr = row["snr"]
        log_snr = math.log(snr)
        if spec.phase:
            _require(row["upsilon_star"] is None, "phase rows carry no threshold")
            lb, slack, ub = phase_lb(snr), REL_TOL * log_snr, phase_ub(snr)
        else:
            lb, slack = _threshold_value(spec, snr, row["upsilon_star"], ugrid)
            ub = coherent_ub(spec, snr)
        raw = lb / log_snr
        _close(row["ratio"], max(raw, 0.0), f"ratio at snr={snr!r}", rel=0.0,
               abs_tol=slack / log_snr)
        if abs(raw) > 1e-12:
            _require(row["floored"] == (raw < 0), f"floored flag at snr={snr!r}")
        _require(row["ratio"] <= ub / log_snr + 1e-15, f"ratio above ub at snr={snr!r}")


def check_simulate(text: str, spec: ModelSpec, n: int, seed: int, m_max: int) -> complex:
    """Lag table against the closed form; returns the empirical r(0)."""
    scalars, rows = parse_output(text, "csv")
    _require(scalars["n"] == n and scalars["seed"] == seed, "n/seed echo")
    want_nonzero = 0.5 if spec.tail == "onoff" else 1.0
    _require(scalars["nonzero_fraction"] == want_nonzero,
             f"nonzero_fraction {scalars['nonzero_fraction']!r}, want {want_nonzero!r}")
    _require(len(rows) == m_max + 1, f"want {m_max + 1} lags, got {len(rows)}")
    r = autocov(spec, m_max)
    for m, row in enumerate(rows):
        _require(row["m"] == m, f"lag column at row {m}")
        analytic = complex(row["analytic_re"], row["analytic_im"])
        est = complex(row["emp_re"], row["emp_im"])
        _close(analytic, r[m], f"analytic r({m})", rel=0.0, abs_tol=1e-12)
        _require(abs(est - r[m]) <= LAG_TOL, f"empirical r({m}) off by {abs(est - r[m])!r}")
        _close(row["abs_err"], abs(est - analytic), f"abs_err at lag {m}", abs_tol=1e-15)
    return complex(rows[0]["emp_re"], rows[0]["emp_im"])


def path_r0(values: np.ndarray) -> float:
    h = values - np.mean(values)
    return float(np.mean((h * np.conj(h)).real))


def check_path_binary(data: bytes, n: int, seed: int, r0: complex, unit: bool) -> None:
    """16-byte header (n, seed as u64) then interleaved re/im doubles."""
    head = np.frombuffer(data[:16], dtype="<u8")
    _require(tuple(head) == (n, seed), f"binary header {tuple(head)}")
    flat = np.frombuffer(data[16:], dtype="<f8")
    _require(flat.size == 2 * n, f"binary body holds {flat.size} floats")
    z = flat[0::2] + 1j * flat[1::2]
    if unit:
        _require(bool(np.all(np.abs(z) == 1.0)), "phase-noise path has |H| != 1")
    _close(path_r0(z), r0.real, "r(0) of the written path", rel=1e-9)


def check_path_csv(data: bytes, n: int, r0: complex) -> None:
    lines = data.decode().splitlines()
    _require(lines[0] == "k,re,im" and len(lines) == n + 1, "path CSV shape")
    table = np.array([ln.split(",") for ln in lines[1:]], dtype=float)
    _require(bool(np.all(table[:, 0] == np.arange(n))), "path CSV index column")
    _close(path_r0(table[:, 1] + 1j * table[:, 2]), r0.real, "r(0) of the written path",
           rel=1e-9)


def check_tail(estimate: float, spec: ModelSpec, u: float, draws: int) -> None:
    p = float(tail(spec, u))
    sigma = math.sqrt(p * (1 - p) / draws)
    _require(abs(estimate - p) <= MC_SIGMAS * sigma,
             f"MC tail {estimate!r} vs closed form {p!r} at u={u!r} (sigma {sigma:.3g})")
