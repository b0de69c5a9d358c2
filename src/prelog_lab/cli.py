"""Command-line front end: sweeps, reports, and simulations as CSV/JSON.

Commands mirror the library one to one and print exactly the numbers the
library returns (floats formatted with repr, so nothing is lost to
rounding and reruns are byte-identical).  This module is the package's one
CSV/JSON writer.  Exit codes: 0 success, 2 usage or domain errors (a size
too large to allocate included), 3 I/O errors, 4 numeric failures (szego
where the Levinson recursion loses positivity at extreme snr,
prelog-report where a lower bound exceeds its upper bound).  No output
holds inf or nan: the spectral integral and every bound are finite for
every finite snr.  Where a direct form overflows the float range (snr F'
past about 1.8e308 in the spectral integral, snr / P(|H1| > 0) past it in
the coherent upper bound, snr from about 1.3e306 in the phase-noise lower
bound) log(1 + x) is taken as log x + log1p(1/x); every other value keeps
the direct form's bits.  An snr grid that does not strictly increase exits
2 before any point is evaluated.

Only the commands that compute with arrays import numpy: szego, simulate,
and bound-sweep and prelog-report on a threshold-law model (every model
but phase-noise).  spectrum, miso, manual, --help, the phase-noise sweeps
and reports, and a usage error in the command line, the model spec, a
threshold grid or a config file run without it.

Models are named with a small spec language, name:key=value,...:

    rayleigh-band:W=0.1        flat band Rayleigh fading
    onoff:W=0.0625             on-off product process
    phase-noise                IID uniform-phase unit-modulus fading
    custom:spectrum=f.json,tail=rayleigh   spectrum file plus a law of H1

A spectrum file holds {"segments": [[lo, hi, value], ...], "variance": v}
in JSON numbers, and a custom spectrum must have unit variance.  The tail
names one of three laws of H1: rayleigh (Gaussian, any spectrum), onoff
(mass 1/2 at zero; bounds on any spectrum, simulate only on the on-off
spectrum of some W), and unit (uniform phase; the flat spectrum only).
Every model, built-in or custom, is a spectrum and one of these laws, and
a law that does not fit its spectrum is a usage error.  Each parameter is
given once.  Every model is zero-mean, and simulate synthesizes Gaussian
paths from 4096 harmonics.

Grids are lo:hi:points (log-spaced, endpoints pinned to lo and hi), a
comma list, or a single value.  A JSON config file given with --config
overrides the flags it names; each value is parsed as if it had been
typed after its flag.  Sweeps run serially.  A file that is not valid
UTF-8 is malformed input (exit 2).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Sequence

from . import bounds, spectra
from .errors import DomainError, NumericError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NUMERIC = 4


def _fmt(x) -> str:
    """Lossless scalar formatting for CSV cells."""
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return repr(float(x))  # plain float repr even for numpy scalars
    return str(x)


def _number(text: str, kind=float):
    """float(text) or int(text), with a malformed number as a DomainError."""
    try:
        return kind(text)
    except ValueError:
        raise DomainError(f"expected a number, got {text!r}") from None


def parse_grid(text: str) -> list[float]:
    """lo:hi:points log-spaced grid, comma list, or single value."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise DomainError(f"grid spec must be lo:hi:points, got {text!r}")
        lo, hi = _number(parts[0]), _number(parts[1])
        points = _number(parts[2], int)
        if points < 2 or lo <= 0 or hi <= lo:
            raise DomainError(f"grid needs 0 < lo < hi and points >= 2, got {text!r}")
        step = (math.log(hi) - math.log(lo)) / (points - 1)
        grid = [math.exp(math.log(lo) + k * step) for k in range(points)]
        grid[0], grid[-1] = lo, hi  # pin endpoints exactly
        return grid
    if "," in text:
        return [_number(p) for p in text.split(",") if p.strip()]
    return [_number(text)]


def parse_int_list(text: str) -> list[int]:
    return [_number(p, int) for p in text.split(",") if p.strip()]


def _read_text(path: str) -> str:
    """A UTF-8 text file's contents; other bytes are malformed input."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path} is not UTF-8 text: {exc}") from None


def _read_spectrum_file(path: str) -> spectra.SpectralDensity:
    return spectra.SpectralDensity.from_json(_read_text(path))


def parse_model(text: str) -> bounds.FadingModel:
    """Build a FadingModel from its spec string."""
    name, _, params_text = text.partition(":")
    params: dict[str, str] = {}
    if params_text:
        for item in params_text.split(","):
            key, eq, value = item.partition("=")
            key = key.strip()
            if not eq:
                raise DomainError(f"model parameter {item!r} is not key=value")
            if key in params:
                raise DomainError(f"model parameter {key!r} is given twice")
            params[key] = value.strip()

    if name in bounds.BUILTIN_MODELS:
        build, keys = bounds.BUILTIN_MODELS[name]
        if set(params) != set(keys):
            raise DomainError(f"{name} takes the parameters {list(keys)}, got {sorted(params)}")
        return build(*(_number(params[key]) for key in keys))
    if name == "custom":
        if set(params) != {"spectrum", "tail"}:
            raise DomainError("custom needs spectrum=<json file> and tail=<law>")
        path, law = params["spectrum"], params["tail"]
        return bounds.FadingModel(f"custom:{os.path.basename(path)},tail={law}",
                                  _read_spectrum_file(path), law)
    raise DomainError(f"unknown model {name!r}, have {sorted(bounds.BUILTIN_MODELS)} or custom")


def _emit(args, header: list[str], rows: list[list], scalars: dict) -> None:
    """Write rows (+ per-run scalars) as CSV or JSON to args.out."""
    if args.format == "json":
        payload = dict(scalars)
        payload["rows"] = [dict(zip(header, row)) for row in rows]
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = [f"# {k}={_fmt(v)}" for k, v in scalars.items()]
        lines.append(",".join(header))
        lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
        text = "\n".join(lines) + "\n"
    _write_out(args.out, text)


def _write_out(out: str, text: str) -> None:
    if out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# commands

def cmd_spectrum(args) -> int:
    model = parse_model(args.model)
    S = model.spectrum
    scalars = {
        "model": model.name,
        "variance": S.variance,
        "zero_set_measure": spectra.zero_set_measure(S),
        "limiting_ratio": spectra.limiting_ratio(S),
    }
    for snr, ratio in spectra.finite_snr_ratios(S):
        scalars[f"ratio_at_{snr:g}"] = ratio
    rows = [[lo, hi, v] for lo, hi, v in S.segments]
    _emit(args, ["lo", "hi", "value"], rows, scalars)
    return EXIT_OK


def cmd_bound_sweep(args) -> int:
    model = parse_model(args.model)
    snrs = parse_grid(args.snr)
    ugrid = None if args.upsilon is None else parse_grid(args.upsilon)
    low, up = bounds.bound_sweep(model, snrs, ugrid)
    rows = [
        [snr, lb, star, ub]
        for snr, lb, star, ub in zip(snrs, low.values, low.params, up.values)
    ]
    scalars = {"model": model.name, "lower_kind": low.kind, "upper_kind": up.kind}
    _emit(args, ["snr", "lb", "upsilon_star", "ub_coherent"], rows, scalars)
    return EXIT_OK


def cmd_prelog_report(args) -> int:
    model = parse_model(args.model)
    snrs = parse_grid(args.snr)
    ugrid = None if args.upsilon is None else parse_grid(args.upsilon)
    report = bounds.prelog_report(model, snrs, ugrid)
    zset = spectra.zero_set_measure(model.spectrum)
    scalars = {
        "model": model.name,
        "analytic_limit": report.analytic_limit,
        "upper_prelog": report.upper_prelog,
        "zero_set_measure": zset,
        "note1-gap": report.upper_prelog < zset,
    }
    rows = [
        [snr, ratio, floored, star]
        for (snr, ratio), floored, star in zip(
            report.finite_ratios, report.floored, report.upsilon_star
        )
    ]
    _emit(args, ["snr", "ratio", "floored", "upsilon_star"], rows, scalars)
    return EXIT_OK


def cmd_szego(args) -> int:
    model = parse_model(args.model)
    snrs = parse_grid(args.snr)
    if len(snrs) != 1:
        raise DomainError("szego takes a single snr value")
    snr = snrs[0]
    n_list = parse_int_list(args.n)
    if not n_list:
        raise DomainError("szego needs at least one dimension in --n")
    from . import toeplitz

    S = model.spectrum
    integral = spectra.spectral_log_integral(S, snr)
    rows = []
    for n in n_list:
        rate = toeplitz.szego_logdet_rate(S, snr, n)
        rows.append([n, rate, integral, abs(rate - integral)])
    scalars = {"model": model.name, "snr": snr}
    _emit(args, ["n", "rate", "integral", "gap"], rows, scalars)
    return EXIT_OK


def cmd_simulate(args) -> int:
    model = parse_model(args.model)
    n = int(args.n)
    if args.m_max < 0:  # refused before a path is synthesized or written
        raise DomainError(f"--m-max must be nonnegative, got {args.m_max}")
    from . import processes

    path = processes.simulate_model(model, n, args.seed)
    if args.path_out:
        if args.path_out.endswith(".bin"):
            processes.write_path_binary(path, args.path_out)
        else:
            processes.write_path_csv(path, args.path_out)
    m_max = min(args.m_max, n - 1)
    emp = processes.empirical_autocov(path, m_max)
    rows = []
    for m in range(m_max + 1):
        analytic = spectra.autocovariance(model.spectrum, m)
        est = emp.values[m]
        rows.append(
            [m, est.real, est.imag, analytic.real, analytic.imag, abs(est - analytic)]
        )
    nonzero = float((path.values != 0).sum()) / n
    scalars = {
        "model": model.name,
        "n": n,
        "seed": args.seed,
        "nonzero_fraction": nonzero,
    }
    _emit(args, ["m", "emp_re", "emp_im", "analytic_re", "analytic_im", "abs_err"], rows, scalars)
    return EXIT_OK


def cmd_miso(args) -> int:
    items = [p for p in args.spectra.split(",") if p.strip()]
    if not items:
        raise DomainError("miso needs at least one antenna spectrum")
    spectra_list = []
    for item in items:
        item = item.strip()
        if item.startswith("W="):
            spectra_list.append(spectra.make_rect_band(_number(item[2:])))
        else:
            spectra_list.append(_read_spectrum_file(item))
    value = bounds.miso_prelog_lower(spectra_list)
    rows = [
        [t, spectra.zero_set_measure(S)] for t, S in enumerate(spectra_list)
    ]
    scalars = {"prelog_lower": value, "antennas": len(spectra_list)}
    _emit(args, ["antenna", "zero_set_measure"], rows, scalars)
    return EXIT_OK


# ---------------------------------------------------------------------------
# wiring

def build_parser() -> argparse.ArgumentParser:
    fmt = argparse.ArgumentDefaultsHelpFormatter
    upsilon_help = ("threshold grid lo:hi:points, list, or value; unset uses 60 log-spaced "
                    "points from 0.0010000000000000002 to 4.000000000000001 "
                    "(1e-3:4:60 pins its ends at 0.001 and 4.0)")
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
    p.set_defaults(fn=lambda args: cmd_manual(args, parser, sections))

    return parser


def _manual_text(parser: argparse.ArgumentParser,
                 sections: list[tuple[str, argparse.ArgumentParser]]) -> str:
    """Assemble a plain-text manual from the live parser tree.

    Defaults come straight out of argparse, so the page can never drift
    from what the program actually does.
    """
    title = "PRELOG-LAB(1)"
    chunks = [title, "=" * len(title), "", (__doc__ or "").strip(), ""]
    head = "GLOBAL USAGE"
    chunks += [head, "-" * len(head), parser.format_help().rstrip()]
    for name, sp in sections:
        head = f"COMMAND: {name}"
        chunks += ["", head, "-" * len(head), sp.format_help().rstrip()]
    return "\n".join(chunks) + "\n"


def cmd_manual(args, parser, sections) -> int:
    _write_out(args.out, _manual_text(parser, sections))
    return EXIT_OK


def _config_flags(args: argparse.Namespace) -> list[str]:
    """The --config file's entries as --flag=value arguments.

    Parsing them after the command line lets each value override its flag
    and go through that flag's type and choices, as if it had been typed.
    """
    if not getattr(args, "config", None):
        return []
    text = _read_text(args.config)
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"malformed config JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise DomainError("config file must hold a JSON object")
    flags = []
    for key, value in cfg.items():
        dest = key.replace("-", "_")
        if not hasattr(args, dest) or dest in ("config", "fn", "command"):
            raise DomainError(f"config key {key!r} is not a flag of {args.command!r}")
        flags.append(f"--{dest.replace('_', '-')}={value}")
    return flags


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
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


if __name__ == "__main__":
    sys.exit(main())
