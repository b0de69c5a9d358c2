"""Command-line front end: sweeps, reports, and simulations as CSV/JSON.

Commands mirror the library one to one and print exactly the numbers the
library returns (floats formatted with repr, so nothing is lost to
rounding and reruns are byte-identical).  This module is the package's one
CSV/JSON writer.  Exit codes: 0 success, 2 usage or domain errors (a size
too large to allocate included), 3 I/O errors, 4 numeric failures (szego
where the Levinson recursion loses positivity, prelog-report where a lower
bound exceeds its upper bound).  szego's ceiling is far below the float
range: rayleigh-band:W=0.1 exits 4 from snr 1e15 and onoff:W=0.0625 at
--n 1024 from 1e14, because the double-rounded autocovariances perturb the
tiny eigenvalues of T_n by about eps r(0), so I + snr T_n turns indefinite
once snr eps is of order 1.  No output
holds inf or nan: the spectral integral and every bound are finite for
every finite snr.  Where a direct form overflows the float range (snr F'
past about 1.8e308 in the spectral integral, snr / P(|H1| > 0) past it in
the coherent upper bound, snr from about 1.3e306 in the phase-noise lower
bound) log(1 + x) is taken as log x + log1p(1/x); every other value keeps
the direct form's bits.  An snr grid that does not strictly increase exits
2 before any point is evaluated.

Only the commands that compute with arrays import numpy: szego and
simulate.  spectrum, miso, manual, --help, bound-sweep and prelog-report
on every model, and a usage error in the command line, the model spec, a
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
given once.  Every model is zero-mean, and simulate synthesizes the
paths of the Gaussian laws as random-phase sums of 4096 equal-power
harmonics, Gaussian only as that count grows.

Grids are lo:hi:points (log-spaced, endpoints pinned to lo and hi), a
comma list, or a single value.  A threshold grid (--upsilon) is a range:
the sweeps maximize the threshold bound exactly over [min, max] of the
grid, so a single value fixes the threshold and a lo:hi:points spec is
read as [lo, hi], its interior never built.  A JSON config file given
with --config overrides the flags it names; each value is parsed as if
it had been typed after its flag.  Sweeps run serially.  A file that is
not valid UTF-8 is malformed input (exit 2).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import os
import sys
from collections.abc import Sequence

from . import bounds, spectra
from .errors import DomainError, NumericError, check_index

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NUMERIC = 4


def _fmt(x) -> str:
    """Lossless scalar formatting for CSV cells: a float, int, bool, str
    or None, never a numpy scalar."""
    if type(x) is float:  # most cells
        return repr(x)
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    return str(x)


def _number(text: str, kind=float):
    """float(text) or int(text), with a malformed number as a DomainError."""
    try:
        return kind(text)
    except ValueError:
        raise DomainError(f"expected a number, got {text!r}") from None


def _range_spec(text: str) -> tuple[float, float, int]:
    """lo, hi and points of a stripped lo:hi:points spec, checked."""
    parts = text.split(":")
    if len(parts) != 3:
        raise DomainError(f"grid spec must be lo:hi:points, got {text!r}")
    lo, hi = _number(parts[0]), _number(parts[1])
    points = check_index("grid points", _number(parts[2], int), 2)
    for end, value in (("lo", lo), ("hi", hi)):
        if not math.isfinite(value):
            raise DomainError(f"grid {end} must be finite, got {value!r} in {text!r}")
    if lo <= 0 or hi <= lo:
        raise DomainError(f"grid needs 0 < lo < hi, got {text!r}")
    return lo, hi, points


def parse_grid(text: str) -> list[float]:
    """lo:hi:points log-spaced grid, comma list, or single value."""
    text = text.strip()
    if ":" in text:
        return bounds._log_grid(*_range_spec(text))
    if "," in text:
        return [_number(p) for p in text.split(",") if p.strip()]
    return [_number(text)]


def _parse_threshold_grid(text: str) -> list[float]:
    """A --upsilon grid.  The sweeps read only its least and greatest
    threshold, so a lo:hi:points range is [lo, hi], the checked ends that
    parse_grid pins, and its interior is never built."""
    text = text.strip()
    if ":" in text:
        lo, hi, _ = _range_spec(text)
        return [lo, hi]
    return parse_grid(text)


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
    """Write rows (+ per-run scalars) as CSV or JSON to args.out.

    The JSON text is byte for byte json.dumps(payload, indent=2) + "\\n",
    where payload holds the scalars in order and then "rows", one
    {header: cell} object per row (see _json_text).
    """
    if args.format == "json":
        text = _json_text(header, rows, scalars)
    else:
        lines = [f"# {k}={_fmt(v)}" for k, v in scalars.items()]
        lines.append(",".join(header))
        lines.extend(",".join(map(_fmt, row)) for row in rows)
        text = "\n".join(lines) + "\n"
    _write_out(args.out, text)


@functools.cache
def _json_encode():
    """The json module's encoder with a NUL between list items.

    Built on the first JSON output, so a CSV command never imports json.
    With no indent, JSONEncoder.encode runs the C encoder.
    """
    import json

    return json.JSONEncoder(separators=("\x00", ": ")).encode


def _json_text(header: list[str], rows: list[list], scalars: dict) -> str:
    """_emit's JSON text, from one call of the C encoder.

    json.dumps with an indent runs the pure-Python encoder, which took
    2.5 times as long on a 32-row bound-sweep table.  So the header keys, the
    scalars' keys and values and every cell go through the encoder as one
    flat list, and the text is split into their JSON tokens at the NULs
    between items: a NUL inside a string is written as \\u0000, so every
    raw NUL is a separator.  The tokens are then laid out with the fixed
    2-, 4- and 6-space indentation of json.dumps(indent=2).  The header
    holds at least one key, its keys are distinct strings, every row has
    one cell per key, no scalar is named "rows", and every cell and scalar
    is a JSON scalar: a str, int, float, bool or None.
    """
    flat = [*header, *scalars, *scalars.values(), *itertools.chain.from_iterable(rows)]
    tokens = _json_encode()(flat)[1:-1].split("\x00")
    h, s = len(header), len(scalars)
    lines = ["{"]
    lines += [f"  {k}: {v}," for k, v in zip(tokens[h:h + s], tokens[h + s:h + 2 * s])]
    if not rows:
        lines.append('  "rows": []')
    else:
        # one row's object, with a %s for each cell and any % in a key doubled
        keys = ",\n".join(f"      {key.replace('%', '%%')}: %s" for key in tokens[:h])
        row = "    {\n" + keys + "\n    }"
        cells = ",\n".join([row] * len(rows)) % tuple(tokens[h + 2 * s:])
        lines.append('  "rows": [\n' + cells + "\n  ]")
    lines.append("}\n")
    return "\n".join(lines)


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
    ugrid = None if args.upsilon is None else _parse_threshold_grid(args.upsilon)
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
    ugrid = None if args.upsilon is None else _parse_threshold_grid(args.upsilon)
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
    check_index("--m-max", args.m_max, 0)  # before a path is synthesized or written
    import numpy as np

    from . import processes

    path = processes.simulate_model(model, n, args.seed)
    if args.path_out:
        if args.path_out.endswith(".bin"):
            processes.write_path_binary(path, args.path_out)
        else:
            processes.write_path_csv(path, args.path_out)
    m_max = min(args.m_max, n - 1)
    emp = processes.empirical_autocov(path, m_max)
    analytic = spectra.autocovariance_sequence(model.spectrum, m_max)
    rows = [[m, est.real, est.imag, r.real, r.imag, abs(est - r)]
            for m, (est, r) in enumerate(zip(emp.values, analytic.values))]
    nonzero = float(np.count_nonzero(path.values)) / n
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

def _common_args(p: argparse.ArgumentParser, model: bool = True) -> None:
    if model:
        p.add_argument("--model", required=True, default=argparse.SUPPRESS,
                       help="model spec, name:key=value,...")
    p.add_argument("--out", "-o", default="-", help="output file, - for stdout")
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="output format")
    p.add_argument("--config", help="JSON file whose entries override flags")


# Each helper adds its command's arguments and nothing else: main looks
# cmd_<name> up when the command runs (_command_fn), so a rebound module
# attribute (a tracer's wrapper, a test's stand-in) is the one that runs,
# even through a parser built and kept before it was rebound.

def _sweep_args(p: argparse.ArgumentParser, snr: str) -> None:
    """bound-sweep's and prelog-report's arguments, which differ only in
    the default snr grid."""
    _common_args(p)
    p.add_argument("--snr", default=snr, help="grid lo:hi:points, list, or value")
    p.add_argument("--upsilon",
                   help="threshold range: the optimal threshold is clamped to [lo, hi] of "
                        "a range lo:hi:points, whose interior is never built, or to "
                        "[min, max] of a list; a single value fixes it; unset uses 1e-3:4:60")


def _szego_args(p: argparse.ArgumentParser) -> None:
    _common_args(p)
    p.add_argument("--snr", default="100", help="single snr value")
    p.add_argument("--n", default="32,64,128", help="comma list of dimensions")


def _simulate_args(p: argparse.ArgumentParser) -> None:
    _common_args(p)
    p.add_argument("--n", type=int, default=100_000, help="path length")
    p.add_argument("--seed", type=int, default=0, help="base seed for all streams")
    p.add_argument("--m-max", type=int, default=8, help="largest autocovariance lag to table")
    p.add_argument("--path-out", help="write the path itself (.bin for binary, else CSV)")


def _miso_args(p: argparse.ArgumentParser) -> None:
    _common_args(p, model=False)
    p.add_argument("--spectra", required=True,
                   help="comma list of W=<half-width> or spectrum JSON files")


def _manual_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", "-o", default="-", help="output file, - for stdout")


# command name -> (its help and description, the helper adding its arguments)
_COMMANDS = {
    "spectrum": ("segments and zero-set diagnostics of a model spectrum", _common_args),
    "bound-sweep": ("lower/upper capacity bounds over an snr grid",
                    functools.partial(_sweep_args, snr="1e2:1e10:9")),
    "prelog-report": ("finite-snr pre-log ratios vs analytic limits",
                      functools.partial(_sweep_args, snr="1e4:1e10:4")),
    "szego": ("log-det rate vs spectral integral over matrix sizes", _szego_args),
    "simulate": ("sample a fading path and check its autocovariance", _simulate_args),
    "miso": ("multi-antenna pre-log lower bound", _miso_args),
    "manual": ("print the assembled manual page for every command", _manual_args),
}


def _parser_tree() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and every command's subparser by name.

    A subparser sets command itself, so it parses its command's arguments
    alone as the tree would hand them over.
    """
    fmt = argparse.ArgumentDefaultsHelpFormatter
    parser = argparse.ArgumentParser(
        prog="prelog-lab",
        description="Capacity pre-log analysis for noncoherent fading channels with memory",
        formatter_class=fmt,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_args) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text, description=help_text, formatter_class=fmt)
        add_args(sp)
        sp.set_defaults(command=name)
    return parser, sub.choices


# the tree main parses with, built on its first call and kept for the
# process; a parse leaves it as it was (parse_known_args writes only the
# namespace, and a help or usage text reads COLUMNS when it is printed)
_kept_tree = functools.cache(_parser_tree)


def build_parser() -> argparse.ArgumentParser:
    """The argument parser of every command, new on each call.

    main parses with a tree kept for the process, so a caller may change
    the parser this returns without changing what main does.
    """
    return _parser_tree()[0]


def _manual_text() -> str:
    """Assemble a plain-text manual from the full parser tree.

    Defaults come straight out of argparse, so the page can never drift
    from what the program actually does.
    """
    parser, sections = _kept_tree()
    title = "PRELOG-LAB(1)"
    chunks = [title, "=" * len(title), "", (__doc__ or "").strip(), ""]
    head = "GLOBAL USAGE"
    chunks += [head, "-" * len(head), parser.format_help().rstrip()]
    for name, sp in sections.items():
        head = f"COMMAND: {name}"
        chunks += ["", head, "-" * len(head), sp.format_help().rstrip()]
    return "\n".join(chunks) + "\n"


def cmd_manual(args) -> int:
    _write_out(args.out, _manual_text())
    return EXIT_OK


def _config_flags(args: argparse.Namespace) -> list[str]:
    """The --config file's entries as --flag=value arguments.

    Parsing them after the command line lets each value override its flag
    and go through that flag's type and choices, as if it had been typed.
    """
    if not getattr(args, "config", None):
        return []
    import json

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
        if not hasattr(args, dest) or dest in ("config", "command"):
            raise DomainError(f"config key {key!r} is not a flag of {args.command!r}")
        # null, true/false, arrays and objects have no typed-flag spelling
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise DomainError(f"expected a number or a string for config key {key!r}, "
                              f"got {json.dumps(value)}")
        flags.append(f"--{dest.replace('_', '-')}={value}")
    return flags


def _parse(argv: list[str]) -> argparse.Namespace:
    """argv parsed as the kept tree parses it.

    A named command's subparser takes argv[1:], as the tree would hand it
    over, without the top-level pass; an argument it leaves over, or a
    first word that is no command, goes to the tree, which reports it with
    the top-level usage. Skipping that pass is worth its second path: over
    10 alternating 35 s bounds-grid runs against the tree's plain
    parse_args (2-vCPU Xeon, Python 3.11), job_p50_s read 0.51 against
    0.55 ms, lower in 10 of 10.
    """
    parser, sections = _kept_tree()
    if argv and argv[0] in sections:
        args, extras = sections[argv[0]].parse_known_args(argv[1:])
        if not extras:
            return args
    return parser.parse_args(argv)


def _command_fn(command: str):
    """The module's cmd_<command>, looked up now rather than when a parser
    was built."""
    return globals()["cmd_" + command.replace("-", "_")]


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse(argv)
        flags = _config_flags(args)
        if flags:
            args = _parse(argv + flags)
        return _command_fn(args.command)(args)
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
