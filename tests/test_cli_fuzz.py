"""Drawn argv for every command: the CLI exits 0, 2, 3 or 4, never
raises out of main, and prints only finite numbers when it exits 0.

Flags, values and files are drawn together: well-formed and malformed
numbers, grids and model specs, plus files that are missing, a directory,
not UTF-8, or JSON that is not an object.  Grid point counts, matrix sizes
and path lengths stay small so the tier1 profile's fixed examples keep
Tier-1 fast.
"""

import json
import math
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from prelog_lab.cli import main  # noqa: E402

FILES = {
    "spectrum.json": '{"segments": [[-0.5, -0.1, 0.0], [-0.1, 0.1, 5.0], '
                     '[0.1, 0.5, 0.0]], "variance": 1.0}',
    "flat.json": '{"segments": [[-0.5, 0.5, 1.0]], "variance": 1.0}',
    "list.json": "[1, 2]",
    "broken.json": '{"segments": [[',
    "config.json": '{"format": "json"}',
    "config_null.json": '{"snr": null}',
    "config_unknown.json": '{"nosuch": 1}',
}
ODD = ["missing.json", "adir", "latin1.json"]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    for name, text in FILES.items():
        (root / name).write_text(text, encoding="utf-8")
    (root / "adir").mkdir()
    (root / "latin1.json").write_bytes(b'{"variance": "\xe9"}')
    return root


def mostly(good, odd):
    """Draws from good three times in four, so most argv get past parsing."""
    return st.one_of(good, good, good, odd)


# 2e306 would overflow the direct form of the phase-noise lower bound, and
# 1.7e308 that of every spectral integral with a density above 1; both
# print finite values through the log x + log1p(1/x) form
odd_numbers = st.sampled_from(["0", "-1", "nan", "inf", "-inf", "1e-300", "1e300",
                               "2e306", "1.7e308", "abc", "", " 3"])
widths = mostly(st.sampled_from(["0.05", "0.0625", "0.1", "0.2", "0.25"]),
                odd_numbers | st.just("0.5"))
numbers = mostly(st.floats(1e-3, 1e12).map(repr), odd_numbers)
grids = st.one_of(
    numbers,
    st.builds(lambda lo, hi, k: f"{lo}:{hi}:{k}", numbers, numbers,
              mostly(st.integers(2, 12), st.integers(-1, 1))),
    st.lists(numbers, max_size=4).map(",".join),
    st.sampled_from(["1:2", "1:2:3:4", "::"]),
)
junk_ints = st.integers(-3, 0).map(str) | st.sampled_from(["", "x", "1.5", "1e2"])
lengths = mostly(st.integers(1, 64).map(str), junk_ints)


def models(root):
    return st.one_of(
        widths.map(lambda w: f"rayleigh-band:W={w}"),
        widths.map(lambda w: f"onoff:W={w}"),
        st.just("phase-noise"),
        st.sampled_from([f"custom:spectrum={root / 'spectrum.json'},tail=rayleigh",
                         f"custom:spectrum={root / 'flat.json'},tail=unit"]),
        st.sampled_from(["nosuch", "rayleigh-band", "onoff:W", "phase-noise:W=1",
                         "custom:tail=rayleigh", ""]),
        st.builds(lambda f, law: f"custom:spectrum={root / f},tail={law}",
                  st.sampled_from(sorted(FILES) + ODD),
                  st.sampled_from(["rayleigh", "onoff", "unit", "nosuch"])),
    )


# the first flag of each command is its required one
COMMON = {"--out": "out", "--format": "format", "--config": "config"}
FLAGS = {
    "spectrum": {"--model": "model", **COMMON},
    "bound-sweep": {"--model": "model", "--snr": "grid", "--upsilon": "grid", **COMMON},
    "prelog-report": {"--model": "model", "--snr": "grid", "--upsilon": "grid", **COMMON},
    "szego": {"--model": "model", "--snr": "grid", "--n": "dims", **COMMON},
    "simulate": {"--model": "model", "--n": "length", "--seed": "seed",
                 "--m-max": "length", "--path-out": "path", **COMMON},
    "miso": {"--spectra": "spectra", **COMMON},
    "manual": {"--out": "out"},
}


def values(kind, root):
    in_root = lambda names: st.sampled_from(names).map(lambda n: str(root / n))  # noqa: E731
    odd_files = in_root(sorted(FILES) + ODD)
    return {
        "model": models(root),
        "grid": grids,
        "dims": mostly(st.lists(st.integers(1, 40).map(str), min_size=1, max_size=3),
                       st.lists(lengths | junk_ints, max_size=3)).map(",".join),
        "length": lengths,
        "seed": mostly(st.integers(0, 2**64 - 1).map(str),
                       st.sampled_from(["-1", str(2**64), "x"])),
        "out": mostly(st.just("-") | in_root(["out.txt"]), in_root(["adir", "nodir/out.txt"])),
        "path": mostly(in_root(["p.csv", "p.bin"]), in_root(["adir", "nodir/p.bin"])),
        "format": mostly(st.sampled_from(["csv", "json"]), st.just("xml")),
        "config": mostly(in_root(["config.json"]), odd_files),
        "spectra": st.lists(widths.map(lambda w: f"W={w}") | odd_files,
                            max_size=3).map(",".join),
    }[kind]


@st.composite
def argvs(draw, command, root):
    """The command, its required flag unless dropped, other flags in any
    order and, now and then, a flag no command has."""
    required, *optional = FLAGS[command]
    order = draw(st.permutations(optional))
    chosen = [required] + order[:draw(st.integers(0, len(order)))]
    if draw(st.integers(0, 9)) == 0:
        chosen = chosen[1:] if draw(st.booleans()) else chosen + ["--bogus"]
    argv = [command]
    for flag in chosen:
        argv += [flag] if flag == "--bogus" else [flag, draw(values(FLAGS[command][flag], root))]
    return argv


def nonfinite_numbers(text: str) -> list:
    """The inf and nan numbers of a CSV or JSON output: JSON's Infinity,
    -Infinity and NaN, and CSV cells or # scalars that parse as a float
    that is not finite."""
    found = []
    if text.startswith("{"):
        json.loads(text, parse_constant=found.append)
        return found
    for line in text.splitlines():
        for cell in line.partition("=")[2:] if line.startswith("# ") else line.split(","):
            try:
                if not math.isfinite(float(cell)):
                    found.append(cell)
            except ValueError:
                pass
    return found


def run(argv):
    """main(argv) with its exit code checked; returns (code, stdout)."""
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    return code, out.getvalue()


@pytest.mark.parametrize("command", sorted(FLAGS))
def test_exit_codes_and_no_traceback(files, command):
    @given(argvs(command, files))
    def check(argv):
        code, out = run(argv)
        if code == 0 and command != "manual":
            assert nonfinite_numbers(out) == [], argv

    check()


huge_snrs = (st.sampled_from(["1e300", "2e306", "1e308", "1.7e308"])
             | st.floats(1e300, 1.7976931348623157e308).map(repr))


@pytest.mark.parametrize("command", ["bound-sweep", "prelog-report", "szego"])
def test_huge_snr_exits_4_or_prints_finite_numbers(files, command):
    @given(models(files), huge_snrs, st.sampled_from(["csv", "json"]))
    def check(model, snr, fmt):
        argv = [command, "--model", model, "--snr", snr, "--format", fmt]
        if command == "szego":
            argv += ["--n", "1,8"]
        code, out = run(argv)
        if code == 0:
            assert nonfinite_numbers(out) == [], argv
        else:
            assert out == ""

    check()
