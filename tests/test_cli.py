"""CLI behavior: exit codes, output formats, and determinism."""

import argparse
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import prelog_lab
from prelog_lab import bounds, cli, spectra, toeplitz
from prelog_lab.cli import build_parser, main, parse_grid, parse_model
from prelog_lab.errors import DomainError
from prelog_lab.processes import read_path_binary

from oracles import (
    FLOOR_SPECTRUM,
    decimal_coherent_upper,
    decimal_log_integral,
    decimal_phase_lower,
    decimal_threshold_lower,
    eager_main,
    spectrum_json,
)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def csv_rows(text):
    lines = [l for l in text.strip().split("\n") if not l.startswith("#")]
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestParsing:
    def test_grid_forms(self):
        assert parse_grid("100") == [100.0]
        assert parse_grid("1,10,100") == [1.0, 10.0, 100.0]
        grid = parse_grid("1e2:1e10:9")
        assert len(grid) == 9
        assert grid[0] == 1e2 and grid[-1] == 1e10
        ratios = [b / a for a, b in zip(grid, grid[1:])]
        assert all(r == pytest.approx(10.0, rel=1e-9) for r in ratios)

    def test_grid_guards(self):
        for bad in ("1:2", "1e4:1e2:5", "0:10:3", "1:4:1"):
            with pytest.raises(DomainError):
                parse_grid(bad)

    @pytest.mark.parametrize("text, end, value", [
        ("1e2:inf:4", "hi", "inf"),
        ("1e2:1e400:4", "hi", "inf"),
        ("1:nan:3", "hi", "nan"),
        ("nan:1e4:3", "lo", "nan"),
        ("inf:inf:3", "lo", "inf"),
        ("-inf:1:3", "lo", "-inf"),
    ])
    def test_grid_end_that_is_not_finite_is_named(self, text, end, value):
        # 1e2:inf:4 once spaced to [100, inf, inf, inf], which the sweeps
        # refused as a grid that does not strictly increase
        with pytest.raises(DomainError) as info:
            parse_grid(text)
        assert str(info.value) == f"grid {end} must be finite, got {value} in {text!r}"

    def test_model_specs(self):
        assert parse_model("rayleigh-band:W=0.1").name == "rayleigh-band:W=0.1"
        assert parse_model("onoff:W=0.0625").mass_at_zero == 0.5
        assert parse_model("phase-noise").law == "unit"

    @pytest.mark.parametrize("kind", [np.float16, np.float32, np.float64])
    @pytest.mark.parametrize("build", [bounds.rayleigh_band_model, bounds.onoff_model])
    def test_builtin_model_name_parses_back(self, build, kind):
        # the name shows the float the spectrum is built from, not the
        # caller's repr: np.float32(0.1) is W=0.10000000149011612
        model = build(kind(0.1))
        assert model.name.endswith(f"W={float(kind(0.1))!r}")
        assert parse_model(model.name) == model

    def test_model_guards(self):
        for bad in ("nosuch", "rayleigh-band", "rayleigh-band:V=1",
                    "rayleigh-band:W=0.1,extra=2", "phase-noise:W=1",
                    "custom:tail=rayleigh", "onoff:W"):
            with pytest.raises(DomainError):
                parse_model(bad)


@pytest.mark.parametrize("model", [
    "rayleigh-band:W=0.1,W=0.2",
    "onoff:W=0.0625, W=0.0625",
    "custom:spectrum={f},tail=rayleigh,tail=onoff",
    "custom:spectrum={f},spectrum={f},tail=rayleigh",
])
def test_repeated_model_parameter_is_usage(capsys, tmp_path, model):
    sfile = tmp_path / "flat.json"
    sfile.write_text(spectrum_json(spectra.make_rect_band(0.5)))
    code, out, err = run(capsys, ["spectrum", "--model", model.format(f=sfile)])
    assert code == 2
    assert out == ""
    assert "given twice" in err


@pytest.mark.parametrize("argv", [
    ["spectrum", "--model", "custom:spectrum={f},tail=rayleigh"],
    ["miso", "--spectra", "W=0.1,{f}"],
    ["spectrum", "--model", "phase-noise", "--config", "{f}"],
], ids=["custom-spectrum", "miso-spectra", "config"])
def test_non_utf8_file_is_usage(capsys, tmp_path, argv):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    code, out, err = run(capsys, [a.format(f=bad) for a in argv])
    assert code == 2
    assert out == ""
    assert "not UTF-8" in err


MALFORMED_SPECTRA = {
    "two-entry-segment": '{"segments": [[-0.5, 0.5]], "variance": 1.0}',
    "string-value": '{"segments": [[-0.5, 0.5, "x"]], "variance": 1.0}',
    "list-value": '{"segments": [[-0.5, 0.5, [1]]], "variance": 1.0}',
    "bool-variance": '{"segments": [[-0.5, 0.5, 1]], "variance": true}',
    "string-variance": '{"segments": [[-0.5, 0.5, 1]], "variance": "1"}',
    "huge-int-variance": '{"segments": [[-0.5, 0.5, 1]], "variance": 1%s}' % ("0" * 400),
}


@pytest.mark.parametrize("text", MALFORMED_SPECTRA.values(), ids=MALFORMED_SPECTRA)
@pytest.mark.parametrize("argv", [
    ["spectrum", "--model", "custom:spectrum={f},tail=rayleigh"],
    ["miso", "--spectra", "W=0.1,{f}"],
], ids=["custom-spectrum", "miso-spectra"])
def test_malformed_spectrum_file_is_usage(capsys, tmp_path, argv, text):
    sfile = tmp_path / "s.json"
    sfile.write_text(text)
    code, out, err = run(capsys, [a.format(f=sfile) for a in argv])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_integer_spectrum_entries_are_numbers(capsys, tmp_path):
    sfile = tmp_path / "s.json"
    sfile.write_text('{"segments": [[-0.5, 0.5, 1]], "variance": 1}')
    code, out, _ = run(capsys, ["miso", "--spectra", str(sfile)])
    assert code == 0
    assert "# prelog_lower=0.0" in out


class TestExitCodes:
    def test_unknown_model_is_usage(self, capsys):
        code, _, err = run(capsys, ["bound-sweep", "--model", "nosuch:W=1"])
        assert code == 2
        assert "unknown model" in err

    def test_bad_flag_is_usage(self, capsys):
        assert run(capsys, ["bound-sweep", "--nope"])[0] == 2

    def test_missing_command_is_usage(self, capsys):
        assert run(capsys, [])[0] == 2

    def test_help_is_ok(self, capsys):
        assert run(capsys, ["--help"])[0] == 0

    def test_unwritable_output_is_io(self, capsys):
        code, _, err = run(
            capsys,
            ["spectrum", "--model", "rayleigh-band:W=0.1",
             "--out", "/nonexistent/dir/x.csv"],
        )
        assert code == 3
        assert "i/o" in err

    def test_ok_is_zero(self, capsys):
        assert run(capsys, ["miso", "--spectra", "W=0.1"])[0] == 0


class TestSpectrumCommand:
    def test_onoff_scalars(self, capsys, tmp_path):
        out = tmp_path / "s.json"
        code, _, _ = run(
            capsys,
            ["spectrum", "--model", "onoff:W=0.0625", "--format", "json",
             "--out", str(out)],
        )
        assert code == 0
        obj = json.loads(out.read_text())
        assert obj["zero_set_measure"] == 0.75
        assert obj["limiting_ratio"] == 0.25
        assert len(obj["rows"]) == 5
        lows = [row["lo"] for row in obj["rows"]]
        assert lows[0] == -0.5


class TestBoundSweepCommand:
    def test_matches_library(self, capsys):
        code, out, _ = run(
            capsys,
            ["bound-sweep", "--model", "rayleigh-band:W=0.05",
             "--snr", "1e2:1e10:9"],
        )
        assert code == 0
        header, rows = csv_rows(out)
        assert header == ["snr", "lb", "upsilon_star", "ub_coherent"]
        assert len(rows) == 9
        model = bounds.rayleigh_band_model(0.05)
        for row in rows:
            snr = float(row["snr"])
            star, lb = bounds.optimize_upsilon(
                model, snr, bounds.default_upsilon_grid()
            )
            assert float(row["lb"]) == lb
            assert float(row["upsilon_star"]) == star
            assert float(row["ub_coherent"]) == bounds.coherent_avg_upper_bound(model, snr)

    @pytest.mark.parametrize("model", ["rayleigh-band:W=0.1", "onoff:W=0.0625"])
    def test_default_range_clamps_at_exactly_4(self, capsys, model):
        # below snr of about 0.2 the optimum lies above the default range
        code, out, _ = run(capsys, ["bound-sweep", "--model", model, "--snr", "0.01:0.1:2"])
        assert code == 0
        fm = parse_model(model)
        for row in csv_rows(out)[1]:
            assert row["upsilon_star"] == "4.0"
            assert float(row["lb"]) == bounds.capacity_lower_bound(fm, float(row["snr"]), 4.0)

    def test_phase_model_columns(self, capsys):
        code, out, _ = run(
            capsys, ["bound-sweep", "--model", "phase-noise", "--snr", "1e2,1e4"]
        )
        assert code == 0
        _, rows = csv_rows(out)
        assert rows[0]["upsilon_star"] == ""
        assert float(rows[1]["lb"]) == bounds.phase_noise_lower_bound(1e4)
        assert float(rows[1]["ub_coherent"]) == bounds.phase_noise_upper_bound(1e4)

    def test_json_equals_csv(self, capsys, tmp_path):
        argv = ["bound-sweep", "--model", "rayleigh-band:W=0.1", "--snr", "1e2:1e6:5"]
        _, csv_out, _ = run(capsys, argv)
        jpath = tmp_path / "o.json"
        run(capsys, argv + ["--format", "json", "--out", str(jpath)])
        obj = json.loads(jpath.read_text())
        _, rows = csv_rows(csv_out)
        for crow, jrow in zip(rows, obj["rows"]):
            assert float(crow["lb"]) == jrow["lb"]
            assert float(crow["snr"]) == jrow["snr"]

    def test_byte_identical_reruns(self, capsys):
        argv = ["bound-sweep", "--model", "onoff:W=0.0625", "--snr", "1e2:1e8:7"]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second


class TestPrelogReportCommand:
    def test_onoff_note1_gap(self, capsys):
        code, out, _ = run(
            capsys,
            ["prelog-report", "--model", "onoff:W=0.0625", "--snr", "1e4:1e8:3"],
        )
        assert code == 0
        assert "# note1-gap=true" in out
        assert "# upper_prelog=0.5" in out
        assert "# analytic_limit=" in out
        assert "# zero_set_measure=0.75" in out

    def test_band_limits(self, capsys):
        code, out, _ = run(
            capsys,
            ["prelog-report", "--model", "rayleigh-band:W=0.1", "--snr", "1e4:1e10:4"],
        )
        assert code == 0
        assert "# analytic_limit=0.8" in out
        assert "# note1-gap=false" in out
        _, rows = csv_rows(out)
        ratios = [float(r["ratio"]) for r in rows]
        assert ratios == sorted(ratios)

    def test_phase_limits(self, capsys):
        code, out, _ = run(capsys, ["prelog-report", "--model", "phase-noise"])
        assert code == 0
        assert "# analytic_limit=0.5" in out
        assert "# upper_prelog=0.5" in out

    def test_density_floor_reports_positive_ratios(self, capsys, tmp_path):
        sfile = tmp_path / "floor.json"
        sfile.write_text(FLOOR_SPECTRUM)
        code, out, _ = run(
            capsys, ["prelog-report", "--model", f"custom:spectrum={sfile},tail=rayleigh"])
        assert code == 0
        assert "# analytic_limit=0.0" in out
        _, rows = csv_rows(out)
        assert [r["ratio"] for r in rows] == [
            "0.23078521128677912", "0.12188778954953616",
            "0.07220433226737974", "0.046211823233112105"]
        assert all(r["floored"] == "false" for r in rows)

    def test_ratio_above_the_ceiling_near_snr_one(self, capsys):
        code, out, _ = run(
            capsys, ["prelog-report", "--model", "onoff:W=0.001", "--snr", "1.001"])
        assert code == 0
        assert "# upper_prelog=0.5" in out
        _, rows = csv_rows(out)
        assert [r["ratio"] for r in rows] == ["4.666735461029414"]

    def test_lower_above_upper_is_numeric(self, capsys, monkeypatch):
        monkeypatch.setattr(bounds, "coherent_avg_upper_bound", lambda model, snr: -1.0)
        code, out, err = run(capsys, ["prelog-report", "--model", "rayleigh-band:W=0.1"])
        assert code == 4
        assert out == ""
        assert err.startswith("numeric failure: ") and "exceeds upper bound" in err


class TestSzegoCommand:
    def test_gap_column_decreases(self, capsys):
        code, out, _ = run(
            capsys,
            ["szego", "--model", "rayleigh-band:W=0.25", "--snr", "100",
             "--n", "16,64,128"],
        )
        assert code == 0
        header, rows = csv_rows(out)
        assert header == ["n", "rate", "integral", "gap"]
        gaps = [float(r["gap"]) for r in rows]
        assert gaps[-1] < gaps[0]
        S = spectra.make_rect_band(0.25)
        integral = spectra.spectral_log_integral(S, 100.0)
        for row in rows:
            rate = toeplitz.szego_logdet_rate(S, 100.0, int(row["n"]))
            assert float(row["rate"]) == rate
            assert float(row["integral"]) == integral
            assert float(row["gap"]) == abs(rate - integral)

    def test_multiple_snr_rejected(self, capsys):
        code, _, err = run(
            capsys,
            ["szego", "--model", "rayleigh-band:W=0.25", "--snr", "10,100"],
        )
        assert code == 2

    def test_no_dimension_rejected(self, capsys):
        code, out, err = run(capsys, ["szego", "--model", "rayleigh-band:W=0.25", "--n", ","])
        assert (code, out, err) == (2, "", "error: szego needs at least one dimension in --n\n")

    def test_large_n_needs_no_cap(self, capsys):
        code, out, _ = run(
            capsys,
            ["szego", "--model", "rayleigh-band:W=0.25", "--snr", "100", "--n", "8192"],
        )
        assert code == 0
        _, rows = csv_rows(out)
        assert float(rows[0]["gap"]) < 0.005

    # the Levinson recursion loses positivity once snr eps is of order 1:
    # from 1e15 for this band and from 1e14 for the on-off spectrum at
    # n = 1024, so one decade inside each side of that edge
    @pytest.mark.parametrize("model, n, snr, want", [
        ("rayleigh-band:W=0.1", "32,64,128", "1e13", 0),
        ("rayleigh-band:W=0.1", "32,64,128", "1e16", 4),
        ("rayleigh-band:W=0.1", "1024", "1e13", 0),
        ("rayleigh-band:W=0.1", "1024", "1e16", 4),
        ("onoff:W=0.0625", "1024", "1e12", 0),
        ("onoff:W=0.0625", "1024", "1e15", 4),
    ])
    def test_exit_4_ceiling(self, capsys, model, n, snr, want):
        code, out, err = run(capsys, ["szego", "--model", model, "--snr", snr, "--n", n])
        assert code == want
        if want == 4:
            assert out == "" and err.startswith("numeric failure: ")
        else:
            assert len(csv_rows(out)[1]) == len(n.split(","))

    # past numpy's address arithmetic (numpy raises ValueError there, not
    # MemoryError): refused before any array is built
    @pytest.mark.parametrize("n", ["10000000000000000000", "4611686018427387904"])
    def test_dimension_past_numpy_is_usage(self, capsys, n):
        code, out, err = run(capsys, ["szego", "--model", "rayleigh-band:W=0.1", "--n", n])
        assert (code, out) == (2, "")
        assert err.splitlines() == [f"error: dimension must be an integer in [1, 2**59), got {n}"]

    def test_lag_past_r0_is_usage(self, capsys, monkeypatch):
        def row_past_r0(S, m_max):
            row = np.zeros(m_max + 1, dtype=np.complex128)
            row[0], row[1] = S.variance, 2.0 * S.variance
            return row

        monkeypatch.setattr(toeplitz, "_autocovariance_row", row_past_r0)
        code, out, err = run(capsys, ["szego", "--model", "onoff:W=0.0625", "--n", "8"])
        assert (code, out) == (2, "")
        assert "|r(1)| = 2.0 exceeds r(0) = 1.0" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["bound-sweep", "--model", "rayleigh-band:W=0.1", "--snr", "nan"],
        ["bound-sweep", "--model", "phase-noise", "--snr", "nan"],
        ["bound-sweep", "--model", "rayleigh-band:W=0.1", "--snr", "1e2", "--upsilon", "inf"],
        ["szego", "--model", "rayleigh-band:W=0.25", "--snr", "inf"],
        ["prelog-report", "--model", "rayleigh-band:W=0.1", "--snr", "1e4,inf"],
        ["bound-sweep", "--model", "phase-noise", "--snr", "1e2:inf:4"],
        ["prelog-report", "--model", "rayleigh-band:W=0.1", "--snr", "1e2:1e400:4"],
        ["bound-sweep", "--model", "onoff:W=0.0625", "--upsilon", "1e-4:inf:3"],
    ],
)
def test_nonfinite_snr_or_threshold_is_usage(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert "finite" in err


def _decimal_columns(command, model, snr, row):
    """40-digit decimal references of a row's overflow-prone columns."""
    if command == "szego":
        return {"integral": decimal_log_integral(model.spectrum, snr)}
    if model.law == "unit":
        return {"lb": decimal_phase_lower(snr)}
    lb = decimal_threshold_lower(model.law, model.spectrum, snr, float(row["upsilon_star"]))
    if command == "prelog-report":
        return {"ratio": lb / math.log(snr)}
    return {"lb": lb, "ub_coherent": decimal_coherent_upper(1.0 - model.mass_at_zero, snr)}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "argv",
    [
        ["bound-sweep", "--model", "phase-noise", "--snr", "1e308"],
        ["bound-sweep", "--model", "onoff:W=0.0625", "--snr", "1e308"],
        ["szego", "--model", "rayleigh-band:W=0.1", "--snr", "1e308", "--n", "1"],
        ["prelog-report", "--model", "rayleigh-band:W=0.1", "--snr", "1e300,1.7e308"],
    ],
)
def test_overflowing_snr_prints_finite_values(capsys, argv, fmt):
    # where a direct form overflows, the value is still finite: exit 0,
    # no inf or nan in the output, and each value within 1e-15 of decimal
    code, out, err = run(capsys, argv + ["--format", fmt])
    assert (code, err) == (0, "")
    assert not any(word in out for word in ("inf", "Infinity", "nan", "NaN"))
    rows = json.loads(out)["rows"] if fmt == "json" else csv_rows(out)[1]
    model = parse_model(argv[2])
    assert len(rows) == len(argv[4].split(","))
    for row in rows:
        snr = float(row.get("snr", argv[4]))  # szego rows are per n at one snr
        for column, ref in _decimal_columns(argv[0], model, snr, row).items():
            assert float(row[column]) == pytest.approx(ref, rel=1e-15), column


@pytest.mark.parametrize(
    "argv",
    [
        ["bound-sweep", "--model", "phase-noise", "--snr", "1e308,1e4"],
        ["prelog-report", "--model", "rayleigh-band:W=0.1", "--snr", "1.7e308,1e4"],
    ],
)
def test_decreasing_snr_grid_is_usage_before_overflow(capsys, argv):
    # the first point would overflow, but the grid order is checked first
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert "strictly increasing" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["bound-sweep", "--model", "rayleigh-band:W=0.1", "--snr", "abc"],
        ["szego", "--model", "rayleigh-band:W=0.25", "--n", "abc"],
        ["bound-sweep", "--model", "rayleigh-band:W=0.1", "--upsilon", "1:x:3"],
        ["bound-sweep", "--model", "rayleigh-band:W=abc"],
        ["miso", "--spectra", "W=abc"],
    ],
)
def test_malformed_number_is_usage(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert "expected a number" in err


def test_config_null_grid_is_usage(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"upsilon": None}))
    code, out, err = run(
        capsys,
        ["bound-sweep", "--model", "rayleigh-band:W=0.1", "--config", str(cfg)],
    )
    assert code == 2
    assert out == ""
    assert "expected a number" in err


# the phase bounds take no threshold, yet a bad grid is refused for them too
@pytest.mark.parametrize("model", ["rayleigh-band:W=0.1", "phase-noise"])
@pytest.mark.parametrize("cmd", ["bound-sweep", "prelog-report"])
@pytest.mark.parametrize("grid", ["0,1", "-1,1", "1,nan", "inf,1", "1e-170,1", "1e200,1"])
def test_bad_threshold_grid_is_usage(capsys, cmd, grid, model):
    argv = [cmd, "--model", model, "--snr", "1e4", f"--upsilon={grid}"]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert "threshold" in err


# the threshold is finite and positive, but its square is not
@pytest.mark.parametrize("grid, end", [("1e-300", "1e-300 is too small"),
                                       ("1e200", "1e+200 is too large")])
@pytest.mark.parametrize("cmd", ["bound-sweep", "prelog-report"])
def test_threshold_whose_square_leaves_the_float_range_is_named(capsys, cmd, grid, end):
    argv = [cmd, "--model", "rayleigh-band:W=0.1", "--snr", "10", "--upsilon", grid]
    assert run(capsys, argv) == (
        2, "", f"error: threshold {end}: its square leaves the float range\n")


# the sweeps read only a threshold range's ends, so a lo:hi:points spec is
# [lo, hi] with parse_grid's checks and texts, and no interior is built
@pytest.mark.parametrize("spec", ["1:2", "1e4:1e2:5", "0:10:3", "1:4:1", "1:4:2.5", "1:x:3",
                                  "1:2:3:4", "1e2:inf:4", " nan:1e4:3 "])
def test_threshold_range_spec_has_the_grid_checks(spec):
    with pytest.raises(DomainError) as grid:
        parse_grid(spec)
    with pytest.raises(DomainError) as ends:
        cli._parse_threshold_grid(spec)
    assert str(ends.value) == str(grid.value)


def test_threshold_range_spec_is_its_ends():
    grid = parse_grid("1e-3:4:60")
    assert cli._parse_threshold_grid("1e-3:4:60") == [grid[0], grid[-1]] == [1e-3, 4.0]
    assert cli._parse_threshold_grid(" 1e-4:8:1000000000000 ") == [1e-4, 8.0]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("cmd", ["bound-sweep", "prelog-report"])
def test_threshold_range_of_2_to_the_40_points_is_the_2_point_range(capsys, cmd, fmt):
    def output(points):
        return run(capsys, [cmd, "--model", "rayleigh-band:W=0.1", "--format", fmt,
                            "--upsilon", f"1e-4:8:{points}"])
    assert output(2**40) == output(2)


@pytest.mark.parametrize("cmd", ["bound-sweep", "prelog-report"])
def test_threshold_range_a_few_ulps_wide_is_exactly_its_ends(capsys, cmd):
    # spaced as a grid, this range's interior rounds to 256.1915172112674,
    # below lo; the clamped threshold must be lo itself
    lo, hi = "256.19151721126747", "256.1915172112675"
    code, out, _ = run(capsys, [cmd, "--model", "rayleigh-band:W=0.1", "--snr", "1e4,1e8",
                                "--upsilon", f"{lo}:{hi}:3"])
    assert code == 0
    _, rows = csv_rows(out)
    assert [row["upsilon_star"] for row in rows] == [lo, lo]


class TestSimulateCommand:
    def test_onoff_structure_and_table(self, capsys, tmp_path):
        pfile = tmp_path / "path.csv"
        code, out, _ = run(
            capsys,
            ["simulate", "--model", "onoff:W=0.0625", "--n", "20000", "--seed", "7",
             "--path-out", str(pfile), "--m-max", "4"],
        )
        assert code == 0
        assert "# nonzero_fraction=0.5" in out
        header, rows = csv_rows(out)
        assert header == ["m", "emp_re", "emp_im", "analytic_re", "analytic_im", "abs_err"]
        assert len(rows) == 5
        assert float(rows[1]["analytic_re"]) == 0.0
        # path file carries the parity structure
        lines = pfile.read_text().strip().split("\n")[1:]
        vals = np.array([complex(float(a), float(b))
                         for _, a, b in (l.split(",") for l in lines)])
        dead_even = np.all(vals[0::2] == 0)
        dead_odd = np.all(vals[1::2] == 0)
        assert dead_even != dead_odd

    def test_binary_path_out(self, capsys, tmp_path):
        pfile = tmp_path / "path.bin"
        code, _, _ = run(
            capsys,
            ["simulate", "--model", "phase-noise", "--n", "512", "--seed", "3",
             "--path-out", str(pfile), "--m-max", "2"],
        )
        assert code == 0
        back = read_path_binary(str(pfile))
        assert back.n == 512
        assert back.seed == 3
        assert np.all(np.abs(back.values) == 1.0)

    @pytest.mark.parametrize("suffix", [".csv", ".bin"])
    def test_negative_m_max_fails_before_the_path(self, capsys, tmp_path, suffix):
        pfile = tmp_path / f"path{suffix}"
        code, out, err = run(
            capsys,
            ["simulate", "--model", "rayleigh-band:W=0.1", "--n", "200000",
             "--m-max", "-1", "--path-out", str(pfile)],
        )
        assert code == 2
        assert out == ""
        assert "--m-max" in err
        assert not pfile.exists()

    # an int past the float range is shown in six digits, not its 401
    @pytest.mark.parametrize("flag, value", [
        ("--m-max", -10**400), ("--n", 10**400), ("--n", -10**400), ("--seed", 10**400),
    ], ids=["--m-max -10**400", "--n 10**400", "--n -10**400", "--seed 10**400"])
    def test_int_past_the_float_range_is_shown_short(self, capsys, flag, value):
        argv = ["simulate", "--model", "phase-noise", "--n", "16", flag, str(value)]
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert "1.000000e+400" in err
        assert len(err) < 80

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_out_of_range_is_usage(self, capsys, seed):
        code, out, err = run(
            capsys,
            ["simulate", "--model", "phase-noise", "--n", "16", "--seed", seed],
        )
        assert code == 2
        assert out == ""
        assert "seed" in err

    @pytest.mark.parametrize("model", ["rayleigh-band:W=0.1", "onoff:W=0.0625"])
    def test_path_too_large_to_allocate_is_usage(self, capsys, model):
        # a path of 1e17 samples needs 1.6 exabytes, more than any address
        # space holds, so allocating it fails whatever the kernel's
        # overcommit policy
        code, out, err = run(capsys, ["simulate", "--model", model, "--n", str(10**17)])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs VmHWM")
    @pytest.mark.parametrize("model", ["rayleigh-band:W=0.1", "onoff:W=0.0625"])
    def test_path_too_large_fails_before_synthesis(self, model):
        # the path is allocated before the synthesis grid and before any
        # other work, so a path too long to hold costs nothing more: the
        # process stays near its size after import (about 40 MiB).  A
        # process of its own, because the peak resident set never falls;
        # VmHWM, because ru_maxrss keeps the peak of the forking process.
        script = ("import re, sys\n"
                  "sys.path.insert(0, sys.argv[1])\n"
                  "from prelog_lab.cli import main\n"
                  "code = main(sys.argv[2:])\n"
                  "status = open('/proc/self/status').read()\n"
                  "print(code, re.search(r'VmHWM:\\s*(\\d+) kB', status).group(1))\n")
        src = os.path.dirname(os.path.dirname(prelog_lab.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", script, src, "simulate", "--model", model,
             "--n", str(10**17)],
            capture_output=True, text=True, timeout=120, check=True)
        code, hwm_kib = map(int, proc.stdout.split())
        assert code == 2
        assert proc.stderr.startswith("error: ")
        assert hwm_kib < 96 * 1024

    @pytest.mark.parametrize("model", ["rayleigh-band:W=0.1", "onoff:W=0.0625", "phase-noise"])
    def test_path_past_address_arithmetic_is_usage(self, capsys, model):
        # 16 * 10**18 bytes is more than numpy can size an array, which it
        # reports as ValueError, not MemoryError
        code, out, err = run(capsys, ["simulate", "--model", model, "--n", str(10**18)])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


class TestMisoCommand:
    def test_example(self, capsys):
        code, out, _ = run(capsys, ["miso", "--spectra", "W=0.1,W=0.2"])
        assert code == 0
        assert "# prelog_lower=0.8" in out
        _, rows = csv_rows(out)
        assert [float(r["zero_set_measure"]) for r in rows] == [0.8, 0.6]

    @pytest.mark.parametrize("spectra_arg", ["{f}", "W=0.1,{f}"])
    def test_zero_spectrum_is_usage(self, capsys, tmp_path, spectra_arg):
        # an identically zero process never conducts, so it has no pre-log
        sfile = tmp_path / "zero.json"
        sfile.write_text('{"segments": [[-0.5, 0.5, 0.0]], "variance": 0.0}')
        code, out, err = run(capsys, ["miso", "--spectra", spectra_arg.format(f=sfile)])
        assert code == 2
        assert out == ""
        assert "variance must be finite and positive" in err

    def test_spectrum_file_antenna(self, capsys, tmp_path):
        sfile = tmp_path / "flat.json"
        sfile.write_text(spectrum_json(spectra.make_rect_band(0.5)))
        code, out, _ = run(capsys, ["miso", "--spectra", f"W=0.3,{sfile}"])
        assert code == 0
        assert "# prelog_lower=0.4" in out


class TestConfigOverride:
    def test_config_unknown_key_is_usage(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "rayleigh-band:W=0.25", "snr": "100"}))
        code, out, _ = run(
            capsys,
            ["spectrum", "--model", "onoff:W=0.0625", "--config", str(cfg)],
        )
        # spectrum has no --snr flag, so the config key is a usage error
        assert code == 2

    def test_config_override_applies(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "rayleigh-band:W=0.25"}))
        code, out, _ = run(
            capsys,
            ["spectrum", "--model", "onoff:W=0.0625", "--config", str(cfg)],
        )
        assert code == 0
        assert "# model=rayleigh-band:W=0.25" in out

    def test_config_values_go_through_flag_types(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"snr": 100, "n": 64}))
        argv = ["szego", "--model", "rayleigh-band:W=0.25", "--config", str(cfg)]
        code, out, _ = run(capsys, argv)
        assert code == 0
        _, typed, _ = run(capsys, ["szego", "--model", "rayleigh-band:W=0.25",
                                   "--snr", "100", "--n", "64"])
        assert out == typed

    def test_config_value_of_wrong_type_is_usage(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": "abc"}))
        code, out, _ = run(
            capsys,
            ["simulate", "--model", "phase-noise", "--config", str(cfg)],
        )
        assert code == 2
        assert out == ""

    def test_config_value_outside_choices_is_usage(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"format": "xml"}))
        code, out, _ = run(
            capsys,
            ["spectrum", "--model", "phase-noise", "--config", str(cfg)],
        )
        assert code == 2
        assert out == ""

    def test_missing_config_is_io(self, capsys):
        code, _, _ = run(
            capsys,
            ["spectrum", "--model", "phase-noise", "--config", "/nope/c.json"],
        )
        assert code == 3

    def test_malformed_config_is_usage(self, capsys, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{broken")
        code, _, _ = run(
            capsys,
            ["spectrum", "--model", "phase-noise", "--config", str(cfg)],
        )
        assert code == 2

    def test_config_that_is_no_object_is_usage(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1]")
        code, out, err = run(
            capsys,
            ["spectrum", "--model", "phase-noise", "--config", str(cfg)],
        )
        assert (code, out, err) == (2, "", "error: config file must hold a JSON object\n")

    # a value with no flag spelling is refused, not typed as its Python text:
    # {"out": null} must not write the output to a file named None
    @pytest.mark.parametrize("value, shown", [
        (None, "null"), (True, "true"), ([1], "[1]"), ({}, "{}"),
    ], ids=["null", "true", "array", "object"])
    @pytest.mark.parametrize("key", ["out", "path-out", "model"])
    def test_config_value_not_string_or_number_is_usage(
            self, capsys, tmp_path, monkeypatch, key, value, shown):
        cmd = ["simulate", "--n", "64"] if key == "path-out" else ["spectrum"]
        argv = cmd + ["--model", "phase-noise"]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, argv + ["--config", str(cfg)])
        assert code == 2
        assert out == ""
        assert err == (f"error: expected a number or a string for config key {key!r}, "
                       f"got {shown}\n")
        assert sorted(os.listdir(tmp_path)) == ["cfg.json"]


@pytest.mark.parametrize("cmd", ["bound-sweep", "prelog-report"])
def test_threads_flag_is_gone(capsys, cmd):
    code, out, _ = run(capsys, [cmd, "--model", "rayleigh-band:W=0.1", "--threads", "4"])
    assert code == 2
    assert out == ""


# every command that takes --format
_JSON_ARGV = [
    ["spectrum", "--model", "onoff:W=0.0625"],
    ["spectrum", "--model", "custom:spectrum=FILE,tail=unit"],
    ["bound-sweep", "--model", "rayleigh-band:W=0.1", "--snr", "1e2:1e10:32"],
    ["bound-sweep", "--model", "phase-noise"],
    ["prelog-report", "--model", "onoff:W=0.0625", "--upsilon", "1e-4:8:400"],
    ["szego", "--model", "rayleigh-band:W=0.25", "--n", "1,8"],
    ["simulate", "--model", "onoff:W=0.0625", "--n", "2000", "--seed", "3"],
    ["miso", "--spectra", "W=0.1,FILE"],
]


def test_json_output_uses_the_c_encoder(capsys, monkeypatch, tmp_path):
    # the pure-Python encoder, which json runs whenever an indent is
    # given, is never called; the text is still json.dumps(indent=2)'s
    def python_encoder(*args, **kwargs):
        raise AssertionError("the pure-Python JSON encoder ran")

    sfile = tmp_path / "flat.json"
    sfile.write_text(spectrum_json(spectra.make_rect_band(0.5)))
    outputs = []
    with monkeypatch.context() as patch:
        patch.setattr(json.encoder, "_make_iterencode", python_encoder)
        with pytest.raises(AssertionError, match="pure-Python"):
            json.dumps([1.0], indent=2)
        for argv in _JSON_ARGV:
            argv = [a.replace("FILE", str(sfile)) for a in argv] + ["--format", "json"]
            code, out, err = run(capsys, argv)
            assert (code, err) == (0, "")
            outputs.append(out)
    for out in outputs:
        assert out == json.dumps(json.loads(out), indent=2) + "\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_every_cell_is_a_plain_python_scalar(capsys, monkeypatch, tmp_path, fmt):
    # _fmt and the JSON encoder format plain Python scalars only: a numpy
    # scalar's str and repr differ across numpy versions
    plain = (float, int, bool, str, type(None))
    emitted = []

    def checked_emit(args, header, rows, scalars):
        for value in [*scalars.values(), *(cell for row in rows for cell in row)]:
            assert type(value) in plain, (args.command, value, type(value))
        emitted.append(args.command)
        return emit(args, header, rows, scalars)

    emit = cli._emit
    monkeypatch.setattr(cli, "_emit", checked_emit)
    sfile = tmp_path / "flat.json"
    sfile.write_text(spectrum_json(spectra.make_rect_band(0.5)))
    extra = [
        ["prelog-report", "--model", "phase-noise"],
        ["prelog-report", "--model", "rayleigh-band:W=0.1", "--upsilon", "1.5"],
        ["simulate", "--model", "rayleigh-band:W=0.1", "--n", "2000", "--m-max", "4"],
        ["simulate", "--model", "phase-noise", "--n", "500"],
    ]
    for argv in _JSON_ARGV + extra:
        argv = [a.replace("FILE", str(sfile)) for a in argv] + ["--format", fmt]
        code, _, err = run(capsys, argv)
        assert (code, err) == (0, "")
    assert set(emitted) == {"spectrum", "bound-sweep", "prelog-report", "szego",
                            "simulate", "miso"}


def test_float_formatting_is_lossless():
    # repr round-trips doubles exactly, the invariant the CSV layer relies on
    vals = [math.pi, 1e-300, 2.651652454029538, 7.254329119262048]
    for v in vals:
        assert float(repr(v)) == v


# argv that stop in the parser, or just after it; required flags are given
# where the error under test would otherwise come second
_REQUIRED = {
    "spectrum": ["--model", "phase-noise"],
    "bound-sweep": ["--model", "phase-noise"],
    "prelog-report": ["--model", "phase-noise"],
    "szego": ["--model", "phase-noise"],
    "simulate": ["--model", "phase-noise"],
    "miso": ["--spectra", "W=0.1"],
    "manual": [],
}
_PARSER_ARGV = (
    [[], ["--help"], ["-h"], ["bogus"], ["bogus", "--help"], ["manual"]]
    + [[cmd, "--help"] for cmd in _REQUIRED]
    + [[cmd, *req, "--bogus"] for cmd, req in _REQUIRED.items()]
    + [[cmd] for cmd, req in _REQUIRED.items() if req]
    + [[cmd, *req, "--format", "xml"] for cmd, req in _REQUIRED.items() if req]
    + [["szego", "--model", "phase-noise", "--n", "abc"],
       ["simulate", "--model", "phase-noise", "--n", "abc"],
       ["simulate", "--model", "phase-noise", "--seed", "1.5"],
       ["spectrum", "--model", "phase-noise", "--config", "CFG"],
       ["miso", "--spectra", "W=0.1", "--config", "CFG"]]
    # a command's parser leaves an argument over: the tree reports it
    + [["szego", "--mod", "phase-noise", "--bogus"],
       ["bound-sweep", "--bogus", "--snr=-1"],
       ["simulate", "--model", "phase-noise", "--", "--n", "64"],
       ["manual", "-o", "-", "stray"],
       ["prelog-report", "--snr", "-1", "--bogus", "--help"],
       ["bound-sweep", "--model", "phase-noise", "-o", "-", "--config", "CFG"]]
)


# argv run one after another in one process, each with its COLUMNS: the
# kept parser of a command must print what a fresh one prints
_SZ = ["szego", "--model", "phase-noise", "--n", "8"]
_CACHED_SEQUENCES = {
    "config after a plain call": [("80", _SZ), ("80", [*_SZ, "--config", "CFG"])],
    "manual after a usage error": [("80", ["manual", "--out"]), ("80", ["manual"])],
    "good argv after a usage error": [("80", [*_SZ, "--format", "xml"]), ("80", _SZ)],
    "good argv after help": [("80", ["bound-sweep", "--help"]),
                             ("80", ["bound-sweep", "--model", "phase-noise"])],
    "help at two widths": [("60", ["prelog-report", "--help"]),
                           ("200", ["prelog-report", "--help"])],
}


class TestFrozenParser:
    """main prints what the parser that built every command's arguments
    printed, at any terminal width."""

    @pytest.mark.parametrize("columns", ["60", "80", "200"])
    @pytest.mark.parametrize("argv", _PARSER_ARGV, ids=" ".join)
    def test_same_text_and_code(self, capsys, tmp_path, monkeypatch, argv, columns):
        monkeypatch.setenv("COLUMNS", columns)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"snr": "100"}))
        argv = [str(cfg) if a == "CFG" else a for a in argv]
        want = (eager_main(argv), *capsys.readouterr())
        assert run(capsys, argv) == want

    def test_kept_tree_is_built_once(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        cli._kept_tree.cache_clear()
        assert main(["szego", "--model", "phase-noise", "--n", "8"]) == 0
        assert built == ["prelog-lab", *(f"prelog-lab {name}" for name in _REQUIRED)]
        built.clear()
        assert main(["szego", "--model", "phase-noise", "--n", "16"]) == 0
        # an argument the command's subparser leaves over goes to the kept tree
        assert main(["szego", "--model", "phase-noise", "--bogus"]) == 2
        assert main(["manual"]) == 0
        assert built == []
        assert capsys.readouterr().err.startswith("usage: prelog-lab [-h]")
        # every other caller gets a tree of its own
        parser = build_parser()
        assert build_parser() is not parser
        assert parser is not cli._kept_tree()[0]
        assert len(built) == 16

    @pytest.mark.parametrize("steps", _CACHED_SEQUENCES.values(), ids=_CACHED_SEQUENCES)
    def test_kept_parser_carries_nothing_over(self, capsys, tmp_path, monkeypatch, steps):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"snr": "1e3"}))
        cli._kept_tree.cache_clear()
        for columns, argv in steps:
            monkeypatch.setenv("COLUMNS", columns)
            argv = [str(cfg) if a == "CFG" else a for a in argv]
            want = (eager_main(argv), *capsys.readouterr())
            assert run(capsys, argv) == want, argv

    @pytest.mark.parametrize("cmd", _REQUIRED)
    def test_rebound_command_function_runs(self, capsys, monkeypatch, cmd):
        argv = [cmd, *_REQUIRED[cmd]]
        assert main([*argv, "--help"]) == 0  # builds and keeps the parser
        capsys.readouterr()
        seen = []
        fn = "cmd_" + cmd.replace("-", "_")
        monkeypatch.setattr(cli, fn, lambda args: seen.append(args.command) or 7)
        assert main(argv) == 7
        assert seen == [cmd]
        assert capsys.readouterr() == ("", "")


# flags of each command, and the values drawn for them (negative numbers
# included); OUT, PATH, GOOD and UNKNOWN name files in a scratch directory
_COMMON = ["--model", "--out", "--format", "--config"]
_DRAWN_FLAGS = {
    "spectrum": _COMMON,
    "bound-sweep": _COMMON + ["--snr", "--upsilon"],
    "prelog-report": _COMMON + ["--snr", "--upsilon"],
    "szego": _COMMON + ["--snr", "--n"],
    "simulate": _COMMON + ["--n", "--seed", "--m-max", "--path-out"],
    "miso": ["--spectra", *_COMMON[1:]],
    "manual": ["--out"],
}
_DRAWN_VALUES = {
    "--model": ["phase-noise", "rayleigh-band:W=0.1", "nosuch"],
    "--out": ["-", "OUT"],
    "--format": ["csv", "json", "xml"],
    "--config": ["GOOD", "UNKNOWN"],
    "--snr": ["100", "-1", "1e4:1e6:3"],
    "--upsilon": ["0.5", "-1"],
    "--seed": ["3", "-1"],
    "--m-max": ["2", "-2"],
    "--path-out": ["PATH"],
    "--spectra": ["W=0.1", "-0.1"],
}
_DRAWN_N = {"szego": ["8,16", "-3"], "simulate": ["64", "-5"]}
# arguments that are no flag's value: a separator, help, unknown flags,
# a stray word and a bare negative number
_ODD_ARGS = [["--"], ["-h"], ["--help"], ["--bogus"], ["--bogus=1"], ["-x"],
             ["stray"], ["-1"]]


def test_main_matches_the_eager_parser_on_drawn_argv(capsys, tmp_path):
    """main's exit code, stdout and stderr are those of the parser that
    built every command's arguments, whatever flags follow the command."""
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    (tmp_path / "good.json").write_text(json.dumps({"format": "json"}))
    (tmp_path / "unknown.json").write_text(json.dumps({"nosuch": 1}))
    files = {"OUT": "out.txt", "PATH": "p.csv", "GOOD": "good.json",
             "UNKNOWN": "unknown.json"}

    @st.composite
    def spelled(draw, command, flag):
        """flag and a value, as two words, --flag=value, an abbreviation or -o."""
        values = _DRAWN_N[command] if flag == "--n" else _DRAWN_VALUES[flag]
        value = draw(st.sampled_from(values))
        value = str(tmp_path / files[value]) if value in files else value
        name = flag[:draw(st.integers(min(3, len(flag)), len(flag)))]
        if flag == "--out" and draw(st.booleans()):
            name = "-o"
        return [f"{name}={value}"] if draw(st.booleans()) else [name, value]

    @st.composite
    def argvs(draw):
        command = draw(st.sampled_from(sorted(_DRAWN_FLAGS)))
        word = st.sampled_from(_DRAWN_FLAGS[command]).flatmap(lambda f: spelled(command, f))
        words = draw(st.lists(st.one_of(word, word, word, st.sampled_from(_ODD_ARGS)),
                              max_size=6))
        # a short path unless a drawn --n says otherwise
        argv = [command, "--n", "64"] if command == "simulate" else [command]
        return argv + [a for w in words for a in w]

    @settings(max_examples=400)
    @given(argvs())
    def check(argv):
        want = (eager_main(argv), *capsys.readouterr())
        assert run(capsys, argv) == want, argv

    check()


class TestManual:
    def test_manual_covers_every_command(self, capsys):
        code, out, _ = run(capsys, ["manual"])
        assert code == 0
        assert out.startswith("PRELOG-LAB(1)")
        for name in ("spectrum", "bound-sweep", "prelog-report", "szego",
                     "simulate", "miso", "manual"):
            assert f"COMMAND: {name}" in out

    def test_manual_documents_defaults(self, capsys):
        _, out, _ = run(capsys, ["manual"])
        assert "(default: 1e2:1e10:9)" in out
        assert "(default: 1e4:1e10:4)" in out
        assert "(default: csv)" in out
        assert "(default: 32,64,128)" in out
        assert "(default: 100000)" in out

    def test_manual_to_file(self, tmp_path, capsys):
        target = tmp_path / "man.txt"
        code, out, _ = run(capsys, ["manual", "--out", str(target)])
        assert code == 0
        assert out == ""
        assert "GLOBAL USAGE" in target.read_text()

    def test_help_shows_defaults(self, capsys):
        code, out, _ = run(capsys, ["bound-sweep", "--help"])
        assert code == 0
        assert "(default: 1e2:1e10:9)" in out


@pytest.mark.parametrize("variance", ["NaN", "Infinity"])
@pytest.mark.parametrize("cmd", ["spectrum", "simulate"])
def test_nonfinite_spectrum_variance_is_usage(capsys, tmp_path, cmd, variance):
    sfile = tmp_path / "s.json"
    sfile.write_text('{"segments": [[-0.5, 0.5, 1.0]], "variance": %s}' % variance)
    argv = [cmd, "--model", f"custom:spectrum={sfile},tail=rayleigh"]
    code, out, err = run(capsys, argv + (["--n", "64"] if cmd == "simulate" else []))
    assert code == 2
    assert out == ""
    assert "variance" in err


class TestCustomLaws:
    """A custom model's tail law must fit its spectrum."""

    @pytest.fixture
    def spectrum_file(self, tmp_path):
        def write(S):
            path = tmp_path / "s.json"
            path.write_text(spectrum_json(S))
            return str(path)
        return write

    @pytest.mark.parametrize("cmd", ["bound-sweep", "prelog-report", "simulate"])
    def test_unit_law_needs_flat_spectrum(self, capsys, spectrum_file, cmd):
        model = f"custom:spectrum={spectrum_file(spectra.make_rect_band(0.1))},tail=unit"
        code, out, err = run(capsys, [cmd, "--model", model])
        assert code == 2
        assert out == ""
        assert "flat spectrum" in err

    def test_onoff_law_paths_need_onoff_spectrum(self, capsys, spectrum_file):
        model = f"custom:spectrum={spectrum_file(spectra.make_rect_band(0.1))},tail=onoff"
        code, out, err = run(capsys, ["simulate", "--model", model, "--n", "64"])
        assert code == 2
        assert out == ""
        assert "make_onoff_spectrum" in err
        # the bounds need only the law's tail, so they still run
        code, out, _ = run(capsys, ["bound-sweep", "--model", model])
        assert code == 0
        assert "# lower_kind=LOWER_LB" in out

    def test_rayleigh_law_needs_unit_variance(self, capsys, spectrum_file):
        S = spectra.make_rect_band(0.1, variance=2.0)
        model = f"custom:spectrum={spectrum_file(S)},tail=rayleigh"
        code, out, err = run(capsys, ["bound-sweep", "--model", model])
        assert code == 2
        assert out == ""
        assert "unit variance" in err

    def test_unknown_law_is_usage(self, capsys, spectrum_file):
        model = f"custom:spectrum={spectrum_file(spectra.make_rect_band(0.1))},tail=rice"
        code, _, err = run(capsys, ["bound-sweep", "--model", model])
        assert code == 2
        assert "unknown law" in err

    def test_onoff_file_simulates_like_onoff_model(self, capsys, spectrum_file):
        model = f"custom:spectrum={spectrum_file(spectra.make_onoff_spectrum(0.0625))},tail=onoff"
        tail = ["--n", "4096", "--seed", "5", "--m-max", "4"]
        code, custom_out, _ = run(capsys, ["simulate", "--model", model] + tail)
        assert code == 0
        _, builtin_out, _ = run(capsys, ["simulate", "--model", "onoff:W=0.0625"] + tail)
        assert csv_rows(custom_out) == csv_rows(builtin_out)
