"""Commands that compute no arrays, the array commands' help and usage
errors, and the scalar autocovariance run without importing numpy.

Nor do they import dataclasses or inspect, and json only where they read
or write JSON.  Each case starts a fresh interpreter, because the test
process itself has all of these loaded.  The array commands (szego and
simulate) load numpy where they need it and print the same bytes from a
cold interpreter as in-process.  A bound sweep, whatever threads it is
given, leaves concurrent.futures unloaded.
"""

import os
import subprocess
import sys

import pytest

import prelog_lab
from prelog_lab import spectra
from prelog_lab.cli import main

SRC = os.path.dirname(os.path.dirname(prelog_lab.__file__))
# modules a light command leaves unloaded (json unless it reads or writes JSON)
WATCHED = ("numpy", "dataclasses", "inspect", "json")
# argv[1] is the source root and the rest the command line; the last line
# on stderr lists the WATCHED modules loaded when the command finished
PROBE = ("import sys\n"
         "sys.path.insert(0, sys.argv[1])\n"
         "from prelog_lab.cli import main\n"
         "code = main(sys.argv[2:])\n"
         "sys.stdout.flush()\n"
         f"print('loaded', *(m for m in {WATCHED!r} if m in sys.modules), file=sys.stderr)\n"
         "sys.exit(code)\n")


def cold(argv):
    """(exit code, stdout bytes, set of WATCHED modules loaded) of argv in a
    fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", PROBE, SRC, *argv],
                          capture_output=True, timeout=120)
    loaded = proc.stderr.decode().splitlines()[-1].split()
    assert loaded[:1] == ["loaded"], proc.stderr
    return proc.returncode, proc.stdout, set(loaded[1:])


@pytest.fixture
def bad_config(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("argv, code", [
    (["spectrum", "--model", "rayleigh-band:W=0.1"], 0),
    (["miso", "--spectra", "W=0.1,W=0.2"], 0),
    (["manual"], 0),
    (["--help"], 0),
    (["bound-sweep", "--model", "phase-noise"], 0),
    (["prelog-report", "--model", "phase-noise", "--format", "json"], 0),
    (["bound-sweep", "--model", "rayleigh-band:W=0.1", "--snr", "1e2:1e6:3"], 0),
    (["prelog-report", "--model", "onoff:W=0.0625", "--upsilon", "1e-4:8:400",
      "--format", "json"], 0),
    (["spectrum", "--model", "rician:K=1"], 2),
    (["bound-sweep", "--model", "rayleigh-band:W=0.1", "--config", "BAD"], 2),
    (["bound-sweep", "--model", "phase-noise", "--upsilon", "nan"], 2),
    (["szego", "--help"], 0),
    (["simulate", "--help"], 0),
    (["szego", "--bogus"], 2),
    # an argument left over by the command's parser is reported by the tree
    (["bound-sweep", "--model", "phase-noise", "--bogus"], 2),
    (["szego", "--mod", "phase-noise", "--bogus"], 2),
], ids=["spectrum", "miso", "manual", "help", "phase-sweep", "phase-report",
        "threshold-sweep", "threshold-report", "unknown-model", "malformed-config",
        "phase-bad-threshold", "szego-help", "simulate-help", "szego-bad-flag",
        "sweep-leftover-flag", "szego-leftover-flag"])
def test_light_commands_do_not_import_numpy(argv, code, bad_config):
    reads_json = "json" in argv or "--config" in argv
    argv = [bad_config if a == "BAD" else a for a in argv]
    got, out, loaded = cold(argv)
    assert got == code
    assert (code != 0) == (out == b"")
    assert loaded == ({"json"} if reads_json else set())


@pytest.mark.parametrize("argv", [
    ["szego", "--model", "rayleigh-band:W=0.1", "--n", "8,16"],
    ["simulate", "--model", "onoff:W=0.0625", "--n", "2000", "--seed", "3"],
])
def test_array_commands_print_the_in_process_bytes(argv, capsysbinary):
    code, out, loaded = cold(argv)
    assert (code, "numpy" in loaded) == (0, True)
    assert main(argv) == 0
    assert out == capsysbinary.readouterr().out


def test_scalar_autocovariance_runs_without_numpy():
    # only the sequence route loads numpy; one lag is plain complex arithmetic
    probe = ("import sys\n"
             "sys.path.insert(0, sys.argv[1])\n"
             "from prelog_lab.spectra import autocovariance, make_onoff_spectrum\n"
             "print(repr(autocovariance(make_onoff_spectrum(0.0625), 3)),"
             " 'numpy' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", probe, SRC],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    want = spectra.autocovariance(spectra.make_onoff_spectrum(0.0625), 3)
    assert proc.stdout.split() == [repr(want), "False"]


def test_sweep_starts_no_pool():
    # bound_sweep runs its snr points serially, whatever threads asks for
    probe = ("import sys\n"
             "sys.path.insert(0, sys.argv[1])\n"
             "from prelog_lab.bounds import bound_sweep, rayleigh_band_model\n"
             "bound_sweep(rayleigh_band_model(0.1), [1e2, 1e4, 1e6, 1e8], threads=8)\n"
             "print('concurrent.futures' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", probe, SRC],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]
