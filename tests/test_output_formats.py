"""CSV and JSON output of one command carry the same values.

The CLI is the package's one serializer.  For drawn models and grids,
every JSON scalar and row cell must match its CSV cell: numbers equal
float() of the cell, None an empty cell, and booleans true/false.  For
drawn tables, the JSON text is json.dumps(payload, indent=2)'s.
"""

import argparse
import json
import math
from contextlib import redirect_stdout
from io import StringIO

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from prelog_lab.cli import _emit, main  # noqa: E402
from prelog_lab.spectra import make_rect_band  # noqa: E402

from oracles import random_density, spectrum_json  # noqa: E402


@pytest.fixture(scope="module")
def spectrum_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("formats")


def _custom(directory, seed: int, law: str) -> str:
    if law == "unit":
        S = make_rect_band(0.5)
    else:
        S = random_density(np.random.default_rng(seed), unit_variance=True)
    path = directory / "custom.json"
    path.write_text(spectrum_json(S))
    return f"custom:spectrum={path},tail={law}"


models = st.one_of(
    st.floats(1e-3, 0.5).map(lambda w: f"rayleigh-band:W={w!r}"),
    st.floats(1e-3, 0.249).map(lambda w: f"onoff:W={w!r}"),
    st.just("phase-noise"),
    st.tuples(st.integers(0, 2**32 - 1), st.sampled_from(["rayleigh", "onoff", "unit"])),
)
snr_grids = st.lists(st.floats(10.0, 1e12), min_size=1, max_size=6, unique=True).map(sorted)
upsilon_grids = st.none() | st.lists(st.floats(1e-3, 6.0), min_size=1, max_size=8)


def _run(argv) -> str:
    buf = StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    assert code == 0
    return buf.getvalue()


def _parse_csv(text: str):
    scalars, lines = {}, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            scalars[key] = value
        else:
            lines.append(line.split(","))
    header, *rows = lines
    assert all(len(row) == len(header) for row in rows)
    return scalars, [dict(zip(header, row)) for row in rows]


def _matches(value, cell: str) -> bool:
    if value is None:
        return cell == ""
    if isinstance(value, bool):
        return cell == ("true" if value else "false")
    if isinstance(value, str):
        return cell == value
    return value == float(cell)


def _assert_formats_agree(argv):
    scalars, rows = _parse_csv(_run(argv + ["--format", "csv"]))
    doc = json.loads(_run(argv + ["--format", "json"]))
    json_rows = doc.pop("rows")
    assert list(doc) == list(scalars)
    assert all(_matches(doc[key], scalars[key]) for key in doc)
    assert len(json_rows) == len(rows)
    for json_row, row in zip(json_rows, rows):
        assert list(json_row) == list(row)
        assert all(_matches(json_row[key], row[key]) for key in row)


def _model_arg(model, directory) -> str:
    return model if isinstance(model, str) else _custom(directory, *model)


@given(models)
def test_spectrum_formats_agree(spectrum_dir, model):
    _assert_formats_agree(["spectrum", "--model", _model_arg(model, spectrum_dir)])


@given(st.sampled_from(["bound-sweep", "prelog-report"]), models, snr_grids, upsilon_grids)
def test_bound_formats_agree(spectrum_dir, cmd, model, snrs, upsilons):
    argv = [cmd, "--model", _model_arg(model, spectrum_dir),
            "--snr", ",".join(map(repr, snrs))]
    if upsilons is not None:
        argv.append("--upsilon=" + ",".join(map(repr, upsilons)))
    _assert_formats_agree(argv)


# strings with what the JSON writer must escape or must not misread: NUL
# (its token separator), other control characters, quotes, backslashes,
# % (its row template's placeholder), non-ASCII and astral characters
texts = st.text(st.sampled_from('\x00\x01\x1f\n\t"\\%/é€\U0001f600 a') | st.characters())
cells = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(2**64, 2**200) | st.integers(-(2**200), -(2**64)),
    st.sampled_from([0.0, -0.0, 5e-324, 1e16, 1e22, math.nan, math.inf, -math.inf]),
    st.floats(),
    st.floats().map(np.float64),
    texts,
)


@st.composite
def tables(draw):
    header = draw(st.lists(texts, min_size=1, max_size=4, unique=True))
    row = st.lists(cells, min_size=len(header), max_size=len(header))
    rows = draw(st.lists(row, max_size=4))
    scalars = draw(st.dictionaries(texts.filter(lambda key: key != "rows"), cells, max_size=4))
    return header, rows, scalars


@given(tables())
def test_json_is_json_dumps_indent_2(table):
    header, rows, scalars = table
    buf = StringIO()
    with redirect_stdout(buf):
        _emit(argparse.Namespace(format="json", out="-"), header, rows, scalars)
    payload = dict(scalars)
    payload["rows"] = [dict(zip(header, row)) for row in rows]
    assert buf.getvalue() == json.dumps(payload, indent=2) + "\n"
