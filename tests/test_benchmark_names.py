"""The benchmark's per-function metrics name functions that must exist.

BENCHMARK.json lists per-layer metrics as <layer>.<function>.<metric>; the
benchmark's tracer looks each function up among the public functions
defined in prelog_lab.<layer>, and a missing one stops a traced run.
"""

import importlib
import inspect
import json
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def test_per_layer_functions_are_public_functions_of_their_layer():
    names = [m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]]
    functions = sorted({tuple(n.split(".")[:2]) for n in names if n.count(".") == 2})
    assert functions
    missing = []
    for layer, name in functions:
        module = importlib.import_module(f"prelog_lab.{layer}")
        fn = getattr(module, name, None)
        if not (inspect.isfunction(fn) and not name.startswith("_")
                and fn.__module__ == module.__name__):
            missing.append(f"{layer}.{name}")
    assert missing == []
