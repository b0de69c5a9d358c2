"""Self-tests of the benchmark's own machinery.

run.py runs them before every measurement; they also run under pytest:

    PYTHONPATH=src python -m pytest bench/selftest.py

A check that accepts a corrupted output row, or self-time arithmetic that
double-counts overlapping worker-thread children, would make every figure
the benchmark reports untrustworthy.
"""

from __future__ import annotations

import math
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _span(name, start, end, parent=None):
    return [name, start, end, parent, 0, False]


def test_self_time_arithmetic():
    # a job span with two overlapping worker-thread children, one child
    # running past its parent's end, and a grandchild
    job = _span("job", 0.0, 10.0)
    a = _span("a", 1.0, 5.0, job)
    b = _span("b", 3.0, 7.0, job)
    c = _span("c", 9.0, 12.0, job)
    g = _span("g", 2.0, 4.0, a)
    got = tracer.self_times([job, a, b, c, g])
    # job: 10 - |[1, 7] u [9, 10]| = 3
    assert got == [3.0, 2.0, 4.0, 3.0, 2.0], got


def test_worker_spans_hang_under_the_open_span():
    from prelog_lab import bounds

    tr = tracer.Tracer()
    tr.install()
    try:
        tr.begin_job(0)
        bounds.bound_sweep(bounds.rayleigh_band_model(0.1), [1e2, 1e4, 1e6, 1e8], threads=4)
        spans = tr.end_job()
    finally:
        tr.uninstall()
    sweep = [s for s in spans if s[tracer.NAME] == "bounds.bound_sweep"]
    opt = [s for s in spans if s[tracer.NAME] == "bounds.optimize_upsilon"]
    assert len(sweep) == 1 and len(opt) == 4
    assert all(s[tracer.PARENT] is sweep[0] for s in opt)
    # bounds imports spectral_log_integral by name; that binding is wrapped too
    inner = [s for s in spans if s[tracer.NAME] == "spectra.spectral_log_integral"]
    assert inner and all(s[tracer.PARENT][tracer.NAME] == "bounds.capacity_lower_bound"
                         for s in inner)
    assert bounds.bound_sweep.__module__ == "prelog_lab.bounds"  # uninstalled


def _corrupt(text: str, row: int, col: int) -> str:
    """Scale one numeric cell of a CSV data row by 1 + 1e-6."""
    lines = text.splitlines()
    data = [i for i, ln in enumerate(lines) if not ln.startswith("#")][1:]
    cells = lines[data[row]].split(",")
    cells[col] = repr(float(cells[col]) * (1 + 1e-6))
    lines[data[row]] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _roundtrip(job: workloads.Job, row: int, col: int) -> None:
    rc, out, err = workloads.run_job(job)
    assert rc == 0, err
    job.check(out)
    try:
        job.check(_corrupt(out, row, col))
    except oracle.CheckError:
        return
    raise AssertionError(f"corrupted {job.label} row {row} col {col} passed its check")


def test_corrupted_rows_fail_their_checks():
    band = ("rayleigh-band:W=0.1", oracle.rect_band(0.1))
    onoff = ("onoff:W=0.0625", oracle.onoff(0.0625))
    _roundtrip(workloads._szego(*band, 16, 1e6), 0, 1)
    _roundtrip(workloads._bounds("bound-sweep", *band, 1e2, 1e8, 5, False, "csv"), 2, 1)
    _roundtrip(workloads._bounds("bound-sweep", *onoff, 1e2, 1e8, 5, True, "csv"), 1, 3)
    _roundtrip(workloads._bounds("prelog-report", *band, 1e2, 1e8, 5, False, "csv"), 3, 1)
    work = os.path.join(os.path.dirname(HERE), ".bench_work")
    os.makedirs(work, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        bin_path = os.path.join(tmp, "p.bin")
        _roundtrip(workloads._simulate("phase-noise", oracle.phase_noise(), 20_000, 5, 4,
                                       bin_path), 1, 1)


def test_tail_check_rejects_a_shifted_estimate():
    spec = oracle.rect_band(0.1)
    p, draws = math.exp(-1.0), 10**6
    oracle.check_tail(p, spec, 1.0, draws)
    shifted = p + 6 * math.sqrt(p * (1 - p) / draws)
    try:
        oracle.check_tail(shifted, spec, 1.0, draws)
    except oracle.CheckError:
        return
    raise AssertionError("a 6-sigma tail estimate passed its check")


def test_repeat_schedule():
    # a szego-sweep-like pass: two long jobs, a few mid-size, many cheap
    cost = [4.5, 4.5] + [0.5] * 6 + [0.08] * 6 + [0.015] * 6 + [0.003] * 18
    order = run.repeats(cost, 4.0)
    counts = [order.count(i) for i in range(len(cost))]
    assert min(counts) == 1 and counts[:8] == [1] * 8
    extra = sum((r - 1) * c for r, c in zip(counts, cost))
    assert 3.5 < extra <= 4.0
    # cheaper jobs get at least as many repeats, and a cheap job's repeats
    # reach from the first to the last tenth of the pass
    assert all(counts[i] >= counts[j] for i in range(len(cost)) for j in range(len(cost))
               if cost[i] < cost[j])
    where = [k for k, i in enumerate(order) if i == len(cost) - 1]
    assert where[0] < len(order) / 10 and where[-1] > 9 * len(order) / 10
    # a short pass, or no room, repeats nothing
    assert run.repeats([0.01] * 30, 1.0) == list(range(30))
    assert sorted(run.repeats(cost, 0.0)) == list(range(len(cost)))


ALL = [
    test_self_time_arithmetic,
    test_worker_spans_hang_under_the_open_span,
    test_corrupted_rows_fail_their_checks,
    test_tail_check_rejects_a_shifted_estimate,
    test_repeat_schedule,
]
