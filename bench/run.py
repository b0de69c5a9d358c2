"""prelog-lab benchmark: one workload, timed end to end or traced per layer.

    python3 bench/run.py --workload szego-sweep --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 35   # each in turn

Run from the root of a source checkout; the package is imported from
src/.  Load model: a closed loop with one client.  A single-threaded
generator sends the next job only after the previous one returned; a job
is one prelog-lab CLI argv run in-process with its output captured (the
CLI is how users consume the library), or one tail_probability_mc call.
The program keeps its own defaults but one: PRELOG_LAB_THREADS=1 turns
off the grid-sweep thread pool (see GRID_THREADS).  BLAS keeps its own
thread count.

Whole passes over the workload's job list repeat while the summed job
time stays within --seconds.  Every timing takes each job's fastest repeat
(see end_to_end).  Outputs are checked outside the timed region against
the numpy-only oracles in oracle.py, and every pass after the first must
reproduce the first pass's bytes.

--trace 0 prints the end-to-end metrics; setup_s is the median cold start
of fresh interpreters running `prelog-lab spectrum`, probed between jobs
throughout the run.  --trace 1 spends a
third of the time untraced and the rest with every public function wrapped
(tracer.py), and prints per-layer metrics per job plus the tracing
slowdown.  The last stdout line is the JSON result; the lines before it
name every metric with its unit, the tail percentile and the machine.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict

import numpy as np

import oracle
import tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_PROBES = 9
SETUP_ARGV = ["spectrum", "--model", "rayleigh-band:W=0.1"]
# The CLI's default 4-thread grid pool is GIL-bound, and on a shared 2-core
# host it turns other tenants' load into wall time: with one CPU-bound
# neighbour process, 16 bound-sweep/prelog-report jobs took 33% longer with
# the pool and 10% longer without it, and bounds-grid runs spread by 31-41%
# (interquartile range over median, 10 seeds) with it.  The environment
# variable, unlike --threads, keeps the argv valid once the pool is gone.
GRID_THREADS = "1"
# a cheap job is timed at most once per SAMPLE_EVERY_S of a pass, and all
# repeats together add at most REPEAT_SHARE of a pass (see repeats)
SAMPLE_EVERY_S = 0.5
REPEAT_SHARE = 0.3


def machine_facts() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _openblas_threads(),
        "PRELOG_LAB_THREADS": os.environ.get("PRELOG_LAB_THREADS"),
    }


def _openblas_threads() -> int | None:
    """Thread count of the OpenBLAS numpy loaded, if it is OpenBLAS."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {ln.split()[-1] for ln in fh if "openblas" in ln and ".so" in ln}
    for lib in libs:
        dll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


class ColdStart:
    """Wall time of a fresh interpreter importing prelog_lab and finishing
    `prelog-lab spectrum`, probed in subprocesses one at a time.

    The probes are spread over the measured run, between jobs, and setup_s
    is their median: probes taken back to back all meet the host in one
    state, and on a shared host that state changes every few seconds.
    """

    def __init__(self, seconds: float):
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = SRC + (os.pathsep + self.env["PYTHONPATH"]
                                        if self.env.get("PYTHONPATH") else "")
        self.every = seconds / SETUP_PROBES
        self.times: list[float] = []
        # an unrecorded run fills the bytecode cache, as an installed
        # package would have
        self.probe()
        self.times.clear()

    def probe(self) -> None:
        argv = [sys.executable, "-m", "prelog_lab.cli", *SETUP_ARGV]
        t0 = time.perf_counter()
        proc = subprocess.run(argv, env=self.env, cwd=ROOT, capture_output=True, text=True,
                              timeout=60)
        self.times.append(time.perf_counter() - t0)
        if proc.returncode != 0 or "# zero_set_measure=0.8\n" not in proc.stdout:
            raise RuntimeError(f"cold-start probe failed: {proc.stderr.strip()}")

    def due(self, done: float) -> None:
        """Probe if `done` seconds of jobs have passed the next probe's turn."""
        if len(self.times) < SETUP_PROBES and done >= len(self.times) * self.every:
            self.probe()

    def median(self) -> float:
        while len(self.times) < SETUP_PROBES:
            self.probe()
        return statistics.median(self.times)


def repeats(cost: list[float], room: float) -> list[int]:
    """Order of one pass, given each job's time in a pass of single runs.

    Job i runs r_i = min(pass / SAMPLE_EVERY_S, budget / cost[i]) times, at
    least once, its repeats spread evenly over the pass; the budget is the
    largest whose repeats add at most `room` seconds to the pass, so the
    cheapest jobs get their repeats first.  A pass of szego-sweep takes
    ~14 s, two n = 1024 jobs most of it, and without repeats its n = 128
    jobs, where job_p50_s sits, would be timed twice in a run.  A pass of
    bounds-grid takes ~0.3 s and repeats nothing.
    """
    total = sum(cost)
    per_pass = math.ceil(total / SAMPLE_EVERY_S)

    def counts(budget: float) -> list[int]:
        return [max(1, min(per_pass, int(budget / c))) for c in cost]

    lo, hi = 0.0, per_pass * max(cost)
    for _ in range(60):
        mid = (lo + hi) / 2
        extra = sum((r - 1) * c for r, c in zip(counts(mid), cost))
        lo, hi = (mid, hi) if extra <= room else (lo, mid)
    slots, start = [], 0.0
    for i, (r, c) in enumerate(zip(counts(lo), cost)):
        # a job's place is where it starts in a pass of single runs
        slots += [((j + start / total) / r, i) for j in range(r)]
        start += c
    return [i for _, i in sorted(slots)]


class Loop:
    """Closed-loop generator state for one measured stretch."""

    def __init__(self, jobs, tr: tracer.Tracer | None = None):
        self.jobs = jobs
        self.tr = tr
        self.latency: list[float] = []
        self.failed = 0
        self.passes = 0
        # per job of the pass: wall and CPU seconds of each repeat
        self.wall_by_job: list[list[float]] = [[] for _ in jobs]
        self.cpu_by_job: list[list[float]] = [[] for _ in jobs]
        self.out_bytes = 0
        self.snr_points = 0
        self.digests: dict[int, str] = {}
        self.errors: list[str] = []
        # per span name: calls, self seconds, errors
        self.layer = defaultdict(lambda: [0, 0.0, 0])
        self.kept_spans: dict[str, list] = {}

    def run(self, seconds: float, min_passes: int = 1, spread: bool = False,
            cold: ColdStart | None = None, first: list[int] | None = None) -> "Loop":
        """Passes over the jobs while the next pass, as long as the last
        one, would end within `seconds` of summed job time.

        spread: after the first pass, which runs every job once, a pass
        also repeats each cheap job (see repeats), so that every job is
        timed often enough to meet the host at its fastest.
        cold: takes its cold-start probes between the jobs.
        first: order of the first pass, if not the jobs' own.
        """
        import workloads  # imports prelog_lab, so only once main found it

        order = first or range(len(self.jobs))
        last = 0.0
        while self.passes < min_passes or sum(self.latency) + last <= seconds:
            done = sum(self.latency)
            for i in order:
                job = self.jobs[i]
                if cold:
                    cold.due(sum(self.latency))
                if self.tr:
                    self.tr.begin_job(len(self.latency))
                c0, t0 = time.process_time(), time.perf_counter()
                try:
                    rc, out, err = workloads.run_job(job)
                except Exception as exc:  # a crash is a failed job, not a failed run
                    rc, out, err = None, "", repr(exc)
                t1, c1 = time.perf_counter(), time.process_time()
                self.latency.append(t1 - t0)
                self.wall_by_job[i].append(t1 - t0)
                self.cpu_by_job[i].append(c1 - c0)
                if self.tr:
                    spans = self.tr.end_job()
                    for span, own in zip(spans, tracer.self_times(spans)):
                        acc = self.layer[span[tracer.NAME]]
                        acc[0] += 1
                        acc[1] += own
                        acc[2] += span[tracer.ERROR]
                    self.kept_spans.setdefault(job.label, spans)
                self.out_bytes += len(out.encode()) if job.argv else 0
                self.snr_points += job.snr_points
                problem = err if rc != 0 else self._verify(i, job, out)
                if problem:
                    self.failed += 1
                    self.errors.append(f"{job.label} {job.argv}: {problem}")
            self.passes += 1
            last = sum(self.latency) - done
            if self.passes == 1 and spread:
                # repeats add REPEAT_SHARE of a pass, or less if two passes
                # would not fit in the run otherwise
                room = max(0.0, min(REPEAT_SHARE * last, seconds - 2 * last))
                order = repeats(self.best_wall(), room)
            elif self.passes == 1:
                order = range(len(self.jobs))
        return self

    def _verify(self, i: int, job, out: str) -> str | None:
        h = hashlib.sha256(out.encode())
        for path in job.files:
            with open(path, "rb") as fh:
                h.update(fh.read())
        digest = h.hexdigest()
        if i in self.digests:
            return None if digest == self.digests[i] else "output bytes differ from pass 1"
        try:
            job.check(out)
        except (oracle.CheckError, KeyError, ValueError, TypeError) as exc:
            return f"{type(exc).__name__}: {exc}"
        self.digests[i] = digest
        return None

    @property
    def jobs_run(self) -> int:
        return len(self.latency)

    def best_wall(self) -> list[float]:
        """Each job's fastest repeat, in seconds."""
        return [min(v) for v in self.wall_by_job]

    def best_cpu(self) -> list[float]:
        return [min(v) for v in self.cpu_by_job]


def end_to_end(loop: Loop, setup_s: float, tail_pct: int) -> tuple[dict, list[str]]:
    """Timings are taken over the job mix at each job's fastest repeat.

    The host's other tenants only ever add time, and on a shared host they
    slow every job by up to ~1.9x for seconds at a stretch (CPU time grows
    with wall time, so the cores themselves run slower, not just less
    often).  A job's fastest repeat is the run's best estimate of its own
    cost; medians and rates over all repeats follow the neighbours' load.

    job_tail_s is a fixed nearest-rank percentile of the job mix, chosen per
    workload so that at least ten repeats lie beyond it in a run; a rank
    that followed the pass count would jump between jobs from run to run.
    """
    best = sorted(loop.best_wall())
    n = len(best)
    k = math.ceil(tail_pct / 100 * n) - 1
    verified = 1 - loop.failed / loop.jobs_run
    metrics = {
        "jobs_per_s": (n * verified / sum(best), "1/s"),
        "job_p50_s": (statistics.median(best), "s"),
        "job_tail_s": (best[k], "s"),
        "cpu_s_per_job": (sum(loop.best_cpu()) / n, "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "setup_s": (setup_s, "s"),
    }
    notes = [
        f"job_tail_s is the p{tail_pct} latency of the {n}-job mix: {n - 1 - k} jobs,"
        f" {(n - 1 - k) * loop.passes} repeats beyond it",
        f"failed_frac {loop.failed / loop.jobs_run} ({loop.failed} of {loop.jobs_run} attempted)",
        f"{loop.passes} passes of {n} jobs, summed job time {sum(loop.latency):.3f} s;"
        " every timing takes each job's fastest of its repeats",
    ]
    return metrics, notes


def per_layer(loop: Loop, plain: Loop, tr: tracer.Tracer) -> tuple[dict, list[str]]:
    n = loop.jobs_run
    job_s = sum(loop.latency) / n
    traced_s = sum(own for _, own, _ in loop.layer.values())
    metrics = {}
    totals = defaultdict(lambda: [0, 0.0, 0])
    for name in tr.names:
        calls, own, errors = loop.layer.get(name, (0, 0.0, 0))
        metrics[f"{name}.calls"] = (calls / n, "1/job")
        metrics[f"{name}.self_s"] = (own / n, "s/job")
        metrics[f"{name}.errors"] = (errors / n, "1/job")
        acc = totals[name.split(".")[0]]
        acc[0] += calls
        acc[1] += own
        acc[2] += errors
    for layer in tracer.LAYERS:
        calls, own, errors = totals[layer]
        metrics[f"{layer}.calls"] = (calls / n, "1/job")
        metrics[f"{layer}.self_s"] = (own / n, "s/job")
        metrics[f"{layer}.errors"] = (errors / n, "1/job")
        metrics[f"{layer}.share"] = (own / traced_s, "ratio")
    lb_evals = loop.layer.get("bounds.capacity_lower_bound", (0,))[0]
    metrics.update({
        "spectra.lags": (metrics["spectra.autocovariance.calls"][0], "1/job"),
        "toeplitz.dim_sum": (tr.counts["toeplitz.dim_sum"] / n, "1/job"),
        "toeplitz.matrix_bytes_computed": (tr.counts["toeplitz.matrix_bytes_computed"] / n,
                                           "B/job"),
        "bounds.lb_evals_per_snr": (lb_evals / loop.snr_points if loop.snr_points else 0.0,
                                    "1/snr"),
        "processes.samples": (tr.counts["processes.samples"] / n, "1/job"),
        "processes.path_bytes": (tr.counts["processes.path_bytes"] / n, "B/job"),
        "cli.out_bytes": (loop.out_bytes / n, "B/job"),
        "trace.job_s": (job_s, "s/job"),
        "trace.slowdown": (sum(loop.best_wall()) / sum(plain.best_wall()), "ratio"),
    })
    notes = [
        f"traced {n} jobs in {loop.passes} passes; untraced {plain.jobs_run} jobs in "
        f"{plain.passes} passes; trace.slowdown compares each job's fastest repeat",
        f"bounds.lb_evals_per_snr base: {loop.snr_points} snr points requested",
        "toeplitz.matrix_bytes_computed is 16 n^2 per eigensolve, computed, not measured",
        "<layer>.share is the layer's share of all traced self time; worker-thread spans"
        " overlap, so self times are thread-seconds and include waits for the GIL",
    ]
    return metrics, notes


def _arg(args, kwargs, i, name):
    return kwargs[name] if name in kwargs else args[i]


COUNTERS = {
    "toeplitz.szego_logdet_rate": lambda a, k, r: {"toeplitz.dim_sum": _arg(a, k, 2, "n")},
    "toeplitz.hermitian_eigenvalues":
        lambda a, k, r: {"toeplitz.matrix_bytes_computed": 16 * len(r) ** 2},
    "processes.simulate_model": lambda a, k, r: {"processes.samples": r.n},
    "processes.marginal_draws": lambda a, k, r: {"processes.samples": len(r)},
    "processes.write_path_csv":
        lambda a, k, r: {"processes.path_bytes": os.path.getsize(_arg(a, k, 1, "fname"))},
    "processes.write_path_binary":
        lambda a, k, r: {"processes.path_bytes": os.path.getsize(_arg(a, k, 1, "fname"))},
}


def write_spans(path: str, kept: dict[str, list]) -> None:
    """The first traced job of each kind, spans as
    [name, start, end, parent index, job id, error]."""
    out = {}
    for label, spans in kept.items():
        index = {id(s): i for i, s in enumerate(spans)}
        out[label] = [
            [s[0], s[1], s[2], None if s[tracer.PARENT] is None else index[id(s[tracer.PARENT])],
             s[4], s[5]]
            for s in spans
        ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "prelog_lab", "cli.py")):
        print(f"no prelog_lab sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    os.chdir(ROOT)
    os.environ["PRELOG_LAB_THREADS"] = GRID_THREADS
    sys.path.insert(0, SRC)
    import selftest
    import workloads

    if args.workload == "all":
        # one interpreter per workload, so peak_rss_mib stays per workload
        for name in workloads.WORKLOADS:
            rc = subprocess.run([sys.executable, __file__, "--workload", name, "--seed",
                                 str(args.seed), "--seconds", str(args.seconds), "--trace",
                                 str(args.trace)]).returncode
            if rc:
                return rc
        return 0
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    for test in selftest.ALL:
        test()

    workdir = os.path.join(WORK, f"run-{os.getpid()}")
    os.makedirs(workdir)
    try:
        jobs, warmup, first = workloads.build(args.workload, args.seed, workdir)
        warm = Loop(warmup).run(0)
        if warm.failed:
            print("\n".join(warm.errors), file=sys.stderr)
            return 1
        if args.trace == 0:
            # two repeats at least, so each job has a fastest of several
            cold = ColdStart(args.seconds)
            loops = [Loop(jobs).run(args.seconds, min_passes=2, spread=True, cold=cold,
                                    first=first)]
            metrics, notes = end_to_end(loops[0], cold.median(),
                                        workloads.TAIL_PERCENTILE[args.workload])
            wanted = spec["end_to_end"]
        else:
            plain = Loop(jobs).run(args.seconds / 3, first=first)
            tr = tracer.Tracer(COUNTERS)
            tr.install()
            try:
                traced = Loop(jobs, tr).run(2 * args.seconds / 3)
            finally:
                tr.uninstall()
            loops = [plain, traced]
            metrics, notes = per_layer(traced, plain, tr)
            write_spans(os.path.join(WORK, f"spans-{args.workload}-seed{args.seed}.json"),
                        traced.kept_spans)
            wanted = spec["per_layer"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(lp.jobs_run for lp in loops)
    failed = sum(lp.failed for lp in loops)
    for lp in loops:
        for line in lp.errors[:5]:
            print(f"FAILED {line}", file=sys.stderr)
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}")
    print("# machine " + json.dumps(machine_facts()))
    for note in notes:
        print(f"# {note}")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name} {value!r} {unit}")
    result = {}
    for m in wanted:
        value, unit = metrics[m["name"]]
        if unit != m["unit"]:
            raise RuntimeError(f"{m['name']}: unit {unit} but BENCHMARK.json says {m['unit']}")
        result[m["name"]] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
