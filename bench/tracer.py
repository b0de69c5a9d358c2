"""Per-layer tracing of prelog_lab from outside the package.

Tracer.install() replaces every public function of the layer modules at
every prelog_lab module binding that refers to it (bounds.spectral_log_integral
as well as spectra.spectral_log_integral, and the package re-exports), so
calls between modules and within one module both pass through a wrapper.
Each wrapper records a span (name, start, end, parent, job id) while a job
is open.  Spans stay in memory; the benchmark folds each job's spans into
per-function totals when the job ends and writes the kept spans out at the
end of the run.

The load generator runs one job at a time, so a span that opens on a
thread with no open span of its own (a worker of the program's grid pool)
belongs to the job that is running and hangs under the innermost span the
generator thread has open.
"""

from __future__ import annotations

import importlib
import inspect
import threading
import time
from collections import defaultdict
from typing import Callable

LAYERS = ("spectra", "toeplitz", "bounds", "processes", "cli")
# a span is a list so the wrapper can fill in its end in place
NAME, START, END, PARENT, JOB, ERROR = range(6)


def self_times(spans: list[list]) -> list[float]:
    """Self time of each span: its duration minus the union of its
    children's intervals, clipped to its own interval.

    Children on worker threads may overlap one another; the union counts
    each covered instant once.
    """
    children: dict[int, list[list]] = defaultdict(list)
    for s in spans:
        if s[PARENT] is not None:
            children[id(s[PARENT])].append(s)
    out = []
    for s in spans:
        lo, hi = s[START], s[END]
        covered, reach = 0.0, lo
        for c in sorted(children.get(id(s), ()), key=lambda c: c[START]):
            a, b = max(c[START], reach), min(c[END], hi)
            if b > a:
                covered += b - a
                reach = b
        out.append((hi - lo) - covered)
    return out


class Tracer:
    """Wraps prelog_lab's public functions and collects spans per job.

    counters maps a span name to a function of (args, kwargs, result) that
    returns {counter name: increment}; it runs on successful calls inside
    a job.
    """

    def __init__(self, counters: dict[str, Callable] | None = None):
        self.counters = counters or {}
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.job = None
        self._local = threading.local()
        self._main_stack: list[list] = []
        self._lock = threading.Lock()
        self._saved: list[tuple[object, str, object]] = []
        self.names: list[str] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        mods = {name: importlib.import_module(f"prelog_lab.{name}") for name in LAYERS}
        wrappers = {}
        for layer, mod in mods.items():
            for name, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not name.startswith("_")
                        and fn.__module__ == mod.__name__):
                    wrappers[fn] = self._wrap(fn, f"{layer}.{name}")
        self.names = sorted(w.__qualname__ for w in wrappers.values())
        package = importlib.import_module("prelog_lab")
        for mod in (package, *mods.values()):
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._saved.append((mod, name, obj))
                    setattr(mod, name, wrappers[obj])

    def uninstall(self) -> None:
        for mod, name, obj in reversed(self._saved):
            setattr(mod, name, obj)
        self._saved.clear()

    def _wrap(self, fn: Callable, span_name: str) -> Callable:
        counter = self.counters.get(span_name)

        def wrapper(*args, **kwargs):
            job = self.job
            if job is None:
                return fn(*args, **kwargs)
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            parent = stack[-1] if stack else (
                self._main_stack[-1] if self._main_stack else None)
            span = [span_name, time.perf_counter(), 0.0, parent, job, False]
            self.spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[ERROR] = True
                raise
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if counter is not None:
                with self._lock:
                    for key, inc in counter(args, kwargs, result).items():
                        self.counts[key] += inc
            return result

        wrapper.__qualname__ = span_name
        wrapper.__wrapped__ = fn
        return wrapper

    # -- jobs -------------------------------------------------------------

    def begin_job(self, job_id) -> None:
        """Open a job on the calling (generator) thread."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        self._main_stack = stack
        self.job = job_id

    def end_job(self) -> list[list]:
        """Close the job and hand back its spans."""
        self.job = None
        spans, self.spans = self.spans, []
        return spans
