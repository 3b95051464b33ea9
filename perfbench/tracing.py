"""Spans and counters around the calls into each ``freepoisson`` layer.

The wrappers replace functions at the names each calling module looks up
(``freepoisson.solver.boundary_values_fast``, ``freepoisson.harmonic.
forward_dst``, ...), so the program itself is not changed.  Spans are
recorded only inside a request opened with :meth:`Tracer.request` and only
on the thread that opened it; the ``scipy.fft`` entry points and
``green_values`` seen by ``freepoisson.boundary`` are counted, not timed,
because with ``thread_count > 1`` they run on worker threads.

Spans are kept in memory.  A span's self time is its duration minus the
durations of its child spans; summed over one request's spans the self
times give the request's duration, the root's self time being the time
spent outside every wrapped call.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import statistics
import threading
import time
import tracemalloc
from dataclasses import asdict, dataclass

# (module under freepoisson, attribute it looks up); the span is named
# "<module>.<attribute>".
SPAN_SITES = (
    ("solver", "solve_phi_star"),
    ("solver", "boundary_values_fast"),
    ("solver", "solve_harmonic_4th"),
    ("solver", "solve_harmonic_6th"),
    ("solver", "check_support"),
    ("solver", "restrict_to_subgrid"),
    ("dirichlet", "check_support"),
    ("dirichlet", "forward_dst"),
    ("dirichlet", "inverse_dst"),
    ("boundary", "check_support"),
    ("harmonic", "build_operator_symbol"),
    ("harmonic", "transfer_boundary_to_rhs"),
    ("harmonic", "sixth_order_rhs"),
    ("harmonic", "forward_dst"),
    ("harmonic", "inverse_dst"),
    ("cli", "read_pgrid"),
    ("cli", "write_pgrid"),
)
SAMPLE_SPAN = "grid.GridFunction.from_callable"
ROOT_SPAN = "request"

BOUNDARY_SPANS = ("solver.boundary_values_fast",)
HARMONIC_SPANS = ("solver.solve_harmonic_4th", "solver.solve_harmonic_6th")
CHECK_SUPPORT_SPANS = ("solver.check_support", "dirichlet.check_support", "boundary.check_support")
DST_SPANS = ("dirichlet.forward_dst", "dirichlet.inverse_dst", "harmonic.forward_dst", "harmonic.inverse_dst")

# Per-layer metric -> (unit, what it is taken from).  ("time", spans) sums
# the spans' durations, ("calls", spans) counts them, ("counter", key,
# scale) reads a counter; every value is per request.
SPAN_METRICS = {
    "boundary.time_s": ("s", "time", BOUNDARY_SPANS),
    "boundary.fft_calls": ("count", "counter", "fft_calls", 1.0),
    "boundary.fft_mpoints": ("Mpoint", "counter", "fft_points", 1e-6),
    "greens.kernel_mevals": ("Meval", "counter", "kernel_evals", 1e-6),
    "harmonic.time_s": ("s", "time", HARMONIC_SPANS),
    "harmonic.symbol_s": ("s", "time", ("harmonic.build_operator_symbol",)),
    "harmonic.transfer_rhs_s": ("s", "time", ("harmonic.transfer_boundary_to_rhs",)),
    "harmonic.sixth_order_rhs_s": ("s", "time", ("harmonic.sixth_order_rhs",)),
    "transforms.dst_calls": ("count", "calls", DST_SPANS),
    "transforms.dst_s": ("s", "time", DST_SPANS),
    "dirichlet.phi_star_s": ("s", "time", ("solver.solve_phi_star",)),
    "dirichlet.check_support_calls": ("count", "calls", CHECK_SUPPORT_SPANS),
    "dirichlet.check_support_s": ("s", "time", CHECK_SUPPORT_SPANS),
    "grid.sample_s": ("s", "time", (SAMPLE_SPAN,)),
    "grid.restrict_s": ("s", "time", ("solver.restrict_to_subgrid",)),
    "pgrid.read_s": ("s", "time", ("cli.read_pgrid",)),
    "pgrid.write_s": ("s", "time", ("cli.write_pgrid",)),
}
# Peak tracemalloc allocation inside a phase, from a separate memory pass.
MEMORY_METRICS = {
    "boundary.peak_mib": BOUNDARY_SPANS,
    "harmonic.peak_mib": HARMONIC_SPANS,
}
_MEMORY_SPANS = frozenset(s for spans in MEMORY_METRICS.values() for s in spans)
MISSING = -1.0

_FFT_HELPERS = ("freq", "shift", "fast_len", "workers", "backend")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    request: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class _CountingFFT:
    """Stands in for ``scipy.fft`` inside one module and counts transforms."""

    def __init__(self, module, tracer: "Tracer"):
        self._module = module
        self._tracer = tracer

    def __getattr__(self, name):
        fn = getattr(self._module, name)
        if "fft" not in name or any(h in name for h in _FFT_HELPERS):
            return fn

        @functools.wraps(fn)
        def counted(x, shape, *args, **kwargs):
            # boundary.py passes the padded shape as a tuple, positionally;
            # any other call form is a change this count must not hide.
            if not isinstance(shape, tuple):
                raise TypeError(f"{name}: expected the transform shape as a tuple")
            self._tracer.count(fft_calls=1, fft_points=math.prod(shape))
            return fn(x, shape, *args, **kwargs)

        setattr(self, name, counted)  # later lookups skip __getattr__
        return counted


class Tracer:
    """Installs the wrappers and keeps the spans and counters of requests."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.counters: dict[int, dict[str, float]] = {}
        self.peaks: dict[str, float] = {}
        self.track_memory = False
        self.unpatched: set[str] = set()  # sites that no longer exist
        self._patches = []
        self._lock = threading.Lock()
        self._stack: list[int] = []
        self._request: int | None = None
        self._thread = None

    # -- installation -------------------------------------------------------
    def install(self):
        for mod, attr in SPAN_SITES:
            module = importlib.import_module(f"freepoisson.{mod}")
            fn = getattr(module, attr, None)
            if fn is None:
                self.unpatched.add(f"{mod}.{attr}")
                continue
            self._patch(module, attr, self._span_wrapper(f"{mod}.{attr}", fn))
        grid_function = importlib.import_module("freepoisson.grid").GridFunction
        sample = grid_function.__dict__["from_callable"].__func__
        self._patch(grid_function, "from_callable",
                    classmethod(self._span_wrapper(SAMPLE_SPAN, sample)))
        boundary = importlib.import_module("freepoisson.boundary")
        self._patch(boundary, "sfft", _CountingFFT(boundary.sfft, self))
        green_values = boundary.green_values

        @functools.wraps(green_values)
        def counted_green_values(dim, r):
            out = green_values(dim, r)
            self.count(kernel_evals=out.size)
            return out

        self._patch(boundary, "green_values", counted_green_values)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    # -- recording ----------------------------------------------------------
    def _span_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._request is None or threading.current_thread() is not self._thread:
                return fn(*args, **kwargs)
            index = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1]
            self._stack.append(index)
            # Tracing allocations from the phase's entry counts only what the
            # phase itself allocates, and keeps tracemalloc's cost out of
            # the rest of the request.
            memory = self.track_memory and name in _MEMORY_SPANS
            if memory:
                tracemalloc.start()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if memory:
                    peak = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                    self.peaks[name] = max(self.peaks.get(name, 0.0), peak)
                self._stack.pop()
                self.spans[index] = Span(name, start, end, parent, self._request)

        return wrapper

    def count(self, **amounts):
        if self._request is None:
            return
        with self._lock:
            counters = self.counters.setdefault(self._request, {})
            for key, value in amounts.items():
                counters[key] = counters.get(key, 0) + value

    @contextlib.contextmanager
    def request(self, index: int):
        """Open request ``index``; its root span covers the ``with`` body."""
        root = len(self.spans)
        self.spans.append(None)
        self._stack = [root]
        self._thread = threading.current_thread()
        self._request = index
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._request = None
            self._stack = []
            self.spans[root] = Span(ROOT_SPAN, start, end, None, index)

    # -- analysis -----------------------------------------------------------
    def request_spans(self) -> dict[int, list[Span]]:
        out: dict[int, list[Span]] = {}
        for span in self.spans:
            out.setdefault(span.request, []).append(span)
        return out

    def self_times(self) -> dict[int, dict[str, float]]:
        """Per request: span name -> summed self time (root included)."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.duration
        out: dict[int, dict[str, float]] = {}
        for i, span in enumerate(self.spans):
            times = out.setdefault(span.request, {})
            times[span.name] = times.get(span.name, 0.0) + span.duration - child_time[i]
        return out

    def layer_metrics(self):
        """Median per-request value of every span, counter and memory metric.

        Returns (metrics, missing): metrics maps name -> (value, unit), and a
        metric whose spans or counter were never seen is reported as
        ``MISSING`` and listed in ``missing``.
        """
        per_request = self.request_spans()
        metrics, missing = {}, []
        for name, (unit, kind, *source) in SPAN_METRICS.items():
            values = []
            for index, spans in per_request.items():
                if kind == "counter":
                    key, scale = source
                    if key in self.counters.get(index, {}):
                        values.append(self.counters[index][key] * scale)
                    continue
                hits = [s for s in spans if s.name in source[0]]
                if hits:
                    values.append(float(len(hits)) if kind == "calls"
                                  else sum(s.duration for s in hits))
            if values:
                metrics[name] = (statistics.median(values), unit)
            else:
                metrics[name] = (MISSING, unit)
                missing.append(name)
        selfs = self.self_times()
        metrics["solver.self_s"] = (
            statistics.median(t[ROOT_SPAN] for t in selfs.values()), "s")
        for name, sources in MEMORY_METRICS.items():
            seen = [self.peaks[s] for s in sources if s in self.peaks]
            if seen:
                metrics[name] = (max(seen), "MiB")
            else:
                metrics[name] = (MISSING, "MiB")
                missing.append(name)
        return metrics, missing

    def to_json(self) -> dict:
        return {
            "spans": [asdict(s) for s in self.spans],
            "counters": {str(k): v for k, v in self.counters.items()},
            "peaks_mib": self.peaks,
            "unpatched": sorted(self.unpatched),
        }
