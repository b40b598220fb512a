"""Spans recorded around certlab's public functions, and their self times.

The benchmark does not edit the program.  `instrumented` swaps each traced
function for a timing wrapper at every place the program looks it up: the
module attribute of every certlab module that imported it by name, or the
class attribute for methods.  Leaving the context restores the originals,
so traced and untraced jobs can alternate in one process.

Spans stay in memory while a run measures.  Each records its name, start,
end, parent span, thread and job; `self_times` turns them into self time
(duration minus the part of the interval its children cover).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import math
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    job: int
    counts: dict = field(default_factory=dict)


class Tracer:
    """In-memory span recorder; safe to call from the program's worker threads."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict = defaultdict(int)  # (job, name) -> count
        self._lock = threading.Lock()
        self._local = threading.local()
        self.job = -1
        self.root: int | None = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, counts: dict | None = None) -> Span:
        stack = self._stack()
        # A worker thread's outermost span hangs off the job's root span.
        parent = stack[-1].id if stack else self.root
        with self._lock:
            span = Span(len(self.spans), name, 0.0, 0.0, parent,
                        threading.get_ident(), self.job, counts or {})
            self.spans.append(span)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    def count(self, name: str) -> None:
        with self._lock:
            self.counters[(self.job, name)] += 1

    @contextlib.contextmanager
    def job_span(self, job: int):
        """Root span of one job; spans opened inside it belong to the job."""
        self.job = job
        self.root = None
        root = self.open("job")
        self.root = root.id
        try:
            yield root
        finally:
            self.close(root)
            self.root = None

    def dump(self) -> list:
        return [[s.name, s.start, s.end, s.parent, s.thread, s.job, s.counts]
                for s in self.spans]


def _union_length(intervals) -> float:
    total = 0.0
    cur_a = cur_b = None
    for a, b in sorted(intervals):
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        elif b > cur_b:
            cur_b = b
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> tuple[dict, float]:
    """Self time of each span id, and the time counted twice among them.

    A span's self time is its duration minus the union of its children's
    intervals (clipped to the span).  Children on one thread nest and never
    overlap; children on different threads (the workers of a fan-out, which
    hang off the job's root span) may.  Their union counts that parallel
    time once in the parent, while each child's own self time counts it
    again, so  sum(self) = root duration + overlap  for one job.
    """
    kids = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            kids[s.parent].append((s.start, s.end))
    out = {}
    overlap = 0.0
    for s in spans:
        clipped = [(max(a, s.start), min(b, s.end)) for a, b in kids.get(s.id, ())]
        clipped = [(a, b) for a, b in clipped if b > a]
        covered = _union_length(clipped)
        out[s.id] = (s.end - s.start) - covered
        overlap += sum(b - a for a, b in clipped) - covered
    return out, overlap


def layer_totals(spans, counters: dict, job: int) -> dict:
    """Per span name for one job: self_s, calls, wall, summed counts.

    Also returns under "job": the root span's wall and self time (time no
    span covers), the overlap from `self_times`, and under "workers" the
    busy time of threads other than the root's.
    """
    mine = [s for s in spans if s.job == job]
    selfs, overlap = self_times(mine)
    root = next(s for s in mine if s.name == "job")
    totals: dict = defaultdict(lambda: defaultdict(float))
    worker_busy = 0.0
    for s in mine:
        t = totals[s.name]
        t["self_s"] += selfs[s.id]
        t["calls"] += 1
        for k, v in s.counts.items():
            t[k] += v
        if s.parent == root.id and s.thread != root.thread:
            worker_busy += s.end - s.start
    for (j, name), n in counters.items():
        if j == job:
            totals[name]["calls"] += n
    totals["job"]["wall"] = root.end - root.start
    totals["job"]["overlap"] = overlap
    totals["workers"]["busy_s"] = worker_busy
    return totals


# ---------------------------------------------------------------- targets

def _wht_rows(name, args, kwargs):
    rows = np.asarray(args[0] if args else kwargs["rows"])
    kind = "int" if np.issubdtype(rows.dtype, np.integer) else "float"
    nrows = rows.shape[0] if rows.ndim > 1 else 1
    return f"{name}.{kind}", {"rows": nrows,
                              "butterflies": butterflies(nrows, rows.shape[-1])}


def _gaussians(name, args, kwargs):
    return name, {"values": args[1] if len(args) > 1 else kwargs["count"]}


def _row_elems(name, args, kwargs):
    rows = args[1] if len(args) > 1 else kwargs["scaled_rows"]
    return name, {"row_elems": rows.shape[0] * rows.shape[1]}


def butterflies(rows: int, size: int) -> int:
    """Add/subtract pairs of a radix-2 transform: rows * N * log2(N)."""
    return rows * size * int(math.log2(size)) if size > 0 else 0


# (span name, defining module, attribute, describe(name, args, kwargs))
TARGETS = [
    ("rng.make_rng", "certlab.rng", "make_rng", None),
    ("rng.gaussians", "certlab.rng", "gaussians", _gaussians),
    ("boolfn.wht_rows", "certlab.boolfn", "wht_rows", _wht_rows),
    ("boolfn.random_functions_batch", "certlab.boolfn", "random_functions_batch", None),
    ("boolfn.wht", "certlab.boolfn", "wht", None),
    ("boolfn.coefficient_at", "certlab.boolfn", "coefficient_at", None),
    ("fouriersample.sample_batch", "certlab.fouriersample", "HonestSampler.sample_batch", _row_elems),
    ("fouriersample.pgpb_counts", "certlab.fouriersample", "pgpb_counts", None),
    ("devices.sample_rows", "certlab.devices", "DeviceModel.sample_rows", None),
    ("devices.min_entropy_rows", "certlab.devices", "DeviceModel.min_entropy_rows", None),
    ("devices.sample_many", "certlab.devices", "DeviceModel.sample_many", None),
    ("sqforrelation.sample_gprime_rows", "certlab.sqforrelation", "sample_gprime_rows", None),
    ("rejection.rhog_values", "certlab.rejection", "rhog_values", None),
    ("entropy.derandomize", "certlab.entropy", "derandomize", None),
    ("entropy.rejsamp", "certlab.entropy", "rejsamp", None),
    ("llqsv.llqsv_instance", "certlab.llqsv", "llqsv_instance", None),
    ("llqsv.to_llq1", "certlab.llqsv", "to_llq1", None),
    ("llqsv.from_llq1", "certlab.llqsv", "from_llq1", None),
    ("protocol.run_protocol", "certlab.protocol", "run_protocol", None),
    ("protocol.toeplitz_extract", "certlab.protocol", "toeplitz_extract", None),
    ("protocol.transcript_to_dict", "certlab.protocol", "transcript_to_dict", None),
]


def _wrap(fn, tracer: Tracer, name: str, describe):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        label, counts = (name, None) if describe is None else describe(name, args, kwargs)
        span = tracer.open(label, counts)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(span)
    return traced


class _JsonInCli:
    """Stands in for the json module inside certlab.cli, with dumps traced."""

    def __init__(self, dumps):
        self.dumps = dumps

    def __getattr__(self, key):
        return getattr(json, key)


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Route every TARGETS function, json.dumps in certlab.cli and
    BooleanFunction construction through `tracer`; restore on exit."""
    import certlab.cli  # noqa: F401  (loads every module the CLI uses)

    modules = [m for k, m in sorted(sys.modules.items())
               if k == "certlab" or k.startswith("certlab.")]
    undo = []

    def patch(owner, key, value):
        undo.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, value)

    try:
        for name, modname, attr, describe in TARGETS:
            owner = importlib.import_module(modname)
            if "." in attr:
                cls, attr = attr.split(".")
                owner = getattr(owner, cls)
                patch(owner, attr, _wrap(owner.__dict__[attr], tracer, name, describe))
                continue
            fn = getattr(owner, attr)
            wrapped = _wrap(fn, tracer, name, describe)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        patch(mod, key, wrapped)

        cli = sys.modules["certlab.cli"]
        patch(cli, "json", _JsonInCli(_wrap(json.dumps, tracer, "cli.json_dumps", None)))

        boolfn_cls = sys.modules["certlab.boolfn"].BooleanFunction
        post_init = boolfn_cls.__dict__["__post_init__"]

        def counted_post_init(self):
            tracer.count("boolfn.BooleanFunction.constructed")
            post_init(self)

        patch(boolfn_cls, "__post_init__", counted_post_init)
        yield tracer
    finally:
        for owner, key, value in reversed(undo):
            setattr(owner, key, value)
