"""In-memory span tracer wrapped around the program's public layer calls.

The benchmark's traced run installs :class:`Tracer` after set-up and
removes it afterwards; the program itself carries no tracing code.  A
span records its name, layer, thread, start, end, parent span and the
request ids it served.  Spans stay in a list until :meth:`Tracer.dump`
writes them out at the end of the run.

The tracer also times every job the event loop hands to an executor
(the broker's wave thread runs one job per wave).  That job time is
measured around the layer calls, not by them, so it is what the layer
self times are closed against.

Worker processes of the persistent pool are forked during set-up,
before the tracer is installed, so they run unwrapped code; the parent
sees a pool task only as its ``submit``/``collect`` spans, and the
worker-side split comes from the returned ``PipelineResult.timings_s``.
"""

from __future__ import annotations

import bisect
import functools
import gzip
import inspect
import itertools
import json
import threading
import time
from dataclasses import dataclass

#: Layer names, by the program module they stand for.
LAYERS = {
    "serve": "repro.serve.broker",
    "pool": "repro.serve.pool",
    "engine": "repro.core.engine",
    "select": "repro.core.landing_zone",
    "monitor": "repro.core.monitor",
    "decide": "repro.core.decision",
    "seg": "repro.segmentation",
    "nn": "repro.nn",
}
#: Spans that run one MC-dropout pass end to end (crops to verdicts).
MC_ROOTS = ("EpisodeScheduler.check_zones_wave", "RuntimeMonitor.check_zone",
            "RuntimeMonitor.check_zones")
MC_PASSES = ("BayesianSegmenter.predict_distribution",
             "BayesianSegmenter.predict_distribution_stack",
             "BayesianSegmenter.predict_distribution_ragged",
             "BayesianSegmenter.predict_distribution_adaptive",
             "BayesianSegmenter.predict_distribution_batch")
#: Closure tolerance: layer self times plus the compute thread's idle
#: time must equal the measured wall time to within this share of it.
CLOSURE_TOLERANCE = 0.02


@dataclass(frozen=True)
class Span:
    sid: int
    name: str
    layer: str
    thread: int
    start: float
    end: float
    parent: int
    requests: tuple
    attrs: dict
    #: Request-level async spans overlap one another; they are kept out
    #: of self-time accounting.
    request_span: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


def _conv_attrs(args, kwargs, out):
    x, weight = args[0], args[1]
    if x.shape[0] > 1 and x.strides[0] == 0:
        # Broadcast batch: the engine computes one sample and re-enters
        # conv2d_infer for it; that inner call is the one counted.
        return {"broadcast": 1}
    n, c_out, h_out, w_out = out.shape
    c_in, kh, kw = weight.shape[1:]
    macs = n * c_out * h_out * w_out * c_in * kh * kw
    moved = (x.size * x.itemsize + weight.size * weight.itemsize
             + out.size * out.itemsize)
    return {"macs": int(macs), "bytes": int(moved)}


def _count(key, fn):
    return lambda args, kwargs, out: {key: int(fn(args, kwargs, out))}


def _collect_attrs(args, kwargs, out):
    worker_s = 0.0
    for outcome in out:
        result = outcome[1]
        timings = getattr(result, "timings_s", None) or {}
        worker_s += sum(timings.values())
    return {"tasks": len(out), "worker_s": worker_s}


class Tracer:
    """Wraps public methods of the program's layers with spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        #: ``id(box)`` -> request id, registered by the load generator.
        self.box_requests: dict[int, str] = {}
        #: (thread, start, end) of every timed compute job.
        self.jobs: list[tuple[int, float, float]] = []

    # -- installation ------------------------------------------------
    def install(self) -> None:
        from repro.core.decision import DecisionCursor
        from repro.core.engine import EpisodeScheduler
        from repro.core.landing_zone import LandingZoneSelector
        from repro.core.monitor import RuntimeMonitor
        from repro.nn import functional, layers
        from repro.segmentation.bayesian import BayesianSegmenter
        from repro.serve.broker import ServeBroker
        from repro.serve.pool import PersistentWorkerPool

        box_req = self.box_requests
        self._wrap(ServeBroker, "check_zone", "serve",
                   requests=lambda a, k: (box_req.get(id(a[2])),))
        self._wrap(ServeBroker, "run_episode", "serve",
                   requests=lambda a, k: (k.get("name"),))
        self._wrap(EpisodeScheduler, "run", "engine",
                   requests=lambda a, k: tuple(ep.name for ep in a[1]),
                   attrs=_count("frames", lambda a, k, o: sum(
                       len(ep.frames) for ep in a[1])))
        self._wrap(EpisodeScheduler, "check_zones_wave", "engine",
                   requests=lambda a, k: tuple(
                       box_req.get(id(box)) for _, box in a[1]),
                   attrs=_count("crops", lambda a, k, o: len(a[1])))
        self._wrap(PersistentWorkerPool, "submit", "pool")
        self._wrap(PersistentWorkerPool, "collect", "pool",
                   attrs=_collect_attrs)
        self._wrap(LandingZoneSelector, "propose", "select",
                   attrs=_count("candidates", lambda a, k, o: len(o)))
        self._wrap(RuntimeMonitor, "check_zone", "monitor",
                   attrs=_count("checks", lambda a, k, o: 1))
        self._wrap(RuntimeMonitor, "check_zones", "monitor",
                   attrs=_count("checks", lambda a, k, o: len(o)))
        self._wrap(DecisionCursor, "feed", "decide")
        self._wrap(BayesianSegmenter, "predict_labels_batch", "seg",
                   attrs=_count("frames", lambda a, k, o: len(o)))
        self._wrap(BayesianSegmenter, "compute_prefix", "seg",
                   attrs=_count("crops", lambda a, k, o: a[1].shape[0]))
        self._wrap(BayesianSegmenter, "predict_distribution", "seg",
                   attrs=_count("crops", lambda a, k, o: 1))
        for name in ("predict_distribution_stack",
                     "predict_distribution_ragged",
                     "predict_distribution_adaptive",
                     "predict_distribution_batch"):
            self._wrap(BayesianSegmenter, name, "seg",
                       attrs=_count("crops", lambda a, k, o: len(a[1])))
        self._wrap(functional, "conv2d_infer", "nn", attrs=_conv_attrs,
                   name="conv2d_infer")
        for cls in vars(layers).values():
            if (inspect.isclass(cls) and issubclass(cls, layers.Module)
                    and cls.__module__ == layers.__name__
                    and "forward" in vars(cls)):
                self._wrap(cls, "forward", "nn")

    def time_executor_jobs(self, loop) -> None:
        """Time each job ``loop`` runs in an executor, on its thread."""
        original = loop.run_in_executor
        jobs = self.jobs

        def run_in_executor(executor, fn, *args):
            def timed(*inner):
                start = time.perf_counter()
                try:
                    return fn(*inner)
                finally:
                    jobs.append((threading.get_ident(), start,
                                 time.perf_counter()))
            return original(executor, timed, *args)

        loop.run_in_executor = run_in_executor
        self._patches.append((loop, "run_in_executor", None))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is None:  # an instance attribute we added
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def _wrap(self, owner, attr, layer, requests=None, attrs=None,
              name=None):
        original = vars(owner)[attr]
        label = name or f"{owner.__name__}.{attr}"
        tracer = self
        if inspect.iscoroutinefunction(original):
            @functools.wraps(original)
            async def wrapper(*args, **kwargs):
                start = time.perf_counter()
                try:
                    return await original(*args, **kwargs)
                finally:
                    tracer.spans.append(Span(
                        next(tracer._ids), label, layer,
                        threading.get_ident(), start, time.perf_counter(),
                        -1, requests(args, kwargs) if requests else (),
                        {}, request_span=True))
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                stack = tracer._stack()
                sid = next(tracer._ids)
                parent = stack[-1] if stack else -1
                stack.append(sid)
                start = time.perf_counter()
                out = None
                try:
                    out = original(*args, **kwargs)
                    return out
                finally:
                    end = time.perf_counter()
                    stack.pop()
                    extra = attrs(args, kwargs, out) \
                        if attrs and out is not None else {}
                    tracer.spans.append(Span(
                        sid, label, layer, threading.get_ident(), start,
                        end, parent,
                        requests(args, kwargs) if requests else (),
                        extra))
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- output ------------------------------------------------------
    def dump(self, path) -> None:
        """Write every span as one gzipped JSON line."""
        with gzip.open(path, "wt") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.sid, "name": s.name, "layer": s.layer,
                    "thread": s.thread, "start": s.start, "end": s.end,
                    "parent": s.parent, "requests": list(s.requests),
                    "attrs": s.attrs, "request_span": s.request_span})
                    + "\n")


@dataclass
class Breakdown:
    """Self time per layer on one compute thread, closed against the
    thread's job time measured around the layer calls."""

    wall_s: float
    #: Time the thread spent in compute jobs (timed around them).
    busy_s: float
    self_s: dict
    negative_self: int

    @property
    def unaccounted_s(self) -> float:
        """Wall time outside every compute job: the thread idle, or the
        benchmark's own glue."""
        return self.wall_s - self.busy_s

    @property
    def closure_error(self) -> float:
        """|layer self times + unaccounted time - wall| / wall, i.e. the
        share of the wall the thread was busy outside every layer span
        (or, if negative, counted twice)."""
        return abs(sum(self.self_s.values()) - self.busy_s) / self.wall_s

    @property
    def closed(self) -> bool:
        return (self.closure_error <= CLOSURE_TOLERANCE
                and self.negative_self == 0)


def children_of(spans) -> dict:
    kids: dict[int, list[Span]] = {}
    for s in spans:
        kids.setdefault(s.parent, []).append(s)
    return kids


def self_times(spans) -> dict:
    """``sid`` -> own duration minus its direct children's durations."""
    kids = children_of(spans)
    return {s.sid: s.duration - sum(c.duration for c in kids.get(s.sid, ()))
            for s in spans}


def breakdown(spans, jobs, windows) -> Breakdown:
    """Self time per layer on the compute thread over the timed windows.

    ``jobs`` are ``(thread, start, end)`` compute jobs timed around the
    layer calls (all on one thread); ``windows`` are the ``(start,
    end)`` intervals the benchmark timed.  A job belongs to the
    breakdown when it started inside a window (the window is stretched
    to its end), a span when it ran on that thread within such a job.
    """
    def window_of(t):
        return next((k for k, (lo, hi) in enumerate(windows)
                     if lo <= t < hi), None)

    chosen = [j for j in jobs if window_of(j[1]) is not None]
    thread = chosen[0][0] if chosen else None
    if any(j[0] != thread for j in chosen):
        raise ValueError("compute jobs ran on more than one thread")
    ends = [hi for _, hi in windows]
    for _, start, end in chosen:
        k = window_of(start)
        ends[k] = max(ends[k], end)
    wall = sum(hi - lo for (lo, _), hi in zip(windows, ends))
    starts = sorted((lo, hi) for _, lo, hi in chosen)
    firsts = [lo for lo, _ in starts]

    def in_job(s):
        k = bisect.bisect_right(firsts, s.start) - 1
        return k >= 0 and s.end <= starts[k][1]

    mine = [s for s in spans
            if s.thread == thread and not s.request_span and in_job(s)]
    own = self_times(mine)
    per_layer: dict[str, float] = {name: 0.0 for name in LAYERS}
    for s in mine:
        per_layer[s.layer] += own[s.sid]
    return Breakdown(wall_s=wall, busy_s=sum(e - s for _, s, e in chosen),
                     self_s=per_layer,
                     negative_self=sum(1 for v in own.values() if v < -1e-9))
