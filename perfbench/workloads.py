"""The three workloads, run against the public API.

``fleet``          offline closed loop: ``EpisodeScheduler.run`` waves.
``zone_checks``    open loop of single zone checks through ``ServeBroker``,
                   then a closed loop for its capacity.
``episode_steps``  the same with single-frame episode steps (pool path)
                   and zone checks riding along.

Each runner builds its inputs from the seed and its correctness
references before any timing, sets the system up ``SETUP_REPS`` times
(the median is ``setup_s``), then measures.  With ``trace`` set it
instead measures an untraced and a traced phase of identical load and
reports per-layer numbers from the traced one.
"""

from __future__ import annotations

import asyncio
import math
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from inputs import (
    FLEET_SETS,
    build_inputs,
    fleet_sets,
    inputs_digest,
    make_plan,
)
from spans import (
    MC_PASSES,
    MC_ROOTS,
    Tracer,
    breakdown,
    children_of,
    self_times,
)
from stats import (
    PhaseLedger,
    median,
    percentile,
    reconcile,
    tail,
    tail_percentile_for,
    window_rate,
)

SETUP_REPS = 5
#: The ``run_seconds`` the tail percentiles are fixed for.
RUN_SECONDS = 30
#: How long past its last due time a phase waits for its answers; a
#: request still unanswered then is dropped (a failure).
GRACE_S = 10.0
#: A served run cycles this many rounds of (low, high, capacity)
#: blocks, so each metric samples the whole run rather than one third
#: of it: a host slow-down of a few seconds then lands in one block of
#: each instead of in one metric.
ROUNDS = 6
#: Closed-loop capacity: completions are counted from this long after
#: a block starts (ramp-up) to its end.
RAMP_S = 0.1


@dataclass(frozen=True)
class Served:
    """A served workload's load and how its tails are cut.

    A tail is the median over ``windows`` equal windows of a phase's
    samples of each window's tail percentile, the highest with ten
    samples beyond it in a window at the low rate (see ``stats.Tail``).
    Side-stream tails use one window per block.
    """

    workers: int
    low: float
    high: float
    #: Ride-along zone checks per second (0: none).
    side: float
    #: Share of ``--seconds`` given to each fixed-rate phase.
    phase_share: float
    windows: int
    #: Primary requests kept outstanding in the closed-loop capacity
    #: phase, and its share of ``--seconds``.
    clients: int
    capacity_share: float

    @property
    def q(self) -> float:
        """Tail percentile of the primary stream (fixed per workload)."""
        return tail_percentile_for(int(
            self.low * RUN_SECONDS * self.phase_share / self.windows))

    @property
    def side_q(self) -> float:
        return tail_percentile_for(int(
            self.side * RUN_SECONDS * self.phase_share / ROUNDS))


ZONE_CHECKS = Served(workers=1, low=100.0, high=150.0, side=0.0,
                     phase_share=0.3, windows=ROUNDS, clients=16,
                     capacity_share=0.3)
#: One closed-loop step client: with two or more, waves carry several
#: steps, both workers run at once with their BLAS threads on the
#: 2-core reference host, and throughput swings between ~13/s and
#: ~42/s from run to run (one client: ~50-60/s).
EPISODE_STEPS = Served(workers=2, low=8.0, high=15.0, side=100.0,
                       phase_share=0.3, windows=1, clients=1,
                       capacity_share=0.3)
#: Fleet waves: 12 episodes (high) and their first-of-each-scenario
#: half (low), alternating, cycling over the ``FLEET_SETS`` seeded sets
#: so each median spans 48 episodes, not the work of one set.  A 30 s
#: run yields 48-75 waves of each on the 2-core reference host; p75
#: keeps ten beyond it at 48.
FLEET_TAIL_Q = 75.0
FLEET_TRACE_WAVES = 8


def load_system():
    """The full-scale trained system from the weight cache.

    The first call in a fresh checkout trains the weights (a one-time
    preparation, done before any timing); later calls load them.
    """
    from repro.eval import HarnessConfig, build_trained_system

    return build_trained_system(HarnessConfig(), cache=True)


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def same_verdict(a, b) -> bool:
    return (a.accepted == b.accepted and a.box == b.box
            and a.unsafe_fraction == b.unsafe_fraction
            and a.num_samples == b.num_samples
            and np.array_equal(a.unsafe_mask, b.unsafe_mask))


def same_result(a, b) -> bool:
    """Bit-for-bit equality of two ``PipelineResult``s (timings aside)."""
    da, db = a.decision, b.decision
    return (np.array_equal(a.predicted_labels, b.predicted_labels)
            and a.candidates == b.candidates
            and len(a.verdicts) == len(b.verdicts)
            and all(same_verdict(x, y)
                    for x, y in zip(a.verdicts, b.verdicts))
            and da.action == db.action and da.zone == db.zone
            and da.attempts == db.attempts and da.log == db.log)


def decision_metrics(results) -> dict:
    frames = len(results)
    if not frames:
        return {"decide.attempts_per_frame": 0.0, "decide.land_share": 0.0,
                "decide.abort_share": 0.0}
    landed = sum(1 for r in results if r.landed)
    return {
        "decide.attempts_per_frame":
            sum(r.decision.attempts for r in results) / frames,
        "decide.land_share": landed / frames,
        "decide.abort_share": (frames - landed) / frames,
    }


def worker_split(results) -> dict:
    """Per-frame stage split of pool-served steps, from the workers' own
    ``PipelineResult.timings_s`` (spans in a worker stay there)."""
    frames = len(results)
    if not frames:
        return {}
    checks = sum(len(r.verdicts) for r in results)

    def stage_ms(key):
        return 1e3 * sum(r.timings_s.get(key, 0.0) for r in results)

    return {
        "seg.labels_ms_per_frame": stage_ms("segmentation_s") / frames,
        "seg.labels_frames_per_call": 1.0,
        "select.propose_ms_per_frame": stage_ms("selection_s") / frames,
        "select.candidates_per_frame":
            sum(len(r.candidates) for r in results) / frames,
        "monitor.checks_per_frame": checks / frames,
        "monitor.check_ms": stage_ms("monitoring_s") / checks
        if checks else 0.0,
    }


def samples_used_share(used, budget: int) -> float:
    """MC samples used per verdict over the budget (1.0 when adaptive
    is off)."""
    if not used:
        return 0.0
    return sum(used) / (len(used) * budget)


# ----------------------------------------------------------------------
# Per-layer metrics from spans
# ----------------------------------------------------------------------
LAYER_CLASSES = {
    "nn.bn_ms": ("BatchNorm2d.forward",),
    "nn.dropout_ms": ("Dropout.forward", "SpatialDropout2d.forward"),
    "nn.upsample_ms": ("Upsample.forward",),
    "nn.relu_ms": ("ReLU.forward", "LeakyReLU.forward"),
}


def span_metrics(tracer: Tracer, windows, workers: int):
    """Every span-derived per-layer metric over the traced ``windows``,
    and the self-time breakdown they close against."""
    spans = [s for s in tracer.spans
             if any(lo <= s.start < hi for lo, hi in windows)]
    compute = [s for s in spans if not s.request_span]
    by_id = {s.sid: s for s in compute}
    own = self_times(compute)

    def named(*names):
        return [s for s in compute if s.name in names]

    def outermost(group, names):
        out = []
        for s in group:
            p = by_id.get(s.parent)
            while p is not None and p.name not in names:
                p = by_id.get(p.parent)
            if p is None:
                out.append(s)
        return out

    def total(group):
        return sum(s.duration for s in group)

    def attr(group, key):
        return sum(s.attrs.get(key, 0) for s in group)

    def per(num, den):
        return num / den if den else 0.0

    m = {}
    runs = named("EpisodeScheduler.run")
    frames = attr(runs, "frames")
    m["engine.run_ms_per_frame"] = per(1e3 * total(runs), frames)
    m["engine.self_ms_per_frame"] = per(
        1e3 * sum(own[s.sid] for s in runs), frames)
    waves = named("EpisodeScheduler.check_zones_wave")
    m["engine.zone_wave_ms"] = per(1e3 * total(waves), len(waves))
    proposes = named("LandingZoneSelector.propose")
    m["select.propose_ms_per_frame"] = per(1e3 * total(proposes), frames)
    m["select.candidates_per_frame"] = per(attr(proposes, "candidates"),
                                           frames)
    checks = named("RuntimeMonitor.check_zone", "RuntimeMonitor.check_zones")
    checks = outermost(checks, ("RuntimeMonitor.check_zones",))
    m["monitor.checks_per_frame"] = per(attr(checks, "checks"), frames)
    m["monitor.check_ms"] = per(1e3 * total(checks), len(checks))
    labels = named("BayesianSegmenter.predict_labels_batch")
    m["seg.labels_ms_per_frame"] = per(1e3 * total(labels),
                                       attr(labels, "frames"))
    m["seg.labels_frames_per_call"] = per(attr(labels, "frames"),
                                          len(labels))
    prefix = named("BayesianSegmenter.compute_prefix")
    m["seg.prefix_ms_per_crop"] = per(1e3 * total(prefix),
                                      attr(prefix, "crops"))
    mc = outermost(named(*MC_PASSES), MC_PASSES)
    m["seg.mc_ms_per_crop"] = per(1e3 * total(mc), attr(mc, "crops"))
    m["seg.mc_crops_per_call"] = per(attr(mc, "crops"), len(mc))

    convs = named("conv2d_infer")
    counted = [s for s in convs if "macs" in s.attrs]
    m["nn.conv_ms"] = 1e3 * total(outermost(convs, ("conv2d_infer",)))
    m["nn.conv_calls"] = float(len(counted))
    m["nn.conv_gmac"] = attr(counted, "macs") / 1e9
    m["nn.conv_mb"] = attr(counted, "bytes") / 1e6
    for key, names in LAYER_CLASSES.items():
        m[key] = 1e3 * sum(own[s.sid] for s in named(*names))
    # MC-pass time outside nn spans: each outermost MC root minus the
    # nn spans directly below it (moments, softmax, padding, verdicts).
    kids = children_of(compute)

    def nn_time(s):
        return sum(c.duration if c.layer == "nn" else nn_time(c)
                   for c in kids.get(s.sid, ()))

    roots = outermost(named(*MC_ROOTS), MC_ROOTS)
    m["nn.other_mc_ms"] = 1e3 * sum(r.duration - nn_time(r) for r in roots)

    collects = named("PersistentWorkerPool.collect")
    tasks = attr(collects, "tasks")
    m["pool.tasks"] = float(tasks)
    m["pool.collect_ms_per_task"] = per(1e3 * total(collects), tasks)
    ipc = sum(max(0.0, s.duration - s.attrs.get("worker_s", 0.0)
                  / max(1, min(s.attrs.get("tasks", 1), workers)))
              for s in collects)
    m["pool.ipc_ms_per_task"] = per(1e3 * ipc, tasks)

    split = breakdown(tracer.spans, tracer.jobs, windows)
    for layer, seconds in split.self_s.items():
        if layer != "serve":  # broker time is in request spans only
            m[f"self.{layer}_share"] = seconds / split.wall_s
    m["self.unaccounted_share"] = split.unaccounted_s / split.wall_s
    m["trace.closure_error"] = split.closure_error
    return m, split


def queue_waits_ms(tracer: Tracer, windows) -> list:
    """Request span minus the wave span that served it, per request."""
    wave_of: dict[str, float] = {}
    for s in tracer.spans:
        if s.name in ("EpisodeScheduler.check_zones_wave",
                      "EpisodeScheduler.run"):
            for rid in s.requests:
                wave_of[rid] = s.duration
    out = []
    for s in tracer.spans:
        if (s.request_span and s.requests and s.requests[0] in wave_of
                and any(lo <= s.start < hi for lo, hi in windows)):
            out.append(1e3 * (s.duration - wave_of[s.requests[0]]))
    return out


#: The serve layer is absent from the offline fleet.
SERVE_ZEROS = {key: 0.0 for key in (
    "serve.waves", "serve.wave_size_mean", "serve.queue_wait_p50_ms",
    "serve.queue_wait_tail_ms", "serve.wave_busy_share", "serve.shed",
    "serve.timed_out", "pool.resubmitted", "pool.worker_deaths")}


# ----------------------------------------------------------------------
# Fleet: offline closed loop
# ----------------------------------------------------------------------
def run_fleet(seed: int, seconds: float, trace: bool) -> dict:
    system0 = load_system()
    plan = make_plan("fleet", seed)
    inputs = build_inputs(plan)
    highs = fleet_sets(inputs)
    lows = [high[::2] for high in highs]
    refs = {}
    for ep in inputs.episodes:
        pipeline = system0.make_pipeline(rng=ep.seed)
        refs[ep.name] = [pipeline.run(frame) for frame in ep.frames]

    setups = []
    for _ in range(SETUP_REPS if not trace else 1):
        t0 = time.perf_counter()
        system = load_system()
        sched = system.make_scheduler()
        warm = sched.run(highs[0])
        setups.append(time.perf_counter() - t0)
    budget = system.config.monitor_samples

    ledger = PhaseLedger()
    agree = total = 0

    def account(episodes, out):
        """Check one wave's output against the references."""
        nonlocal agree, total
        got = {ep.name: ep.results for ep in out}
        for ep in episodes:
            results = got.get(ep.name, [])[:len(ep.frames)]
            ledger.offered += len(ep.frames)
            ledger.served += len(results)
            ledger.dropped += len(ep.frames) - len(results)
            for res, want in zip(results, refs[ep.name]):
                ledger.wrong += not same_result(res, want)
                for v, w in zip(res.verdicts, want.verdicts):
                    total += 1
                    agree += v.accepted == w.accepted

    account(highs[0], warm)

    def wave(episodes, jobs=None):
        t0 = time.perf_counter()
        out = sched.run(episodes)
        t1 = time.perf_counter()
        if jobs is not None:
            jobs.append((threading.get_ident(), t0, t1))
        account(episodes, out)
        return t1 - t0, out

    result = {"setup_s": median(setups), "setups": setups,
              "attempted_unit": "frames",
              "inputs_sha256": inputs_digest(inputs)}
    if trace:
        plain, traced, windows, outs = [], [], [], []
        tracer = Tracer()
        for i in range(FLEET_TRACE_WAVES):
            high = highs[i % FLEET_SETS]
            plain.append(wave(high)[0])
            tracer.install()
            try:
                lo = time.perf_counter()
                dt, out = wave(high, tracer.jobs)
                windows.append((lo, time.perf_counter()))
            finally:
                tracer.uninstall()
            traced.append(dt)
            outs.extend(out)
        results = [r for ep in outs for r in ep.results]
        metrics, split = span_metrics(tracer, windows, workers=1)
        metrics.update(SERVE_ZEROS)
        metrics.update(decision_metrics(results))
        metrics["monitor.samples_used_share"] = samples_used_share(
            [v.num_samples for r in results for v in r.verdicts], budget)
        metrics["trace.overhead_share"] = median(traced) / median(plain) - 1
        metrics["loadgen.late_tail_ms"] = 0.0
        result.update(metrics=metrics, tracer=tracer, closure=split,
                      phases={"untraced_high": plain, "traced_high": traced})
    else:
        times = {"high": [], "low": []}
        deadline = time.perf_counter() + seconds
        i = 0
        while time.perf_counter() < deadline:
            k = i % FLEET_SETS
            times["high"].append(wave(highs[k])[0])
            times["low"].append(wave(lows[k])[0])
            i += 1
        frames_high = sum(len(e.frames) for e in highs[0])
        p50_high = median(times["high"])
        result["metrics"] = {
            "p50_ms_low": 1e3 * median(times["low"]),
            "p50_ms_high": 1e3 * p50_high,
            "capacity_ps": frames_high / p50_high,
        }
        result["tails"] = {
            f"tail_ms_{key}": tail([1e3 * t for t in times[key]],
                                   FLEET_TAIL_Q)
            for key in ("low", "high")}
        result["phases"] = times
    result["ledgers"] = [ledger]
    result["problems"] = ([f"{ledger.dropped} frames without a result"]
                          if ledger.dropped else [])
    result["agree"] = (agree, total)
    result["correct"] = (ledger.wrong == 0 and not result["problems"]
                         and (not trace or split.closed))
    result["peak_rss_mb"] = peak_rss_mb()
    sched.close()
    return result


# ----------------------------------------------------------------------
# Served workloads: open loops through ServeBroker
# ----------------------------------------------------------------------
@dataclass
class Request:
    rid: str
    due: float
    kind: str
    key: int
    sent: float = math.nan
    done: float = math.nan
    outcome: str = "pending"
    value: object = field(default=None, repr=False)
    box: object = field(default=None, repr=False)

    @property
    def latency_ms(self) -> float:
        return 1e3 * (self.done - self.due)

    @property
    def late_ms(self) -> float:
        return 1e3 * (self.sent - self.due)


def ledger_of(requests) -> PhaseLedger:
    led = PhaseLedger(offered=len(requests))
    for r in requests:
        if r.outcome == "wrong":
            led.served += 1
            led.wrong += 1
        else:
            setattr(led, r.outcome, getattr(led, r.outcome) + 1)
    return led


async def settle(coros, groups, deadline: float) -> None:
    """Run the load ``coros`` until they finish or ``deadline``
    (``perf_counter`` time) passes; cancel what is left and mark every
    request of ``groups`` (the lists the loads fill) still unanswered
    as dropped."""
    tasks = [asyncio.ensure_future(c) for c in coros]
    done, pending = await asyncio.wait(
        tasks, timeout=max(0.0, deadline - time.perf_counter()))
    for task in pending:
        task.cancel()
    await asyncio.gather(*pending, return_exceptions=True)
    for task in done:
        task.result()  # a fault of the generator itself must surface
    for r in (r for group in groups for r in group):
        if r.outcome == "pending":
            r.outcome = "dropped"


@dataclass
class Phase:
    """One phase of load: an open loop at ``rate`` (or a closed loop of
    ``clients``) plus the side stream, with the broker's ledger delta."""

    rate: float
    primary: list
    side: list
    #: Change of ``ServeBroker.stats`` over the phase.
    delta: dict
    start: float
    end: float
    clients: int = 0

    @classmethod
    def joined(cls, blocks) -> "Phase":
        """The blocks of one kind as one phase: their requests and
        summed ledger deltas, from the first start to the last end."""
        first = blocks[0]
        return cls(first.rate,
                   [r for b in blocks for r in b.primary],
                   [r for b in blocks for r in b.side],
                   {k: sum(b.delta[k] for b in blocks) for k in first.delta},
                   first.start, blocks[-1].end, first.clients)

    @property
    def ledger(self) -> PhaseLedger:
        led = ledger_of(self.primary)
        led.add(ledger_of(self.side))
        return led

    @property
    def problems(self) -> list:
        return reconcile(self.ledger, self.delta)

    @staticmethod
    def latencies(requests) -> list:
        return [r.latency_ms for r in requests if r.outcome == "served"]

    def lateness(self) -> list:
        return [r.late_ms for r in self.primary + self.side]


class ServedRun:
    """One served workload: inputs, references, broker and load."""

    def __init__(self, name: str, served: Served, seed: int):
        self.name = name
        self.cfg = served
        self.kind = "zone" if name == "zone_checks" else "step"
        self.system0 = load_system()
        test_frames = [s.image for s in self.system0.test_samples]
        self.plan = make_plan(name, seed, test_frames=len(test_frames))
        self.inputs = build_inputs(self.plan, test_frames=test_frames)
        self.tracer: Tracer | None = None
        #: Requests issued so far per kind; a request's number picks its
        #: input, so steps walk the streams round-robin.
        self._issued = {"zone": 0, "step": 0}
        self._zone_refs = self._zone_references()
        self._step_refs = self._step_references()

    # -- references (before any timing) -----------------------------
    def _zone_references(self) -> list:
        from repro.core import RuntimeMonitor

        monitor = RuntimeMonitor(
            self.system0.make_segmenter(rng=self.plan.monitor_seed),
            self.system0.monitor_config())
        return [monitor.check_zone(self.inputs.frames[f], box).accepted
                for f, box in self.inputs.pairs]

    def _step_references(self) -> list:
        from repro.core import EpisodeRequest

        if not self.inputs.steps:
            return []
        sched = self.system0.make_scheduler()
        return [sched.run([EpisodeRequest(frames=(frame,), seed=seed)])[0]
                .results[0] for frame, seed, _, _ in self.inputs.steps]

    # -- set-up -----------------------------------------------------
    async def setup(self):
        from repro.serve import ServeBroker, ServeConfig

        system = load_system()
        broker = ServeBroker(system.model, config=system.pipeline_config(),
                             serve=ServeConfig(workers=self.cfg.workers),
                             rng=self.plan.monitor_seed)
        await broker.start()
        try:
            # Warm-up: stacked passes of several sizes and, with a pool,
            # enough steps to fork it and reach every worker.
            for size in (1, 4, 16):
                await asyncio.gather(*(
                    broker.check_zone(self.inputs.frames[f], box)
                    for f, box in self.inputs.pairs[:size]))
            if self.inputs.steps:
                for _ in range(2):
                    await asyncio.gather(*(
                        broker.run_episode([frame], seed=seed)
                        for frame, seed, _, _ in
                        self.inputs.steps[:2 * self.cfg.workers]))
        except BaseException:
            await broker.stop()
            raise
        self.budget = system.config.monitor_samples
        return broker

    # -- load generation --------------------------------------------
    def _request(self, kind: str, due: float) -> Request:
        n = self._issued[kind]
        self._issued[kind] += 1
        return Request(f"{kind}{n}", due, kind, n)

    def _call(self, broker, req: Request):
        if req.kind == "zone":
            f, box = self.inputs.pairs[self._pair_index(req.key)]
            req.box = type(box)(box.row, box.col, box.height, box.width)
            if self.tracer is not None:
                self.tracer.box_requests[id(req.box)] = req.rid
            return broker.check_zone(self.inputs.frames[f], req.box)
        frame, seed, _, _ = self.inputs.steps[
            req.key % len(self.inputs.steps)]
        return broker.run_episode([frame], seed=seed, name=req.rid)

    def _pair_index(self, key: int) -> int:
        if self.name == "zone_checks":
            return self.plan.order[key % len(self.plan.order)]
        return key % len(self.inputs.pairs)

    def _check(self, req: Request) -> bool:
        """True when a served output is right."""
        if req.kind == "zone":
            return req.value.box == req.box
        want = self._step_refs[req.key % len(self._step_refs)]
        results = req.value.results
        return len(results) == 1 and same_result(results[0], want)

    async def _one(self, broker, req: Request) -> None:
        from repro.serve import AdmissionRejected, CheckTimedOut

        req.sent = time.perf_counter()
        try:
            req.value = await self._call(broker, req)
        except AdmissionRejected:
            req.outcome = "shed"
        except CheckTimedOut:
            req.outcome = "timed_out"
        except Exception:  # noqa: BLE001 - any failure is a failed request
            req.outcome = "errored"
        else:
            req.outcome = "served" if self._check(req) else "wrong"
            req.value = self._kept(req.value)
        req.done = time.perf_counter()

    def _kept(self, value):
        """What later accounting needs of an output; the rest is freed
        so a long run's heap (and its collector pauses) stays small."""
        if not hasattr(value, "results"):  # a zone verdict
            return value.accepted, value.num_samples
        return value.results[0] if self.tracer is not None else None

    async def _open(self, broker, kind, rate, t0, end, out):
        """Open loop: one request due every ``1/rate`` s in [t0, end)."""
        tasks = []
        k = 0
        while (due := t0 + k / rate) < end:
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            req = self._request(kind, due)
            out.append(req)
            tasks.append(asyncio.ensure_future(self._one(broker, req)))
            k += 1
        await asyncio.gather(*tasks)

    async def _closed(self, broker, kind, clients, end, out):
        """Closed loop: ``clients`` each send their next request as soon
        as the previous one is answered, until ``end``."""
        async def client():
            while (now := time.perf_counter()) < end:
                req = self._request(kind, now)
                out.append(req)
                await self._one(broker, req)

        await asyncio.gather(*(client() for _ in range(clients)))

    async def phase(self, broker, rate: float, seconds: float,
                    clients: int = 0) -> Phase:
        """``rate`` primary requests/s (or a closed loop of ``clients``)
        plus the side stream for ``seconds``; every request is timed
        from its due time."""
        primary, side = [], []
        before = dict(broker.stats)
        t0 = time.perf_counter() + 0.005
        end = t0 + seconds
        loads = [self._closed(broker, self.kind, clients, end, primary)
                 if clients else
                 self._open(broker, self.kind, rate, t0, end, primary)]
        if self.cfg.side:
            loads.append(self._open(broker, "zone", self.cfg.side, t0, end,
                                    side))
        await settle(loads, (primary, side), end + GRACE_S)
        delta = {k: broker.stats[k] - before[k] for k in before}
        return Phase(rate, primary, side, delta, t0, end, clients)

    # -- whole run ----------------------------------------------------
    async def run(self, seconds: float, trace: bool) -> dict:
        setups = []
        reps = 1 if trace else SETUP_REPS
        for rep in range(reps):
            t0 = time.perf_counter()
            broker = await self.setup()
            setups.append(time.perf_counter() - t0)
            if rep < reps - 1:
                await broker.stop()
        try:
            result = await (self._traced(broker, seconds) if trace
                            else self._measured(broker, seconds))
            result["peak_rss_mb"] = peak_rss_mb()
        finally:
            await broker.stop()
        phases = result["phases"].values()
        result["ledgers"] = [ph.ledger for ph in phases]
        # Each block is reconciled on its own: its requests all resolve
        # before the next block starts.
        blocks = result.get("blocks", result["phases"])
        result["problems"] = [f"{name}: {line}"
                              for name, ph in blocks.items()
                              for line in ph.problems]
        result["agree"] = self._agreement(phases)
        result["correct"] = (not result["problems"]
                             and ("closure" not in result
                                  or result["closure"].closed)
                             and all(led.wrong == 0
                                     for led in result["ledgers"]))
        result["setup_s"] = median(setups)
        result["setups"] = setups
        result["attempted_unit"] = "requests"
        result["inputs_sha256"] = inputs_digest(self.inputs)
        return result

    def _agreement(self, phases):
        agree = total = 0
        for ph in phases:
            for r in (ph.primary if self.name == "zone_checks" else ph.side):
                if r.outcome == "served":
                    total += 1
                    agree += (r.value[0]
                              == self._zone_refs[self._pair_index(r.key)])
        return agree, total

    async def _measured(self, broker, seconds: float) -> dict:
        cfg = self.cfg
        fixed_s = seconds * cfg.phase_share / ROUNDS
        cap_s = seconds * cfg.capacity_share / ROUNDS
        blocks = {"low": [], "high": [], "capacity": []}
        for _ in range(ROUNDS):
            for kind, rate, clients, span in (
                    ("low", cfg.low, 0, fixed_s),
                    ("high", cfg.high, 0, fixed_s),
                    ("capacity", 0.0, cfg.clients, cap_s)):
                blocks[kind].append(await self.phase(broker, rate, span,
                                                     clients=clients))
        low, high, cap = (Phase.joined(blocks[k])
                          for k in ("low", "high", "capacity"))
        tails = {
            "tail_ms_low": tail(low.latencies(low.primary), cfg.q,
                                cfg.windows),
            "tail_ms_high": tail(high.latencies(high.primary), cfg.q,
                                 cfg.windows),
        }
        if cfg.side:
            tails["side_tail_ms_high"] = tail(high.latencies(high.side),
                                              cfg.side_q, ROUNDS)
        # Capacity: the median block's answers per second after ramp-up.
        capacity = median([window_rate(
            [r.done for r in b.primary if r.outcome == "served"],
            b.start + RAMP_S, b.end, b.end - b.start - RAMP_S)
            for b in blocks["capacity"]])
        metrics = {
            "p50_ms_low": median(low.latencies(low.primary)),
            "p50_ms_high": median(high.latencies(high.primary)),
            "capacity_ps": capacity,
        }
        return {
            "metrics": metrics,
            "tails": tails,
            "phases": {"low": low, "high": high, "capacity": cap},
            "blocks": {f"{k}.{i + 1}": b for k, bs in blocks.items()
                       for i, b in enumerate(bs)},
        }

    async def _traced(self, broker, seconds: float) -> dict:
        cfg = self.cfg
        half = seconds / 2
        plain = await self.phase(broker, cfg.high, half)
        self.tracer = tracer = Tracer()
        before = dict(broker.stats)
        tracer.install()
        tracer.time_executor_jobs(asyncio.get_running_loop())
        try:
            traced = await self.phase(broker, cfg.high, half)
        finally:
            tracer.uninstall()
        stats = {k: broker.stats[k] - before[k] for k in before}
        windows = [(traced.start, traced.end)]
        metrics, split = span_metrics(tracer, windows,
                                      workers=self.cfg.workers)
        metrics["serve.wave_busy_share"] = split.busy_s / split.wall_s
        served = stats["zone_checks"] + stats["episode_steps"]
        metrics["serve.waves"] = float(stats["waves"])
        metrics["serve.wave_size_mean"] = (served / stats["waves"]
                                           if stats["waves"] else 0.0)
        waits = queue_waits_ms(tracer, windows)
        metrics["serve.queue_wait_p50_ms"] = median(waits) if waits else 0.0
        metrics["serve.queue_wait_tail_ms"] = (percentile(waits, cfg.q)
                                               if waits else 0.0)
        metrics["serve.shed"] = float(stats["rejected_queue_full"])
        metrics["serve.timed_out"] = float(stats["timed_out"])
        metrics["pool.resubmitted"] = float(stats["tasks_resubmitted"])
        metrics["pool.worker_deaths"] = float(stats["worker_deaths"])
        steps = [r.value for r in traced.primary
                 if r.kind == "step" and r.outcome == "served"]
        used = [r.value[1] for r in traced.primary + traced.side
                if r.kind == "zone" and r.outcome == "served"]
        used += [v.num_samples for res in steps for v in res.verdicts]
        metrics.update(decision_metrics(steps))
        if self.cfg.workers > 1:
            metrics.update(worker_split(steps))
        metrics["monitor.samples_used_share"] = samples_used_share(
            used, self.budget)
        metrics["loadgen.late_tail_ms"] = percentile(traced.lateness(),
                                                     cfg.q)
        metrics["trace.overhead_share"] = (
            median(traced.latencies(traced.primary))
            / median(plain.latencies(plain.primary)) - 1)
        return {
            "metrics": metrics, "tracer": tracer, "closure": split,
            "phases": {"untraced_high": plain, "traced_high": traced},
        }


def run_served(name: str, seed: int, seconds: float, trace: bool) -> dict:
    served = {"zone_checks": ZONE_CHECKS, "episode_steps": EPISODE_STEPS}
    run = ServedRun(name, served[name], seed)
    return asyncio.run(run.run(seconds, trace))


# ----------------------------------------------------------------------
# Memory
# ----------------------------------------------------------------------
def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _children() -> list:
    pids = []
    try:
        import os

        for tid in os.listdir("/proc/self/task"):
            with open(f"/proc/self/task/{tid}/children") as fh:
                pids += [int(p) for p in fh.read().split()]
    except OSError:
        pass
    return pids


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its live children (VmHWM), MB.

    Forked workers share copy-on-write pages with the parent, so the
    sum counts shared pages once per process.
    """
    import os
    import resource

    own = _vm_hwm_kb(os.getpid()) or resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss
    return (own + sum(_vm_hwm_kb(p) for p in _children())) / 1024.0

