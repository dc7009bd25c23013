"""Tests of the benchmark's own rules.

Run from the repository root: ``PYTHONPATH=src python3 -m pytest perfbench``.
"""

from __future__ import annotations

import asyncio
import dataclasses
import threading
import time

import pytest

from inputs import (
    FLEET_SETS,
    SCENARIOS,
    ZONE_PAIRS,
    Inputs,
    build_inputs,
    fleet_sets,
    inputs_digest,
    make_plan,
)
from spans import Tracer, breakdown, self_times
from stats import (
    PhaseLedger,
    Tail,
    beyond,
    failed_share,
    percentile,
    reconcile,
    tail,
    tail_percentile_for,
    window_rate,
)
from workloads import Request, ledger_of, settle


# -- tail percentile rule ----------------------------------------------
def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    assert percentile([7.0], 99) == 7.0


@pytest.mark.parametrize("count, q", [
    (1000, 99.0), (2000, 99.5), (5000, 99.8), (10000, 99.9),
    (50, 80.0), (100, 90.0), (200, 95.0), (49, 75.0), (5, 50.0)])
def test_tail_is_highest_percentile_with_ten_beyond(count, q):
    assert tail_percentile_for(count) == q
    if count >= 20:
        assert beyond(count, q) >= 10


def test_tail_reports_its_sample_count():
    t = tail(range(1000), 99.0)
    assert t == Tail(q=99.0, value=989.0, samples=1000)
    assert t.supported
    assert not tail(range(500), 99.0).supported


# -- capacity ----------------------------------------------------------
def test_window_rate_is_the_median_window():
    # 10/s in four windows, 40/s in one (a burst), nothing outside.
    times = [k / 10 for k in range(40)] + [4 + k / 40 for k in range(40)]
    times += [-0.5, 5.0, 7.0]
    assert window_rate(times, 0.0, 5.0, 1.0) == 10.0
    assert window_rate(times, 0.0, 5.5, 1.0) == 10.0  # partial window cut
    with pytest.raises(ValueError):
        window_rate(times, 0.0, 0.5, 1.0)


# -- failed_share and the ledger ---------------------------------------
def _stats(**kw):
    delta = dict.fromkeys(("admitted", "rejected_queue_full",
                           "rejected_shutdown", "zone_checks",
                           "episode_steps", "timed_out"), 0)
    delta.update(kw)
    return delta


def test_failed_share_counts_every_failure_kind():
    a = PhaseLedger(offered=100, served=88, shed=5, timed_out=3,
                    errored=2, wrong=4, dropped=2)
    b = PhaseLedger(offered=100, served=100)
    assert a.failed == 16
    assert failed_share([a, b]) == pytest.approx(16 / 200)
    with pytest.raises(ValueError):
        failed_share([PhaseLedger()])


def test_ledger_balances_against_the_broker_stats():
    led = PhaseLedger(offered=10, served=7, shed=2, timed_out=1, wrong=1)
    delta = _stats(admitted=8, rejected_queue_full=2, zone_checks=5,
                   episode_steps=2, timed_out=1)
    assert reconcile(led, delta) == []


@pytest.mark.parametrize("change", [
    {"admitted": 7},          # the broker lost one admission
    {"zone_checks": 4},       # admitted but never served
    {"rejected_queue_full": 1, "admitted": 9},  # shed seen as served
    {"timed_out": 0, "zone_checks": 6},         # timeout seen as served
])
def test_ledger_mismatch_is_reported(change):
    led = PhaseLedger(offered=10, served=7, shed=2, timed_out=1)
    delta = _stats(admitted=8, rejected_queue_full=2, zone_checks=5,
                   episode_steps=2, timed_out=1)
    delta.update(change)
    assert reconcile(led, delta)


def test_unanswered_request_is_dropped_at_the_deadline():
    served, lost = Request("a", 0.0, "zone", 0), Request("b", 0.0, "zone", 1)
    out = []

    async def load():
        for req in (served, lost):
            out.append(req)
        served.outcome = "served"
        await asyncio.Event().wait()  # the answer to ``lost`` never comes

    async def main():
        t0 = time.perf_counter()
        await settle([load()], [out], t0 + 0.05)
        return time.perf_counter() - t0

    assert asyncio.run(main()) < 1.0
    assert [r.outcome for r in out] == ["served", "dropped"]
    led = ledger_of(out)
    assert (led.offered, led.served, led.dropped, led.failed) == (2, 1, 1, 1)
    # The broker admitted both but served one: the two ledgers disagree.
    assert reconcile(led, _stats(admitted=2, zone_checks=1))


# -- seeded generator --------------------------------------------------
@pytest.mark.parametrize("workload", ["fleet", "zone_checks",
                                      "episode_steps"])
def test_plan_is_a_pure_function_of_the_seed(workload):
    assert make_plan(workload, 3) == make_plan(workload, 3)
    assert make_plan(workload, 3) != make_plan(workload, 4)


def test_zone_plan_stays_inside_the_frames():
    plan = make_plan("zone_checks", 11, test_frames=20, shape=(96, 128))
    assert len(plan.boxes) == ZONE_PAIRS
    assert sorted(plan.order) == list(range(ZONE_PAIRS))
    for f, row, col in plan.boxes:
        assert 0 <= f < 20 and 0 <= row <= 84 and 0 <= col <= 116


def test_fleet_sets_are_disjoint_waves_of_two_per_scenario():
    plan = make_plan("fleet", 3)
    assert len(set(plan.episodes)) == len(plan.episodes)
    sets = fleet_sets(Inputs(plan, episodes=plan.episodes))
    assert len(sets) == FLEET_SETS
    for wave in sets:
        assert [name for name, _ in wave] == [
            name for name in SCENARIOS for _ in (0, 1)]
    assert sorted(ep for wave in sets for ep in wave) == \
        sorted(plan.episodes)


def test_same_seed_gives_byte_identical_inputs():
    pytest.importorskip("repro")
    plan = make_plan("fleet", 5)
    one = dataclasses.replace(plan, episodes=plan.episodes[:1])
    assert inputs_digest(build_inputs(one)) == \
        inputs_digest(build_inputs(one))
    other = dataclasses.replace(make_plan("fleet", 6),
                                episodes=make_plan("fleet", 6).episodes[:1])
    assert inputs_digest(build_inputs(one)) != \
        inputs_digest(build_inputs(other))


# -- tracer ------------------------------------------------------------
class _Toy:
    def outer(self):
        time.sleep(0.002)
        self.inner()
        return 1

    def inner(self):
        time.sleep(0.003)


def test_tracer_nests_spans_and_closes_against_job_time():
    original = vars(_Toy)["outer"]
    tracer = Tracer()
    tracer._wrap(_Toy, "outer", "engine")
    tracer._wrap(_Toy, "inner", "nn")
    try:
        lo = time.perf_counter()
        t0 = time.perf_counter()
        _Toy().outer()
        tracer.jobs.append((threading.get_ident(), t0, time.perf_counter()))
        time.sleep(0.004)  # idle: outside every job
        hi = time.perf_counter()
    finally:
        tracer.uninstall()
    assert vars(_Toy)["outer"] is original
    inner, outer = tracer.spans
    assert inner.parent == outer.sid and outer.parent == -1
    own = self_times(tracer.spans)
    assert own[outer.sid] == pytest.approx(outer.duration - inner.duration)
    split = breakdown(tracer.spans, tracer.jobs, [(lo, hi)])
    assert split.closed
    assert split.self_s["nn"] == pytest.approx(inner.duration)
    assert split.unaccounted_s >= 0.004


def test_closure_fails_when_a_job_runs_outside_every_layer():
    tracer = Tracer()
    tracer._wrap(_Toy, "inner", "nn")
    try:
        lo = t0 = time.perf_counter()
        _Toy().outer()  # 2 ms of ``outer`` is in no layer span
        tracer.jobs.append((threading.get_ident(), t0, time.perf_counter()))
        hi = time.perf_counter()
    finally:
        tracer.uninstall()
    split = breakdown(tracer.spans, tracer.jobs, [(lo, hi)])
    assert split.closure_error > 0.2
    assert not split.closed


def test_executor_jobs_are_timed_on_their_thread():
    tracer = Tracer()

    async def main():
        loop = asyncio.get_running_loop()
        tracer.time_executor_jobs(loop)
        try:
            await loop.run_in_executor(None, time.sleep, 0.01)
        finally:
            tracer.uninstall()
        assert "run_in_executor" not in vars(loop)

    asyncio.run(main())
    (thread, start, end), = tracer.jobs
    assert thread != threading.get_ident()
    assert end - start >= 0.01


# -- process hygiene ---------------------------------------------------
def test_stop_children_ends_every_process_the_run_started():
    import multiprocessing as mp
    from multiprocessing import resource_tracker, shared_memory

    from run import _child_pids, stop_children

    if "fork" not in mp.get_all_start_methods():
        pytest.skip("needs the fork start method")
    segment = shared_memory.SharedMemory(create=True, size=64)
    segment.close()
    segment.unlink()  # the resource tracker process is now running
    child = mp.get_context("fork").Process(target=time.sleep, args=(60,),
                                           daemon=True)
    child.start()
    stop_children()
    assert not child.is_alive()
    assert resource_tracker._resource_tracker._pid is None
    assert _child_pids() == []
