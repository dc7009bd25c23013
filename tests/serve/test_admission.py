"""Work-conserving admission: how requests become waves.

The broker blocks on the first request, yields once to the event loop,
then takes whatever is queued (up to ``max_wave``) with no timer, so a
busy wave thread is the only batching window.  These tests replace the
scheduler's wave calls with a stub that blocks on a
``threading.Event``: the wave thread stays busy until the test opens
the gate, which makes every wave's composition deterministic.
"""

import asyncio
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import AdmissionRejected, ServeBroker, ServeConfig


class _GatedScheduler:
    """Stands in for ``check_zones_wave`` and ``run`` on a broker.

    Each call records its members' tags, blocks until ``gate`` is set,
    then answers every member with its own tag (zone checks are tagged
    by their box, episode steps by their name).
    """

    def __init__(self, broker, open_gate=False):
        self.gate = threading.Event()
        if open_gate:
            self.gate.set()
        self.calls: list[list] = []
        broker.scheduler.check_zones_wave = self._zones
        broker.scheduler.run = self._episodes

    def _answer(self, tags):
        self.calls.append(tags)
        self.gate.wait()
        return tags

    def _zones(self, items):
        return self._answer([box for _, box in items])

    def _episodes(self, requests):
        return self._answer([request.name for request in requests])

    @property
    def sizes(self) -> list[int]:
        return [len(call) for call in self.calls]


def _broker(system, **serve):
    return ServeBroker(system.model, config=system.pipeline_config(),
                       serve=ServeConfig(**serve))


async def _until(predicate, timeout_s=5.0):
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout_s
    while not predicate():
        assert loop.time() < deadline, "condition never held"
        await asyncio.sleep(0.001)


class TestWaveShapes:
    def test_requests_queued_behind_a_busy_wave_form_the_next(
            self, tiny_system):
        """1 request, then 5 while it runs, max_wave=3 -> [1, 3, 2]."""
        async def scenario():
            broker = _broker(tiny_system, max_wave=3)
            stub = _GatedScheduler(broker)
            async with broker:
                first = asyncio.ensure_future(broker.check_zone(None, 0))
                await _until(lambda: stub.calls)  # wave thread busy
                rest = [asyncio.ensure_future(broker.check_zone(None, k))
                        for k in range(1, 6)]
                await asyncio.sleep(0)  # let the submissions enqueue
                stub.gate.set()
                got = await asyncio.gather(first, *rest)
            return got, stub.calls

        got, calls = asyncio.run(scenario())
        assert got == list(range(6))
        assert calls == [[0], [1, 2, 3], [4, 5]]

    @pytest.mark.parametrize("burst,sizes", [(1, [1]), (4, [4]),
                                             (6, [4, 2])])
    def test_gathered_burst_is_one_wave_up_to_max_wave(
            self, tiny_system, burst, sizes):
        async def scenario():
            broker = _broker(tiny_system, max_wave=4)
            stub = _GatedScheduler(broker, open_gate=True)
            async with broker:
                got = await asyncio.gather(
                    *(broker.check_zone(None, k) for k in range(burst)))
            return got, stub.sizes, broker.stats

        got, got_sizes, stats = asyncio.run(scenario())
        assert got == list(range(burst))
        assert got_sizes == sizes
        assert stats["waves"] == len(sizes)

    @pytest.mark.parametrize("max_wave,sizes", [(8, [3]), (2, [2, 1])])
    def test_stop_sentinel_met_mid_drain_serves_everything(
            self, tiny_system, max_wave, sizes):
        """stop() queues its sentinel behind admitted requests; the
        drain meets it mid-wave and still serves all of them."""
        async def scenario():
            broker = await _broker(tiny_system,
                                   max_wave=max_wave).start()
            stub = _GatedScheduler(broker, open_gate=True)
            pending = [asyncio.ensure_future(broker.check_zone(None, k))
                       for k in range(3)]
            await asyncio.sleep(0)  # admitted, not yet dequeued
            await broker.stop()
            return await asyncio.gather(*pending), stub.sizes, \
                broker.stats

        got, got_sizes, stats = asyncio.run(scenario())
        assert got == [0, 1, 2]
        assert got_sizes == sizes
        assert stats["admitted"] == stats["zone_checks"] == 3


#: One trace step: the kinds of a burst submitted together (True = zone
#: check, False = episode step), event-loop yields after it, and
#: whether the wave thread is then released until everything settles.
_STEP = st.tuples(st.lists(st.booleans(), min_size=1, max_size=6),
                  st.integers(0, 3), st.booleans())


class TestAdmissionLedger:
    @given(steps=st.lists(_STEP, min_size=1, max_size=6),
           queue_depth=st.integers(1, 8), max_wave=st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_ledger_balances_and_waves_replay(
            self, tiny_system, steps, queue_depth, max_wave):
        def run_trace():
            async def scenario():
                broker = _broker(tiny_system, queue_depth=queue_depth,
                                 max_wave=max_wave)
                stub = _GatedScheduler(broker)
                submitted = []
                async with broker:
                    for kinds, yields, settle in steps:
                        for is_zone in kinds:
                            tag = f"r{len(submitted)}"
                            submitted.append((tag, asyncio.ensure_future(
                                broker.check_zone(None, tag) if is_zone
                                else broker.run_episode((), name=tag))))
                        for _ in range(yields):
                            await asyncio.sleep(0)
                        if settle:
                            # Thread completions land only while the
                            # gate is open and no one submits, so the
                            # waves stay a function of the trace.
                            stub.gate.set()
                            await asyncio.gather(
                                *(task for _, task in submitted),
                                return_exceptions=True)
                            stub.gate.clear()
                    stub.gate.set()  # stop() drains the rest
                outcomes = [(tag, task.exception() or task.result())
                            for tag, task in submitted]
                return outcomes, stub.calls, broker.stats

            return asyncio.run(scenario())

        outcomes, calls, stats = run_trace()
        served = [tag for tag, out in outcomes
                  if not isinstance(out, BaseException)]
        shed = [out for _, out in outcomes
                if isinstance(out, AdmissionRejected)]
        # Every admitted request is answered with its own result, and
        # appears in exactly one wave call: resolved exactly once.
        assert all(out == tag for tag, out in outcomes
                   if not isinstance(out, BaseException))
        assert sorted(tag for call in calls for tag in call) == \
            sorted(served)
        assert len(served) + len(shed) == len(outcomes)
        # A burst still unsubmitted when stop() runs is shed typed too.
        for reason in ("queue_full", "shutdown"):
            assert stats[f"rejected_{reason}"] == \
                sum(exc.reason == reason for exc in shed)
        assert stats["admitted"] == len(served)
        assert stats["admitted"] == \
            stats["zone_checks"] + stats["episode_steps"]
        assert all(len(call) <= max_wave for call in calls)
        assert stats["max_wave"] <= max_wave
        # Same drawn trace, fresh broker: the same waves.
        _, replay_calls, _ = run_trace()
        assert replay_calls == calls
