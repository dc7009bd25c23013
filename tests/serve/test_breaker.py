"""Circuit breaker: pure-unit state machine + broker integration.

The state machine is exercised with an injected fake clock so every
transition (closed -> open -> half-open -> closed / re-open) is
deterministic and instant.  One integration test proves the
``REPRO_SERVE_WORKERS`` env toggle composes with the breaker: env-sized
pools that fault degrade exactly like config-sized ones, with the same
stats accounting.
"""

import asyncio

import pytest

from repro.serve import CircuitBreaker, ServeConfig
from repro.serve.breaker import CLOSED, HALF_OPEN, OPEN


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def advance(self, seconds):
        self.now += seconds

    def __call__(self):
        return self.now


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def breaker(clock):
    return CircuitBreaker(threshold=3, cooldown_s=10.0, clock=clock)


class TestClosed:
    def test_starts_closed_and_allows(self, breaker):
        assert breaker.state == CLOSED
        assert breaker.allow() is True

    def test_failures_below_threshold_stay_closed(self, breaker):
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CLOSED
        assert breaker.allow() is True

    def test_success_resets_the_streak(self, breaker):
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CLOSED  # never 3 *consecutive*

    def test_trips_at_threshold(self, breaker):
        for _ in range(3):
            breaker.record_failure()
        assert breaker.state == OPEN
        assert breaker.allow() is False

    def test_threshold_one_trips_immediately(self, clock):
        b = CircuitBreaker(threshold=1, cooldown_s=5.0, clock=clock)
        b.record_failure()
        assert b.state == OPEN


class TestOpen:
    def _trip(self, breaker):
        for _ in range(3):
            breaker.record_failure()

    def test_blocks_until_cooldown(self, breaker, clock):
        self._trip(breaker)
        clock.advance(9.9)
        assert breaker.allow() is False
        assert breaker.state == OPEN

    def test_half_opens_after_cooldown(self, breaker, clock):
        self._trip(breaker)
        clock.advance(10.0)
        assert breaker.allow() is True  # the probe
        assert breaker.state == HALF_OPEN

    def test_single_probe_admission(self, breaker, clock):
        self._trip(breaker)
        clock.advance(10.0)
        assert breaker.allow() is True
        assert breaker.allow() is False  # probe already in flight
        assert breaker.allow() is False


class TestHalfOpen:
    def _probe(self, breaker, clock):
        for _ in range(3):
            breaker.record_failure()
        clock.advance(10.0)
        assert breaker.allow() is True

    def test_probe_success_closes(self, breaker, clock):
        self._probe(breaker, clock)
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.allow() is True
        # And the failure streak restarts from zero.
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CLOSED

    def test_probe_failure_reopens_and_restarts_cooldown(
            self, breaker, clock):
        self._probe(breaker, clock)
        clock.advance(5.0)
        breaker.record_failure()  # probe failed
        assert breaker.state == OPEN
        clock.advance(9.9)  # cooldown restarted at the probe failure
        assert breaker.allow() is False
        clock.advance(0.1)
        assert breaker.allow() is True


class TestStats:
    def test_accounting_across_a_full_cycle(self, breaker, clock):
        for _ in range(3):
            breaker.record_failure()
        clock.advance(10.0)
        breaker.allow()  # probe 1
        breaker.record_failure()  # re-trip
        clock.advance(10.0)
        breaker.allow()  # probe 2
        breaker.record_success()
        assert breaker.stats == {
            "failures": 4, "opens": 2, "probes": 2}

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(threshold=0, cooldown_s=1.0)
        with pytest.raises(ValueError):
            CircuitBreaker(threshold=1, cooldown_s=-1.0)


class TestServeConfigKnobs:
    def test_deadline_and_breaker_validation(self):
        with pytest.raises(ValueError, match="deadline_ms"):
            ServeConfig(deadline_ms=0.0)
        with pytest.raises(ValueError, match="breaker_threshold"):
            ServeConfig(breaker_threshold=0)
        with pytest.raises(ValueError, match="breaker_cooldown_s"):
            ServeConfig(breaker_cooldown_s=-1.0)

    def test_deadline_threads_into_engine_config(self):
        engine = ServeConfig(deadline_ms=250.0).engine_config()
        assert engine.deadline_ms == 250.0
        assert ServeConfig().engine_config().deadline_ms is None


class TestEnvWorkersIntegration:
    def test_env_sized_pool_faults_open_the_breaker(
            self, tiny_system, monkeypatch):
        """REPRO_SERVE_WORKERS sizing composes with supervision: a
        pool sized by env degrades through the breaker identically,
        and the stats ledger accounts for it."""
        from repro.core import EngineConfig
        from repro.serve import ServeBroker, fork_available
        from repro.serve.chaos import FaultPlan, FaultSpec, arm

        if not fork_available():
            pytest.skip("persistent pool requires fork")
        monkeypatch.setenv("REPRO_SERVE_WORKERS", "2")
        serve = ServeConfig(breaker_threshold=1)
        assert serve.workers is None  # env fills it at engine_config
        frame = tiny_system.test_samples[0].image

        async def scenario():
            broker = ServeBroker(
                tiny_system.model, config=tiny_system.pipeline_config(),
                engine=EngineConfig(max_respawns=0), serve=serve)
            assert broker.effective_workers == 2
            # Kill whichever worker picks the single task.
            arm(broker, FaultPlan(specs=(
                FaultSpec("kill_worker", worker=0, at_task=0),
                FaultSpec("kill_worker", worker=1, at_task=0))))
            async with broker:
                episode = await broker.run_episode([frame], seed=0)
            return episode, broker.breaker_state, broker.stats

        episode, state, stats = asyncio.run(scenario())
        assert len(episode.results) == 1  # served, degraded
        assert state == "open"
        assert stats["pool_faults"] == 1
        assert stats["degraded_waves"] == 1
        assert stats["breaker_opens"] == 1
        assert stats["worker_deaths"] >= 1
        assert stats["admitted"] == stats["episode_steps"] == 1
