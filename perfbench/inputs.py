"""Seeded workload inputs.

A *plan* is the seed's choices only — scene indices, box positions and
stream order — as plain integers, cheap to build and compare.
:func:`build_inputs` turns a plan into the frames, boxes and episode
requests the program receives.  The same seed gives the same plan and
byte-identical inputs; nothing here reads a clock or a global random
state.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

#: The six registry scenarios every multi-scenario workload draws from.
SCENARIOS = ("day_nominal", "overcast_nominal", "sunset_ood",
             "night_ood", "fog_ood", "night_fog")
#: Scene indices are drawn from [0, SCENE_RANGE).
SCENE_RANGE = 1000
#: Fleet episodes per scenario: ``FLEET_SETS`` waves of two each.
FLEET_SETS = 4
FLEET_EPISODES_PER_SCENARIO = 2 * FLEET_SETS
FLEET_FRAMES = 4
ZONE_BOX_PX = 12
ZONE_PAIRS = 512
STEP_FRAMES = 8
SIDE_PAIRS = 256


def _rng(seed: int, stream: str) -> np.random.Generator:
    """An independent generator per (seed, input stream)."""
    digest = hashlib.sha256(f"{int(seed)}:{stream}".encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


def _box_positions(rng, count, frames, shape, size):
    height, width = shape
    return [(int(rng.integers(frames)),
             int(rng.integers(0, height - size + 1)),
             int(rng.integers(0, width - size + 1)))
            for _ in range(count)]


@dataclass(frozen=True)
class Plan:
    """Every seeded choice of one workload run."""

    workload: str
    #: (scenario name, scene index) per episode or stream.
    episodes: tuple
    #: (frame index, row, col) per zone-check pair.
    boxes: tuple = ()
    #: Order in which requests walk the pairs / streams.
    order: tuple = ()
    #: Seed of the reference monitor and the broker's joint stream.
    monitor_seed: int = 0


def make_plan(workload: str, seed: int, test_frames: int = 20,
              shape=(96, 128)) -> Plan:
    """The seeded choices of ``workload``; pure in (workload, seed)."""
    rng = _rng(seed, workload)
    monitor_seed = int(rng.integers(2 ** 31))
    if workload == "fleet":
        episodes = tuple(
            (name, int(index))
            for name in SCENARIOS
            for index in rng.choice(SCENE_RANGE,
                                    FLEET_EPISODES_PER_SCENARIO,
                                    replace=False))
        return Plan(workload, episodes, monitor_seed=monitor_seed)
    if workload == "zone_checks":
        boxes = tuple(_box_positions(rng, ZONE_PAIRS, test_frames, shape,
                                     ZONE_BOX_PX))
        order = tuple(int(i) for i in rng.permutation(ZONE_PAIRS))
        return Plan(workload, (), boxes=boxes, order=order,
                    monitor_seed=monitor_seed)
    if workload == "episode_steps":
        episodes = tuple((name, int(rng.integers(SCENE_RANGE)))
                         for name in SCENARIOS)
        order = tuple(int(i) for i in rng.permutation(len(SCENARIOS)))
        boxes = tuple(_box_positions(rng, SIDE_PAIRS,
                                     len(SCENARIOS) * STEP_FRAMES, shape,
                                     ZONE_BOX_PX))
        return Plan(workload, episodes, boxes=boxes, order=order,
                    monitor_seed=monitor_seed)
    raise ValueError(f"unknown workload {workload!r}")


@dataclass(frozen=True)
class Inputs:
    """What the program receives, built from a plan."""

    plan: Plan
    #: Fleet: EpisodeRequests, scenario-major.
    episodes: tuple = ()
    #: Frames referenced by ``boxes`` (test frames or stream frames).
    frames: tuple = ()
    #: (frame index, Box) zone-check pairs.
    pairs: tuple = ()
    #: episode_steps: (frame, seed, stream, frame index) per step slot.
    steps: tuple = ()


def build_inputs(plan: Plan, test_frames=()) -> Inputs:
    """Render the plan's frames and boxes (deterministic)."""
    from repro.core import EpisodeRequest
    from repro.scenarios import get_scenario
    from repro.utils.geometry import Box

    pairs = tuple((f, Box(r, c, ZONE_BOX_PX, ZONE_BOX_PX))
                  for f, r, c in plan.boxes)
    if plan.workload == "fleet":
        episodes = []
        for name, index in plan.episodes:
            spec = get_scenario(name)
            frames = [s.image for s in spec.frame_stream(index,
                                                         FLEET_FRAMES)]
            episodes.append(EpisodeRequest(
                frames=frames, seed=spec.episode_seed(index),
                name=f"{name}#{index}", drift_px=spec.drift_px()))
        return Inputs(plan, episodes=tuple(episodes))
    if plan.workload == "zone_checks":
        frames = tuple(test_frames)
        return Inputs(plan, frames=frames, pairs=pairs)
    # episode_steps: six scenario streams, round-robin in plan order.
    streams = []
    for name, index in plan.episodes:
        spec = get_scenario(name)
        streams.append((spec.episode_seed(index),
                        [s.image for s in spec.frame_stream(
                            index, STEP_FRAMES)]))
    steps = []
    for k in range(len(streams) * STEP_FRAMES):
        stream = plan.order[k % len(streams)]
        t = k // len(streams)
        seed, frames = streams[stream]
        steps.append((frames[t], seed, stream, t))
    frames = tuple(frame for _, frames in streams for frame in frames)
    return Inputs(plan, frames=frames, pairs=pairs, steps=tuple(steps))


def fleet_sets(inputs: Inputs) -> list:
    """The fleet's ``FLEET_SETS`` waves of 12 episodes, two from each
    scenario, disjoint and in scenario order."""
    per = FLEET_EPISODES_PER_SCENARIO
    return [[inputs.episodes[s * per + 2 * k + j]
             for s in range(len(SCENARIOS)) for j in (0, 1)]
            for k in range(FLEET_SETS)]


def inputs_digest(inputs: Inputs) -> str:
    """SHA-256 over every byte the program receives."""
    h = hashlib.sha256()
    for ep in inputs.episodes:
        h.update(repr((ep.name, ep.seed, ep.drift_px)).encode())
        for frame in ep.frames:
            h.update(np.ascontiguousarray(frame).tobytes())
    for frame in inputs.frames:
        h.update(np.ascontiguousarray(frame).tobytes())
    for f, box in inputs.pairs:
        h.update(repr((f, box.row, box.col, box.height,
                       box.width)).encode())
    for frame, seed, stream, t in inputs.steps:
        h.update(repr((seed, stream, t)).encode())
        h.update(np.ascontiguousarray(frame).tobytes())
    return h.hexdigest()
