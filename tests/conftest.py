"""Shared fixtures for the test suite.

The expensive artefact — a trained segmentation system — is built once
per session at a deliberately tiny scale (small frames, few epochs) and
cached on disk, so the integration/core tests that need a real trained
model stay fast on repeated runs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.eval.harness import (
    TrainedSystem,
    build_trained_system,
    tiny_harness_config,
)
from repro.nn import functional as F


@pytest.fixture(autouse=True)
def _conv_engine_isolation():
    """No conv-engine state may leak across tests.

    ``set_conv_engine`` is process-global by design; a test that flips
    the mode or block size and fails before restoring it would silently
    change what every later test measures.  The configuration in force
    before each test is restored after it.
    """
    saved = F.get_conv_engine()
    yield
    F.set_conv_engine(**saved)


@pytest.fixture(scope="session")
def tiny_system() -> TrainedSystem:
    """A small but genuinely trained system (cached across runs).

    The configuration comes from ``tiny_harness_config`` — the single
    source shared with the benchmark suite's ``BENCH_SMOKE=1`` mode, so
    both resolve to one cached set of trained weights.
    """
    return build_trained_system(tiny_harness_config(), cache=True)


@pytest.fixture()
def rng() -> np.random.Generator:
    """A fresh deterministic generator per test."""
    return np.random.default_rng(1234)
