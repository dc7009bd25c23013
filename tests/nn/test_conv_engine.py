"""Tests for the inference conv engine.

Contracts:

* the blocked engine agrees with the reference im2col+GEMM path — bit
  for bit when the geometry fits a single block, to float32
  reassociation tolerance when the column matrix is split;
* blocking depends only on per-sample geometry, so batched forwards
  equal per-sample forwards bit for bit (the batched MC engine's
  invariant);
* stride-0 broadcast batches are computed once and re-broadcast.

The engine matrix below is driven off ``F.CONV_ENGINE_MODES`` — a new
engine mode fails these tests until it declares its accuracy contract
in ``_MODE_CONTRACTS``, so future backends are covered by construction.

Engine state isolation is provided suite-wide by the autouse
``_conv_engine_isolation`` fixture in ``tests/conftest.py``.
"""

import numpy as np
import pytest

from repro import nn
from repro.nn import functional as F


def _case(rng, n, cin, cout, h, w, k=3, stride=1, padding=1, dilation=1):
    x = rng.normal(size=(n, cin, h, w)).astype(np.float32)
    wt = rng.normal(size=(cout, cin, k, k)).astype(np.float32)
    b = rng.normal(size=cout).astype(np.float32)
    return x, wt, b, stride, padding, dilation


CASES = [
    dict(n=1, cin=3, cout=8, h=24, w=32),                      # stem-like
    dict(n=4, cin=8, cout=8, h=24, w=32, stride=2),            # strided
    dict(n=2, cin=8, cout=4, h=12, w=16, padding=4, dilation=4),
    dict(n=3, cin=8, cout=8, h=9, w=11),                       # odd sizes
    dict(n=2, cin=4, cout=6, h=8, w=8, k=1, padding=0),        # 1x1
]

#: The engine matrix: every geometry below runs on every mode in
#: ``F.CONV_ENGINE_MODES``.  Reference <-> blocked must agree bit for
#: bit (all these geometries fit one im2col block at the default
#: budget).  The sweep deliberately includes the degenerate
#: corners: 1x1 spatial output, single channel in/out, batch 1 vs N,
#: kernels {1, 3, 5}, strides, paddings and dilation.
ENGINE_MATRIX = [
    dict(n=1, cin=3, cout=8, h=16, w=24),                     # stem-like
    dict(n=5, cin=3, cout=8, h=16, w=24),                     # batch N
    dict(n=2, cin=8, cout=6, h=12, w=16, k=1, padding=0),     # 1x1 kernel
    dict(n=2, cin=8, cout=6, h=12, w=16, k=5, padding=2),     # 5x5 kernel
    dict(n=3, cin=8, cout=8, h=13, w=9),                      # odd spatial
    dict(n=2, cin=8, cout=8, h=12, w=16, stride=2),           # strided
    dict(n=2, cin=8, cout=8, h=12, w=16, padding=2,
         dilation=2),                                         # dilated
    dict(n=2, cin=1, cout=1, h=10, w=10),                     # 1 channel
    dict(n=1, cin=4, cout=4, h=3, w=3, padding=0),            # 1x1 output
    dict(n=4, cin=6, cout=3, h=8, w=8, padding=2),            # fat padding
]


def _contract_bit_exact(out, ref, blk, x, wt, geom):
    assert np.array_equal(out, ref)


#: Per-mode accuracy contract of the matrix sweep.  Keys must cover
#: ``F.CONV_ENGINE_MODES`` exactly — adding an engine mode without
#: declaring its contract here is a test failure by design.
_MODE_CONTRACTS = {
    "reference": _contract_bit_exact,
    "blocked": _contract_bit_exact,   # single-block regime == reference
}


class TestEngineMatrix:
    """Every mode in ``CONV_ENGINE_MODES`` over the geometry sweep."""

    def test_every_mode_declares_a_contract(self):
        assert set(_MODE_CONTRACTS) == set(F.CONV_ENGINE_MODES), \
            "new engine mode must declare its matrix contract"

    @pytest.mark.parametrize("mode", F.CONV_ENGINE_MODES)
    @pytest.mark.parametrize("kw", ENGINE_MATRIX)
    def test_engine_matrix_equivalence(self, kw, mode):
        seed = sum(kw.values())  # randomized-but-seeded per geometry
        x, wt, b, s, p, d = _case(np.random.default_rng(seed), **kw)
        with F.conv_engine(mode="reference"):
            ref = F.conv2d_infer(x, wt, b, s, p, d)
        with F.conv_engine(mode="blocked"):
            blk = F.conv2d_infer(x, wt, b, s, p, d)
        # Single-block regime: blocked degenerates to the reference
        # GEMM exactly.
        assert np.array_equal(blk, ref)
        with F.conv_engine(mode=mode):
            out = F.conv2d_infer(x, wt, b, s, p, d)
        _MODE_CONTRACTS[mode](out, ref, blk, x, wt,
                              (kw.get("k", 3), s, p, d))

    @pytest.mark.parametrize("kw", ENGINE_MATRIX)
    def test_engine_matrix_batched_equals_per_sample(self, kw):
        """Batch 1 vs N bit-for-bit, on every engine mode."""
        seed = sum(kw.values()) + 1
        x, wt, b, s, p, d = _case(np.random.default_rng(seed), **kw)
        for mode in F.CONV_ENGINE_MODES:
            with F.conv_engine(mode=mode):
                batched = F.conv2d_infer(x, wt, b, s, p, d)
                singles = np.concatenate([
                    F.conv2d_infer(x[i:i + 1], wt, b, s, p, d)
                    for i in range(x.shape[0])])
            assert np.array_equal(batched, singles), mode


class TestBlockedEngine:
    @pytest.mark.parametrize("kw", CASES)
    def test_blocked_matches_reference(self, kw):
        x, wt, b, s, p, d = _case(np.random.default_rng(0), **kw)
        with F.conv_engine(mode="reference"):
            ref = F.conv2d_infer(x, wt, b, s, p, d)
        with F.conv_engine(mode="blocked"):
            out = F.conv2d_infer(x, wt, b, s, p, d)
        np.testing.assert_allclose(out, ref, rtol=1e-5, atol=1e-5)

    @pytest.mark.parametrize("kw", CASES)
    def test_blocked_matches_training_forward(self, kw):
        x, wt, b, s, p, d = _case(np.random.default_rng(1), **kw)
        ref, _ = F.conv2d_forward(x, wt, b, s, p, d)
        with F.conv_engine(mode="blocked"):
            out = F.conv2d_infer(x, wt, b, s, p, d)
        np.testing.assert_allclose(out, ref, rtol=1e-5, atol=1e-5)

    def test_single_block_is_bit_identical_to_reference(self):
        # Geometry far below the block budget -> the blocked engine
        # degenerates to exactly the reference GEMM.
        x, wt, b, s, p, d = _case(np.random.default_rng(2), n=2, cin=4,
                                  cout=4, h=8, w=8)
        with F.conv_engine(mode="reference"):
            ref = F.conv2d_infer(x, wt, b, s, p, d)
        with F.conv_engine(mode="blocked"):
            out = F.conv2d_infer(x, wt, b, s, p, d)
        assert np.array_equal(out, ref)

    def test_batched_equals_per_sample_bit_for_bit(self):
        # The invariant the batched MC-dropout engine builds on: the
        # block split never depends on the batch size.  Use a spatial
        # size large enough to force multiple blocks at a small budget.
        rng = np.random.default_rng(3)
        x = rng.normal(size=(5, 8, 48, 64)).astype(np.float32)
        wt = rng.normal(size=(8, 8, 3, 3)).astype(np.float32)
        with F.conv_engine(mode="blocked", block_kib=64):
            batched = F.conv2d_infer(x, wt, None, padding=1)
            singles = np.concatenate(
                [F.conv2d_infer(x[i:i + 1], wt, None, padding=1)
                 for i in range(x.shape[0])])
        assert np.array_equal(batched, singles)

    def test_block_size_does_not_change_results_materially(self):
        x, wt, b, s, p, d = _case(np.random.default_rng(4), n=2, cin=8,
                                  cout=8, h=48, w=64)
        outs = []
        for kib in (1, 16, 4096):
            with F.conv_engine(mode="blocked", block_kib=kib):
                outs.append(F.conv2d_infer(x, wt, b, s, p, d))
        np.testing.assert_allclose(outs[0], outs[1], rtol=1e-5, atol=1e-5)
        np.testing.assert_allclose(outs[0], outs[2], rtol=1e-5, atol=1e-5)

    def test_broadcast_batch_computed_once(self):
        rng = np.random.default_rng(5)
        one = rng.normal(size=(1, 4, 8, 8)).astype(np.float32)
        wt = rng.normal(size=(4, 4, 3, 3)).astype(np.float32)
        tiled = np.broadcast_to(one, (6,) + one.shape[1:])
        assert tiled.strides[0] == 0
        y = F.conv2d_infer(tiled, wt, None, padding=1)
        assert y.shape[0] == 6
        assert y.strides[0] == 0  # result is a broadcast view too
        ref = F.conv2d_infer(one, wt, None, padding=1)
        for i in range(6):
            assert np.array_equal(y[i], ref[0])


class TestEngineConfig:
    def test_invalid_knobs_rejected(self):
        # The removed engine modes are rejected like any unknown one.
        for mode in ("banana", "winograd", "int8"):
            with pytest.raises(ValueError, match="conv engine mode"):
                F.set_conv_engine(mode=mode)
        with pytest.raises(ValueError):
            F.set_conv_engine(block_kib=0)

    @pytest.mark.parametrize("mode", F.CONV_ENGINE_MODES)
    def test_engine_modes_are_valid(self, mode):
        with F.conv_engine(mode=mode):
            assert F.get_conv_engine()["mode"] == mode

    def test_reset_restores_builtin_defaults(self):
        F.set_conv_engine(mode="reference", block_kib=7)
        assert F.reset_conv_engine() == {"mode": "blocked",
                                         "block_kib": 384}

    def test_set_conv_engine_restores_prior_state_via_reset(self):
        before = F.get_conv_engine()
        F.set_conv_engine(mode="reference", block_kib=64)
        F.set_conv_engine(**before)
        assert F.get_conv_engine() == before

    def test_context_manager_restores(self):
        before = F.get_conv_engine()
        with F.conv_engine(mode="reference", block_kib=7):
            assert F.get_conv_engine()["mode"] == "reference"
        assert F.get_conv_engine() == before

    def test_context_manager_restores_on_error(self):
        before = F.get_conv_engine()
        with pytest.raises(RuntimeError):
            with F.conv_engine(mode="reference"):
                raise RuntimeError("boom")
        assert F.get_conv_engine() == before

    def test_clear_conv_buffers(self):
        x, wt, b, s, p, d = _case(np.random.default_rng(7), n=1, cin=4,
                                  cout=4, h=8, w=8)
        F.conv2d_infer(x, wt, b, s, p, d)
        F.clear_conv_buffers()
        out = F.conv2d_infer(x, wt, b, s, p, d)
        assert out.shape == (1, 4, 8, 8)


class TestConvLayerDispatch:
    def test_eval_forward_matches_training_forward(self):
        layer = nn.Conv2d(3, 5, 3, padding=1, rng=0)
        x = np.random.default_rng(8).normal(
            size=(2, 3, 10, 12)).astype(np.float32)
        layer.train()
        y_train = layer(x)
        layer.eval()
        with F.conv_engine(mode="blocked"):
            y_eval = layer(x)
        np.testing.assert_allclose(y_eval, y_train, rtol=1e-5, atol=1e-5)

    def test_eval_forward_retains_no_cache(self):
        layer = nn.Conv2d(3, 5, 3, padding=1, rng=0)
        layer.eval()
        layer(np.zeros((1, 3, 8, 8), dtype=np.float32))
        assert layer._cache is None
        with pytest.raises(RuntimeError, match="before forward"):
            layer.backward(np.zeros((1, 5, 8, 8), dtype=np.float32))

    def test_training_backward_unaffected(self):
        layer = nn.Conv2d(2, 3, 3, padding=1, rng=0)
        x = np.random.default_rng(9).normal(
            size=(1, 2, 6, 6)).astype(np.float32)
        layer.train()
        y = layer(x)
        dx = layer.backward(np.ones_like(y))
        assert dx.shape == x.shape
