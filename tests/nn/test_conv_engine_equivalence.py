"""Numerical-equivalence harness: the blocked engine vs the reference.

The engine matrix in ``tests/nn/test_conv_engine.py`` pins the blocked
engine on hand-picked geometries that fit one im2col block.  This suite
sweeps 24 seeded random geometries over the repo's real layer ranges
(kernels 1, 3 and 5, ``C_in`` up to 32, maps up to 64x64, batch 1..6,
stride and dilation 1..2, data scales over ~6 orders of magnitude); 11
of the 24 split the column matrix into several row blocks at the
default budget.  The sweep is random once and reproducible forever,
which lets it double as a regression gate.

Error model (float32, unit roundoff ``u = eps / 2 = 2**-24``)
-------------------------------------------------------------
An output element is a dot product of ``K = C_in * kh * kw`` products
plus a bias.  Whatever order a GEMM sums those products in, the
result obeys the classic a-priori bound

    |fl(w . x) - w . x|  <=  gamma_K * (|w| . |x|),
    gamma_K = K * u / (1 - K * u).

Both engines satisfy it, so elementwise

    |blocked - reference|  <=  2 * gamma_K * (|w| . |x|)
                               + 2 * u * (|blocked| + |reference|),

the second term covering the two rounded bias additions.  This suite
asserts that inequality on every element of every sweep case, at the
default block budget and at the smallest one.  Everything the blocked
engine does *not* reassociate is asserted bit for bit instead: a budget
that fits the whole column matrix reproduces the reference exactly;
batched equals per-sample forwards; exact power-of-two scaling; zero
inputs give exactly the bias; stride-0 broadcast batches.
"""

import numpy as np
import pytest

from repro import nn
from repro.nn import functional as F

UNIT_ROUNDOFF = float(np.finfo(np.float32).eps) / 2

#: Max-norm envelope of blocked vs reference, relative to ``max|ref|``.
#: Float32 reassociation measures at most ~1.2e-6 on the sweep (default,
#: 16 KiB and 1 KiB budgets); a half-precision regression (~1e-3)
#: overshoots it.
BLOCKED_MAXNORM_REL = 1e-5

SWEEP = list(range(24))


def _random_case(seed: int):
    rng = np.random.default_rng(4000 + seed)
    n = int(rng.integers(1, 7))
    cin = int(rng.integers(1, 33))
    cout = int(rng.integers(1, 33))
    h = int(rng.integers(10, 65))
    w = int(rng.integers(10, 65))
    k = int(rng.choice((1, 3, 5)))
    padding = int(rng.integers(0, 3))
    stride = int(rng.integers(1, 3))
    dilation = int(rng.integers(1, 3))
    scale = float(10.0 ** rng.integers(-3, 4))
    x = (rng.normal(size=(n, cin, h, w)) * scale).astype(np.float32)
    wt = rng.normal(size=(cout, cin, k, k)).astype(np.float32)
    b = rng.normal(size=cout).astype(np.float32) * np.float32(scale)
    return x, wt, b, stride, padding, dilation


def _conv(mode, x, wt, b, s, p, d, block_kib=None):
    with F.conv_engine(mode=mode, block_kib=block_kib):
        return F.conv2d_infer(x, wt, b, s, p, d)


def _single_block_kib(x, wt, s, p, d):
    """The smallest budget that holds a sample's whole column matrix."""
    c_out, c_in, kh, kw = wt.shape
    out_h = F.conv_output_size(x.shape[2], kh, s, p, d)
    out_w = F.conv_output_size(x.shape[3], kw, s, p, d)
    return -(-c_in * kh * kw * out_h * out_w * x.dtype.itemsize // 1024)


def _abs_products(x, wt, s, p, d):
    """``|w| . |x|`` per output element, in float64."""
    cols, geom = F.im2col(np.abs(x).astype(np.float64), wt.shape[2:],
                          s, p, d)
    a = np.abs(wt).astype(np.float64).reshape(wt.shape[0], -1) @ cols
    return a.reshape(x.shape[0], wt.shape[0], geom[5], geom[6])


def error_bound(x, wt, blk, ref, s, p, d):
    """The a-priori elementwise bound on ``|blocked - reference|``."""
    k = wt.shape[1] * wt.shape[2] * wt.shape[3]
    gamma = k * UNIT_ROUNDOFF / (1 - k * UNIT_ROUNDOFF)
    return (2 * gamma * _abs_products(x, wt, s, p, d)
            + 2 * UNIT_ROUNDOFF * (np.abs(blk).astype(np.float64)
                                   + np.abs(ref)))


def assert_blocked_equivalent(blk, ref):
    """Max-norm envelope of the blocked engine against the reference."""
    scale = float(np.abs(ref).max())
    dev = float(np.abs(blk - ref).max())
    assert dev <= BLOCKED_MAXNORM_REL * scale, (
        f"max-norm deviation {dev:.3e} exceeds the envelope "
        f"{BLOCKED_MAXNORM_REL:.0e} * scale ({scale:.3e})")


class TestShapeSweepProperty:
    """blocked ~ reference across the seeded shape sweep."""

    @pytest.mark.parametrize("seed", SWEEP)
    def test_blocked_within_envelope(self, seed):
        x, wt, b, s, p, d = _random_case(seed)
        ref = _conv("reference", x, wt, b, s, p, d)
        blk = _conv("blocked", x, wt, b, s, p, d)
        assert blk.shape == ref.shape and blk.dtype == np.float32
        assert_blocked_equivalent(blk, ref)

    @pytest.mark.parametrize("seed", SWEEP)
    def test_a_priori_error_bound_holds_elementwise(self, seed):
        """The error model is an inequality about every element, at the
        default budget and at one-row blocks."""
        x, wt, b, s, p, d = _random_case(seed)
        ref = _conv("reference", x, wt, b, s, p, d)
        for kib in (None, 1):
            blk = _conv("blocked", x, wt, b, s, p, d, block_kib=kib)
            dev = np.abs(blk.astype(np.float64) - ref)
            assert np.all(dev <= error_bound(x, wt, blk, ref, s, p, d)), kib

    @pytest.mark.parametrize("seed", SWEEP)
    def test_single_block_budget_is_bit_exact(self, seed):
        """A budget that fits the whole per-sample column matrix
        degenerates to exactly the reference GEMM; smaller budgets stay
        inside the envelope."""
        x, wt, b, s, p, d = _random_case(seed)
        ref = _conv("reference", x, wt, b, s, p, d)
        whole = _single_block_kib(x, wt, s, p, d)
        assert np.array_equal(
            _conv("blocked", x, wt, b, s, p, d, block_kib=whole), ref)
        for kib in (1, 16, max(1, whole // 2)):
            assert_blocked_equivalent(
                _conv("blocked", x, wt, b, s, p, d, block_kib=kib), ref)

    @pytest.mark.parametrize("seed", SWEEP)
    def test_batched_equals_sequential_bit_for_bit(self, seed):
        """Blocking depends on per-sample geometry only, so a batch
        splits columns exactly as its samples do one by one."""
        x, wt, b, s, p, d = _random_case(seed)
        for mode, kib in (("blocked", None), ("blocked", 4),
                          ("reference", None)):
            batched = _conv(mode, x, wt, b, s, p, d, block_kib=kib)
            singles = np.concatenate([
                _conv(mode, x[i:i + 1], wt, b, s, p, d, block_kib=kib)
                for i in range(x.shape[0])])
            assert np.array_equal(batched, singles), (mode, kib)

    @pytest.mark.parametrize("seed", SWEEP)
    def test_power_of_two_scaling_is_exact(self, seed):
        """Scaling input and bias by 2**k scales every rounded partial
        sum by 2**k, so the output scales exactly on both engines."""
        x, wt, b, s, p, d = _random_case(seed)
        factor = np.float32(8.0)
        for mode in F.CONV_ENGINE_MODES:
            y = _conv(mode, x, wt, b, s, p, d)
            y_scaled = _conv(mode, x * factor, wt, b * factor, s, p, d)
            assert np.array_equal(y_scaled, y * factor), mode

    @pytest.mark.parametrize("seed", SWEEP)
    def test_zero_input_is_exactly_bias(self, seed):
        x, wt, b, s, p, d = _random_case(seed)
        zeros = np.zeros_like(x)
        for mode in F.CONV_ENGINE_MODES:
            y = _conv(mode, zeros, wt, b, s, p, d)
            assert np.array_equal(
                y, np.broadcast_to(b[None, :, None, None], y.shape)), mode
            assert not np.any(_conv(mode, zeros, wt, None, s, p, d)), mode

    @pytest.mark.parametrize("seed", SWEEP)
    def test_broadcast_batch_equals_per_sample(self, seed):
        """A stride-0 broadcast batch is computed once, returned as a
        broadcast view, and equals the per-sample forward bit for bit."""
        x, wt, b, s, p, d = _random_case(seed)
        one = x[:1]
        tiled = np.broadcast_to(one, (4,) + one.shape[1:])
        for mode in F.CONV_ENGINE_MODES:
            y = _conv(mode, tiled, wt, b, s, p, d)
            assert y.shape[0] == 4 and y.strides[0] == 0, mode
            ref = _conv(mode, one, wt, b, s, p, d)
            assert np.array_equal(y[3], ref[0]), mode

    def test_envelope_catches_precision_regressions(self):
        """Meta-test: a half-precision-sized error (~1e-3 relative)
        fails both the envelope and the elementwise bound."""
        x, wt, b, s, p, d = _random_case(0)
        ref = _conv("reference", x, wt, b, s, p, d)
        drifted = ref * np.float32(1.0 + 1e-3)
        with pytest.raises(AssertionError):
            assert_blocked_equivalent(drifted, ref)
        dev = np.abs(drifted.astype(np.float64) - ref)
        assert np.any(dev > error_bound(x, wt, drifted, ref, s, p, d))


# ----------------------------------------------------------------------
# Layer compositions: fused batch norm and MC-dropout masks
# ----------------------------------------------------------------------
def _seeded_block(cin=8, mid=8, cout=8, dropout=0.5):
    """conv -> BN(eval, non-trivial stats) -> ReLU -> SpatialDropout
    (MC mode) -> conv, seeded for cross-engine comparison."""
    rng = np.random.default_rng(5)
    conv1 = nn.Conv2d(cin, mid, 3, padding=1, rng=1)
    bn = nn.BatchNorm2d(mid)
    bn.running_mean = rng.normal(size=mid) * 0.5
    bn.running_var = rng.uniform(0.25, 4.0, size=mid)
    bn.gamma.data = rng.uniform(0.5, 2.0, size=mid).astype(np.float32)
    bn.beta.data = rng.normal(size=mid).astype(np.float32)
    drop = nn.SpatialDropout2d(dropout, rng=99)
    conv2 = nn.Conv2d(mid, cout, 3, padding=1, rng=2)
    seq = nn.Sequential(conv1, bn, nn.ReLU(), drop, conv2)
    seq.eval()
    drop.mc_mode = True
    return seq, drop


class TestLayerCompositions:
    """The envelope survives the layers sitting around every conv in
    MSDnet's blocks."""

    def _run(self, image, mask_seed):
        outs, masks = {}, {}
        for mode in F.CONV_ENGINE_MODES:
            seq, drop = _seeded_block()
            drop.rng = np.random.default_rng(mask_seed)
            with F.conv_engine(mode=mode, block_kib=4):
                outs[mode] = seq(image)
            masks[mode] = np.asarray(drop._mask)
        return outs, masks

    def test_bn_fused_and_dropout_composition(self):
        image = np.random.default_rng(11).normal(
            size=(2, 8, 16, 24)).astype(np.float32)
        outs, _ = self._run(image, 42)
        # Two convs with bounded per-channel amplification between
        # them: certify at 4x the single-layer envelope.
        ref = outs["reference"]
        scale = float(np.abs(ref).max())
        assert float(np.abs(outs["blocked"] - ref).max()) <= \
            4 * BLOCKED_MAXNORM_REL * scale

    def test_dropout_masks_identical_across_engines(self):
        """The engines reassociate arithmetic; they never touch RNG
        state, so the mask stream is engine-independent."""
        image = np.random.default_rng(12).normal(
            size=(1, 8, 16, 16)).astype(np.float32)
        _, masks = self._run(image, 7)
        assert np.array_equal(masks["blocked"], masks["reference"])

    def test_msdnet_forward_within_widened_envelope(self):
        """Whole-model check: an untrained MSDnet forward under the
        blocked engine stays within a depth-widened envelope of the
        reference forward."""
        from repro.segmentation.msdnet import MSDNet, MSDNetConfig

        model = MSDNet(MSDNetConfig(base_channels=16, num_blocks=2),
                       rng=3)
        model.eval()
        image = np.random.default_rng(13).normal(
            size=(1, 3, 32, 48)).astype(np.float32)
        outs = {}
        for mode in F.CONV_ENGINE_MODES:
            with F.conv_engine(mode=mode, block_kib=4):
                outs[mode] = model.forward(image)
        ref = outs["reference"]
        scale = float(np.abs(ref).max())
        assert float(np.abs(outs["blocked"] - ref).max()) <= \
            16 * BLOCKED_MAXNORM_REL * scale
