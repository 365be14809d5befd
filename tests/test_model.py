import copy
import dataclasses
import hashlib
import json
import math
import pickle
import struct
import warnings
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from conftest import FD_REL_TOL, FD_SEEDS, fd_check_variant, make_toy_batch, write_frozen_encoder_file
from mebench.errors import ConfigError, DataError
from mebench.model import (
    AdamState,
    EncoderConfig,
    FrozenEncoder,
    ModelConfig,
    ModelInputs,
    NonFiniteGradientError,
    ParamSet,
    TrainConfig,
    TrainSample,
    Variant,
    VariantInputError,
    backward,
    evaluate_predictions,
    extract_frozen_features,
    forward,
    gradcam,
    init_params,
    load_checkpoint,
    lr_schedule,
    optimizer_step,
    save_checkpoint,
    train_fold,
)
from mebench.model import autodiff as ad
from mebench.model import network, training
from mebench.model.autodiff import Tensor
from mebench.model.losses import LossBreakdown
from mebench.model.network import INPUT_CENTER, encode_conv, encode_patches, fuse_features
from mebench.model.config import ETHNIC_BRANCHES
from mebench.model.params import model_tensors
from mebench.model.training import batch_loss_graph
from mebench.runutil import from_json_dict, to_json_dict


def assert_bits_equal(got, ref):
    """Exact float64 equality through int64 views, so -0.0 != +0.0 and NaN payloads count."""
    got, ref = (np.ascontiguousarray(a, dtype=np.float64) for a in (got, ref))
    assert got.shape == ref.shape
    np.testing.assert_array_equal(got.view(np.int64), ref.view(np.int64))


def toy_forward(variant, seed=3, size=16):
    config = ModelConfig.toy(size)
    params = init_params(config, variant, seed=seed)
    batch = make_toy_batch(seed, size)
    inputs = ModelInputs(
        flow=np.stack([s.flow for s in batch]),
        rgb=np.stack([s.rgb for s in batch]) if variant.needs_rgb else None,
    )
    return config, params, batch, forward(inputs, params, config, variant)


# ---------------------------------------------------------------- encoders


def spy_attention(monkeypatch) -> list:
    """Record the attention probabilities of every ad.softmax call."""
    probs = []
    real_softmax = ad.softmax

    def spy(a, axis=-1, scale=1.0):
        out = real_softmax(a, axis, scale=scale)
        probs.append(out.data)
        return out

    monkeypatch.setattr(ad, "softmax", spy)
    return probs


def encode_texture(rgb, params, config):
    """Patch-encoder features of a (B, 3, H, W) batch in [0, 1]."""
    return encode_patches(Tensor(rgb - INPUT_CENTER), params.leaves(), "texture", config.texture)[0].data


class TestEncodeConv:
    def test_output_length(self):
        config = ModelConfig.toy(16)
        params = init_params(config, Variant.MOTION_ONLY, seed=0)
        x = np.random.default_rng(0).uniform(0, 1, (1, 3, 16, 16))
        feat, _ = encode_conv(Tensor(x), params.leaves(), "motion", config.conv)
        assert feat.shape == (1, 4)

    def test_deterministic(self):
        config = ModelConfig.toy(16)
        params = init_params(config, Variant.MOTION_ONLY, seed=0)
        x = np.random.default_rng(1).uniform(0, 1, (1, 3, 16, 16))
        a, _ = encode_conv(Tensor(x), params.leaves(), "motion", config.conv)
        b, _ = encode_conv(Tensor(x), params.leaves(), "motion", config.conv)
        assert np.array_equal(a.data, b.data)

    def test_zero_weights_zero_embedding(self):
        config = ModelConfig.toy(16)
        params = init_params(config, Variant.MOTION_ONLY, seed=0)
        for name in params:
            params[name][...] = np.zeros_like(params[name])
        feat, _ = encode_conv(Tensor(np.zeros((1, 3, 16, 16))), params.leaves(), "motion", config.conv)
        assert np.array_equal(feat.data, np.zeros((1, 4)))


class TestEncodePatches:
    @pytest.mark.parametrize("config", [ModelConfig.small(64), ModelConfig.toy()], ids=["small64", "toy"])
    def test_first_layer_norm_input_variance_is_order_one(self, config, monkeypatch):
        """Fan-in patch embedding: unit-variance pixels reach the first LayerNorm
        with O(1) token variance, far above its eps, so the LN stays well conditioned."""
        variances = []
        real_layer_norm = ad.layer_norm

        def spy(x, gamma, beta):
            variances.append(x.data.var(axis=-1).mean())
            return real_layer_norm(x, gamma, beta)

        monkeypatch.setattr(ad, "layer_norm", spy)
        rng = np.random.default_rng(0)
        for seed in range(3):
            params = init_params(config, Variant.MOTION_RGB_PATCH, seed=seed)
            rgb = INPUT_CENTER + rng.standard_normal((1, 3, config.image_size, config.image_size))
            variances.clear()
            encode_texture(rgb, params, config)
            assert 0.1 <= variances[0] <= 10.0, f"seed {seed}: ln1 input variance {variances[0]:.3g}"

    def test_patch_count_64(self, monkeypatch):
        config = ModelConfig.small(image_size=64)
        params = init_params(config, Variant.MOTION_RGB_PATCH, seed=0)
        attention = spy_attention(monkeypatch)
        x = np.random.default_rng(0).uniform(0, 1, (1, 3, 64, 64))
        feat = encode_texture(x, params, config)
        assert feat.shape == (1, 32)
        probs = attention[0]
        assert probs.shape[-1] == 64  # 64x64 / 8x8 -> 64 patches

    def test_attention_rows_sum_to_one(self, monkeypatch):
        config = ModelConfig.toy(16)
        params = init_params(config, Variant.MOTION_RGB_PATCH, seed=1)
        attention = spy_attention(monkeypatch)
        x = np.random.default_rng(2).uniform(0, 1, (1, 3, 16, 16))
        encode_texture(x, params, config)
        assert attention, "no attention recorded"
        for probs in attention:
            np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-9)

    def test_positional_term_breaks_permutation_invariance(self):
        config = ModelConfig.toy(16)
        params = init_params(config, Variant.MOTION_RGB_PATCH, seed=2)
        rng = np.random.default_rng(3)
        x = rng.uniform(0, 1, (1, 3, 16, 16))
        swapped = x.copy()
        p = config.texture.patch_size
        swapped[..., :p, :p], swapped[..., :p, p : 2 * p] = (
            x[..., :p, p : 2 * p].copy(),
            x[..., :p, :p].copy(),
        )
        a = encode_texture(x, params, config)
        b = encode_texture(swapped, params, config)
        assert not np.allclose(a, b)

        # sanity: with the positional term removed the swap is invisible
        params["texture.pos"][...] = np.zeros_like(params["texture.pos"])
        a0 = encode_texture(x, params, config)
        b0 = encode_texture(swapped, params, config)
        np.testing.assert_allclose(a0, b0, atol=1e-9)

    def test_divisibility_enforced(self):
        ModelConfig.toy(16).validate_for(Variant.MOTION_RGB_PATCH)  # 16 % 8 == 0, fine
        bad = ModelConfig(
            image_size=20, conv=EncoderConfig(stage_widths=(2,), feature_dim=4), texture=ModelConfig.toy().texture
        )
        with pytest.raises(ConfigError):
            bad.validate_for(Variant.MOTION_RGB_PATCH)


def fuse(f_emotion, f_ethnic, params):
    return fuse_features(Tensor(f_emotion), Tensor(f_ethnic), params.leaves()).data


class TestFuseFeatures:
    def test_concat_length_and_shape(self):
        config = ModelConfig.toy(16)
        params = init_params(config, Variant.DUAL_MOTION, seed=0)
        assert params["head.fusion.w"].shape == (3, 8)  # 2E with E=4
        out = fuse(np.ones((1, 4)), np.zeros((1, 4)), params)
        assert out.shape == (1, 3)

    def test_zero_weights_returns_bias(self):
        config = ModelConfig.toy(16)
        params = init_params(config, Variant.DUAL_MOTION, seed=0)
        params["head.fusion.w"][...] = np.zeros_like(params["head.fusion.w"])
        params["head.fusion.b"][...] = np.array([0.3, -0.2, 0.7])
        out = fuse(np.ones((1, 4)) * 5, np.ones((1, 4)) * -2, params)
        np.testing.assert_array_equal(out, [[0.3, -0.2, 0.7]])

    def test_swap_order_with_permuted_weights(self):
        config = ModelConfig.toy(16)
        params = init_params(config, Variant.DUAL_MOTION, seed=4)
        rng = np.random.default_rng(5)
        f_emotion, f_ethnic = rng.normal(size=(1, 4)), rng.normal(size=(1, 4))
        baseline = fuse(f_emotion, f_ethnic, params)

        permuted = params.like(params.flat.copy())
        w = params["head.fusion.w"]
        permuted["head.fusion.w"][...] = np.concatenate([w[:, 4:], w[:, :4]], axis=1)
        swapped = fuse(f_ethnic, f_emotion, permuted)
        np.testing.assert_allclose(baseline, swapped, atol=1e-12)


# ---------------------------------------------------------------- forward


class TestForward:
    def test_motion_only_outputs_absent(self):
        _, _, _, outputs = toy_forward(Variant.MOTION_ONLY)
        assert outputs.ethnicity_logits is None
        assert outputs.fused_logits is None
        assert outputs.emotion_logits.shape[-1] == 3

    def test_dual_motion_all_outputs(self):
        _, _, _, outputs = toy_forward(Variant.DUAL_MOTION)
        assert outputs.ethnicity_logits.shape[-1] == 2
        assert outputs.fused_logits.shape[-1] == 3
        assert outputs.ethnic_grid is not None

    def test_rgb_variant_requires_rgb(self):
        config = ModelConfig.toy(16)
        params = init_params(config, Variant.MOTION_RGB_PATCH, seed=0)
        flow = np.zeros((1, 3, 16, 16))
        with pytest.raises(VariantInputError):
            forward(ModelInputs(flow=flow, rgb=None), params, config, Variant.MOTION_RGB_PATCH)

    def test_branch_isolation(self):
        """Identical emotion-branch weights give identical emotion logits
        whether or not an ethnic branch exists (no weight sharing)."""
        config = ModelConfig.toy(16)
        dual = init_params(config, Variant.DUAL_MOTION, seed=6)
        mo = init_params(config, Variant.MOTION_ONLY, seed=7)
        for name in mo:
            mo[name][...] = dual[name].copy()
        batch = make_toy_batch(8)
        inputs = ModelInputs(flow=np.stack([s.flow for s in batch]))
        out_dual = forward(inputs, dual, config, Variant.DUAL_MOTION)
        out_mo = forward(inputs, mo, config, Variant.MOTION_ONLY)
        np.testing.assert_array_equal(out_dual.emotion_logits.data, out_mo.emotion_logits.data)

    def test_dual_motion_branch_uses_same_input_different_weights(self):
        config, params, _, outputs = toy_forward(Variant.DUAL_MOTION)
        # both branches consume the flow image; weights differ, so features differ
        assert not np.allclose(outputs.motion_grid.data, outputs.ethnic_grid.data)


# ---------------------------------------------------------------- losses


def ce(logits, target) -> float:
    """-log softmax(logits)[target] of one logit vector, as the training loss computes it."""
    return float(ad.cross_entropy_mean(np.asarray(logits, dtype=np.float64)[None], [target]).data)


class TestCce:
    def test_known_probabilities(self):
        logits = np.log(np.array([0.7, 0.2, 0.1]))
        assert abs(ce(logits, 0) - 0.35667494393873245) < 1e-12
        assert abs(ce(logits, 0) - (-math.log(0.7))) < 1e-12

    def test_uniform_logits(self):
        assert abs(ce(np.zeros(3), 1) - math.log(3)) < 1e-9
        assert abs(ce(np.full(5, 2.7), 0) - math.log(5)) < 1e-9

    def test_stabilized_large_logits(self):
        loss = ce(np.array([1000.0, 0.0, 0.0]), 0)
        assert np.isfinite(loss) and loss < 1e-9

    def test_target_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            ce(np.zeros(3), 3)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10_000), st.floats(-50, 50))
    def test_shift_invariance(self, seed, shift):
        rng = np.random.default_rng(seed)
        logits = rng.normal(size=4)
        assert abs(ce(logits, 2) - ce(logits + shift, 2)) < 1e-9

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10_000))
    def test_softmax_sums_and_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        logits = rng.normal(scale=10, size=(3, 6))
        probs = ad.softmax(logits).data
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-9)
        assert ce(logits[0], 0) >= 0


class TestTotalLoss:
    def test_sum_identity(self):
        bd = LossBreakdown.of(0.5, 0.2, 0.3)
        assert bd.total == 0.5 + 0.2 + 0.3 == 1.0

    def test_motion_only_degenerate(self):
        bd = LossBreakdown.of(0.7)
        assert bd.l_ethnic == 0.0 and bd.l_fusion == 0.0 and bd.total == 0.7

    def test_per_sample_breakdown(self):
        config = ModelConfig.toy(16)
        params = init_params(config, Variant.DUAL_MOTION, seed=3)
        single = make_toy_batch(3)[:1]
        _, bd, _ = batch_loss_graph(params, single, config, Variant.DUAL_MOTION)
        assert bd.total == bd.l_emo + bd.l_ethnic + bd.l_fusion
        assert bd.total > 0

    def test_perfect_one_hot_agreement(self):
        config = ModelConfig.toy(16)
        params = init_params(config, Variant.DUAL_MOTION, seed=3)
        sample = dataclasses.replace(make_toy_batch(3)[0], emotion=0, ethnicity=0)
        # force near-one-hot logits by overwriting head biases and zero weights
        for head, n in (("emotion", 3), ("ethnicity", 2), ("fusion", 3)):
            params[f"head.{head}.w"][...] = np.zeros_like(params[f"head.{head}.w"])
            bias = np.full(n, -1e4)
            bias[0] = 1e4
            params[f"head.{head}.b"][...] = bias
        _, bd, _ = batch_loss_graph(params, [sample], config, Variant.DUAL_MOTION)
        assert bd.total < 1e-9


# ---------------------------------------------------------------- gradients


class TestBackward:
    def test_finite_difference_dual_motion(self):
        worst, n = fd_check_variant(Variant.DUAL_MOTION, FD_SEEDS[Variant.DUAL_MOTION])
        assert n > 0
        assert worst < FD_REL_TOL, f"worst relative error {worst:.3e}"

    def test_unused_branch_gradient_exactly_zero(self):
        config = ModelConfig.toy(16)
        params = init_params(config, Variant.DUAL_MOTION, seed=9)
        grads, _ = backward(params, make_toy_batch(9), config, Variant.MOTION_ONLY)
        for name in params:
            if name.startswith(("ethnic.", "head.ethnicity", "head.fusion")):
                assert np.all(grads[name] == 0.0), name
            elif name.startswith(("motion.", "head.emotion")):
                assert np.any(grads[name] != 0.0), name

    def test_duplicated_batch_same_mean_gradient(self):
        config = ModelConfig.toy(16)
        params = init_params(config, Variant.DUAL_MOTION, seed=10)
        batch = make_toy_batch(10)
        g1, _ = backward(params, batch, config, Variant.DUAL_MOTION)
        g2, _ = backward(params, [batch[0], batch[0], batch[1], batch[1]], config, Variant.DUAL_MOTION)
        for name in g1:
            np.testing.assert_allclose(g1[name], g2[name], atol=1e-12)

    def test_empty_batch(self):
        config = ModelConfig.toy(16)
        params = init_params(config, Variant.DUAL_MOTION, seed=0)
        with pytest.raises(DataError):
            backward(params, [], config, Variant.DUAL_MOTION)

    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    def test_parameter_gradients_match_all_grad_graph_bitwise(self, variant, monkeypatch):
        config = ModelConfig.toy(16)
        params = init_params(config, variant, seed=FD_SEEDS[variant])
        batch = make_toy_batch(FD_SEEDS[variant], n=3)
        grads, breakdown = backward(params, batch, config, variant)

        # reference: every data input requires a gradient, so every op pushes to every parent
        data_leaves = []

        def grad_leaf(data):
            data_leaves.append(Tensor(data, requires_grad=True))
            return data_leaves[-1]

        monkeypatch.setattr(network, "Tensor", grad_leaf)
        ref_grads, ref_breakdown = backward(params, batch, config, variant)
        assert data_leaves and all(leaf.grad is not None for leaf in data_leaves)
        assert breakdown == ref_breakdown
        assert list(grads) == list(ref_grads) == list(params)
        for name in params:
            assert_bits_equal(grads[name], ref_grads[name])

    @pytest.mark.parametrize(
        "poisoned,named",
        [(("head.fusion.w",), "head.fusion.w"), (("head.fusion.w", "motion.stage1.b"), "motion.stage1.b")],
        ids=["one", "first-in-order"],
    )
    def test_non_finite_gradient_names_first_parameter(self, poisoned, named, monkeypatch):
        config = ModelConfig.toy(16)
        params = init_params(config, Variant.DUAL_MOTION, seed=0)
        real_graph = training.batch_loss_graph

        def poisoned_graph(*args):
            # adds mean(w * mask) for each poisoned w: its gradient is mask / w.size, NaN at one entry
            loss, breakdown, leaves = real_graph(*args)
            for name in poisoned:
                mask = np.zeros(params[name].shape)
                mask.ravel()[1] = np.nan
                loss = ad.add(loss, ad.mean(ad.mul(leaves[name], mask)))
            return loss, breakdown, leaves

        monkeypatch.setattr(training, "batch_loss_graph", poisoned_graph)
        with pytest.raises(NonFiniteGradientError, match=f"non-finite gradient for parameter '{named}'$"):
            backward(params, make_toy_batch(0), config, Variant.DUAL_MOTION)


# ---------------------------------------------------------------- conv2d kernel


def _loop_im2col(x, kh, kw, stride, pad):
    """Reference im2col: np.pad plus one strided copy per kernel tap."""
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    batch, chans, h, w = x.shape
    out_h = (h - kh) // stride + 1
    out_w = (w - kw) // stride + 1
    cols = np.empty((batch, chans, kh, kw, out_h, out_w))
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = x[:, :, i : i + stride * out_h : stride, j : j + stride * out_w : stride]
    return cols.reshape(batch, chans * kh * kw, out_h * out_w), out_h, out_w


def _einsum_conv2d(x, w, b, g, stride, pad):
    """Reference conv2d forward and backward: loop im2col plus the einsum adjoints."""
    filters, _, kh, kw = w.shape
    batch = x.shape[0]
    cols, out_h, out_w = _loop_im2col(x, kh, kw, stride, pad)
    w_mat = w.reshape(filters, -1)
    out = ((w_mat @ cols) + b[:, None]).reshape(batch, filters, out_h, out_w)
    g_mat = g.reshape(batch, filters, out_h * out_w)
    dw = np.einsum("bfl,bcl->fc", g_mat, cols).reshape(w.shape)
    dcols = np.einsum("fc,bfl->bcl", w_mat, g_mat)
    dx = _loop_col2im(dcols, x.shape, kh, kw, stride, pad, out_h, out_w)
    return cols, out, dx, dw, g_mat.sum(axis=(0, 2))


_CONV_CASES = [
    (batch, chans, filters, size, 3, stride, pad)
    for batch in (1, 2)
    for chans, filters in ((3, 8), (8, 16), (16, 32))
    for size in (16, 32, 64)
    for stride in (1, 2)
    for pad in (0, 1)
] + [(2, 8, 16, 32, 1, 1, 0), (2, 3, 8, 32, 5, 2, 2)]

# every conv case plus the three loso-desk encoder stages at batch 3, the size of
# the held-out batch that evaluate_predictions sees in a LOSO fold
_PLAN_CASES = _CONV_CASES + [(3, chans, filters, size, 3, 2, 1) for chans, filters, size in
                             ((3, 8, 64), (8, 16, 32), (16, 32, 16))]


def _sliding_window_im2col(x, kh, kw, stride, pad):
    """im2col as autodiff computed it before the gather plan, frozen as the bitwise
    reference: zero padding, sliding_window_view and one strided copy."""
    batch, chans, h, w = x.shape
    if pad:
        padded = np.zeros((batch, chans, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
        padded[:, :, pad:-pad, pad:-pad] = x
        x = padded
    windows = sliding_window_view(x, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
    out_h, out_w = windows.shape[2:4]
    cols = windows.transpose(0, 1, 4, 5, 2, 3).reshape(batch, chans * kh * kw, out_h * out_w)
    return cols, out_h, out_w


def _loop_col2im(dcols, x_shape, kh, kw, stride, pad, out_h, out_w):
    """col2im as autodiff computed it before the scatter plan, frozen as the bitwise
    reference: one strided += per kernel tap, in (kh, kw) order from zero."""
    batch, chans, h, w = x_shape
    dx = np.zeros((batch, chans, h + 2 * pad, w + 2 * pad), dtype=dcols.dtype)
    d = dcols.reshape(batch, chans, kh, kw, out_h, out_w)
    for i in range(kh):
        for j in range(kw):
            dx[:, :, i : i + stride * out_h : stride, j : j + stride * out_w : stride] += d[:, :, i, j]
    return dx[:, :, pad : pad + h, pad : pad + w]


def _always_push_conv2d(x, w, b, stride=1, pad=0):
    """conv2d as it was before requires_grad and the gather/scatter plans, kept as
    the bitwise reference: its push computes and accumulates the gradient of every
    parent through the frozen im2col and col2im above."""
    filters, _, kh, kw = w.shape
    cols, out_h, out_w = _sliding_window_im2col(x.data, kh, kw, stride, pad)
    w_mat = w.data.reshape(filters, -1)
    out_data = (w_mat @ cols) + b.data[:, None]
    batch = x.data.shape[0]
    out = ad.Tensor(out_data.reshape(batch, filters, out_h, out_w), parents=(x, w, b))

    def push(g):
        g_mat = g.reshape(batch, filters, out_h * out_w)
        ad._accum(b, g_mat.sum(axis=(0, 2)))
        ad._accum(w, (g_mat @ cols.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape))
        dcols = w_mat.T @ g_mat
        ad._accum(x, _loop_col2im(dcols, x.data.shape, kh, kw, stride, pad, out_h, out_w))

    out._push = push
    return out


def _conv_case(batch, chans, filters, size, k, stride, pad):
    """Seeded input, weights, bias and output gradient for one _CONV_CASES entry."""
    rng = np.random.default_rng(size * 1000 + chans * 10 + k + stride + pad)
    x = rng.normal(size=(batch, chans, size, size))
    w = rng.normal(size=(filters, chans, k, k))
    b = rng.normal(size=filters)
    out_size = (size + 2 * pad - k) // stride + 1
    return x, w, b, rng.normal(size=(batch, filters, out_size, out_size))


class TestConv2dKernel:
    @pytest.mark.parametrize("batch,chans,filters,size,k,stride,pad", _CONV_CASES)
    def test_matches_einsum_reference(self, batch, chans, filters, size, k, stride, pad):
        x, w, b, g = _conv_case(batch, chans, filters, size, k, stride, pad)
        cols_ref, out_ref, dx_ref, dw_ref, db_ref = _einsum_conv2d(x, w, b, g, stride, pad)

        assert np.array_equal(ad._im2col(x, k, k, stride, pad)[0], cols_ref)
        xt, wt, bt = (ad.Tensor(a, requires_grad=True) for a in (x, w, b))
        out = ad.conv2d(xt, wt, bt, stride=stride, pad=pad)
        assert np.array_equal(out.data, out_ref)
        out._push(g)
        for got, ref in ((wt.grad, dw_ref), (bt.grad, db_ref), (xt.grad, dx_ref)):
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())

    @pytest.mark.parametrize("batch,chans,filters,size,k,stride,pad", _CONV_CASES)
    def test_no_grad_input_skips_dx_and_keeps_dw_db_bits(self, batch, chans, filters, size, k, stride, pad):
        x, w, b, g = _conv_case(batch, chans, filters, size, k, stride, pad)
        ref_x, ref_w, ref_b = (ad.Tensor(a, requires_grad=True) for a in (x, w, b))
        ref = _always_push_conv2d(ref_x, ref_w, ref_b, stride=stride, pad=pad)
        ref._push(g)

        xt = ad.Tensor(x)
        wt, bt = ad.Tensor(w, requires_grad=True), ad.Tensor(b, requires_grad=True)
        out = ad.conv2d(xt, wt, bt, stride=stride, pad=pad)
        assert_bits_equal(out.data, ref.data)
        out._push(g)
        assert xt.grad is None
        assert ref_x.grad is not None
        assert_bits_equal(wt.grad, ref_w.grad)
        assert_bits_equal(bt.grad, ref_b.grad)

    @pytest.mark.parametrize("batch,chans,filters,size,k,stride,pad", _PLAN_CASES)
    def test_plan_kernels_match_frozen_references_bitwise(self, batch, chans, filters, size, k, stride, pad):
        x = _conv_case(batch, chans, filters, size, k, stride, pad)[0]
        x.ravel()[::7] = -0.0
        cols, out_h, out_w = _sliding_window_im2col(x, k, k, stride, pad)
        assert_bits_equal(ad._im2col(x, k, k, stride, pad)[0], cols)
        # signed zeros, and magnitudes over 24 decades, so that summing the taps
        # of an input element in any order but (i, j) changes the rounding
        rng = np.random.default_rng(batch * 100 + size)
        dcols = rng.normal(size=cols.shape) * 10.0 ** rng.integers(-12, 12, size=cols.shape)
        dcols.ravel()[::5] = -0.0
        dcols.ravel()[1::5] = 0.0
        assert_bits_equal(ad._col2im(dcols, x.shape, k, k, stride, pad),
                          _loop_col2im(dcols, x.shape, k, k, stride, pad, out_h, out_w))

    def test_plan_is_cached_and_read_only(self):
        plan, out_h, out_w = ad._conv_plan(3, 8, 8, 3, 3, 2, 1)
        assert ad._conv_plan(3, 8, 8, 3, 3, 2, 1)[0] is plan
        assert plan.shape == (27, out_h * out_w) == (27, 16)
        assert not plan.flags.writeable

    def test_no_grad_parents_record_nothing(self):
        rng = np.random.default_rng(0)
        out = ad.conv2d(rng.normal(size=(1, 3, 8, 8)), rng.normal(size=(4, 3, 3, 3)), np.zeros(4), pad=1)
        assert not out.requires_grad
        assert out._push is None and out._parents == ()


# ---------------------------------------------------------------- relu

_RELU_SPECIALS = (-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324)


class TestRelu:
    @pytest.mark.parametrize("value", _RELU_SPECIALS, ids=repr)
    @pytest.mark.parametrize("length", (1, 15, 17, 31, 33, 63, 129))
    def test_special_values_match_mask_form_bitwise(self, value, length):
        """Each special value at every offset mod 16, so both the SIMD lanes and the
        scalar tail see it, in fresh arrays and in views shifted by one element."""
        rng = np.random.default_rng(length)
        for offset in range(min(length, 16)):
            buf = rng.normal(size=length + 1)
            for x in (buf[:length].copy(), buf[1:]):
                x[offset::16] = value
                a = ad.Tensor(x, requires_grad=True)
                out = ad.relu(a)
                assert_bits_equal(out.data, np.where(x > 0, x, 0.0))
                g = rng.normal(size=length)
                out._push(g)
                assert_bits_equal(a.grad, g * (x > 0))


# ---------------------------------------------------------------- softmax, layer_norm, mean, linear, cross-entropy


def _three_array_softmax(a, axis=-1):
    """softmax as autodiff computed it before its scale keyword, frozen as the
    bitwise reference: three fresh arrays forward and three in the push."""
    z = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=axis, keepdims=True)

    def push(g):
        inner = (g * y).sum(axis=axis, keepdims=True)
        ad._accum(a, y * (g - inner))

    return Tensor(y, (a,), push)


def _scale_node_softmax(a, k, axis=-1):
    """The attention's former ad.scale node followed by the frozen softmax."""
    scaled = Tensor(a.data * k, (a,), lambda g: ad._accum(a, g * k))
    return _three_array_softmax(scaled, axis)


def _np_mean_layer_norm(x, gamma, beta, eps=1e-6):
    """layer_norm as autodiff computed it through ndarray.mean, frozen as the bitwise reference."""
    mu = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mu
    var = (centered**2).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat = centered * inv_std

    def push(g):
        reduce_axes = tuple(range(g.ndim - 1))
        ad._accum(gamma, (g * x_hat).sum(axis=reduce_axes))
        ad._accum(beta, g.sum(axis=reduce_axes))
        g_hat = g * gamma.data
        ad._accum(x, inv_std * (
            g_hat - g_hat.mean(axis=-1, keepdims=True) - x_hat * (g_hat * x_hat).mean(axis=-1, keepdims=True)
        ))

    return Tensor(gamma.data * x_hat + beta.data, (x, gamma, beta), push)


def _np_mean_mean(a, axes=None, keepdims=False):
    """mean as autodiff computed it through ndarray.mean, frozen as the bitwise reference."""
    if isinstance(axes, int):
        axes = (axes,)
    count = a.data.size if axes is None else math.prod(a.data.shape[ax] for ax in axes)

    def push(g):
        if not keepdims and axes is not None:
            g = np.expand_dims(g, axes)
        ad._accum(a, np.broadcast_to(g, a.shape) / count)

    return Tensor(a.data.mean(axis=axes, keepdims=keepdims), (a,), push)


def _np_mean_cross_entropy(logits, targets):
    """cross_entropy_mean as autodiff computed it through np.mean, frozen as the bitwise reference."""
    batch = logits.data.shape[0]
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    e = np.exp(z)
    lse = np.log(e.sum(axis=1))
    picked = z[np.arange(batch), targets]

    def push(g):
        probs = e / e.sum(axis=1, keepdims=True)
        probs[np.arange(batch), targets] -= 1.0
        ad._accum(logits, g * probs / batch)

    return Tensor(np.mean(lse - picked), (logits,), push)


def _fresh_bias_linear(x, w, b):
    """linear as autodiff computed it with a fresh bias sum and np.prod, frozen as the bitwise reference."""

    def push(g):
        ad._accum(x, g @ w.data)
        lead = int(np.prod(g.shape[:-1])) if g.ndim > 1 else 1
        g2 = g.reshape(lead, g.shape[-1])
        ad._accum(w, g2.T @ x.data.reshape(lead, x.data.shape[-1]))
        ad._accum(b, g2.sum(axis=0))

    return Tensor(x.data @ w.data.T + b.data, (x, w, b), push)


def _decades(rng, shape, layout="C", decades=(-12, 12)):
    """Normal draws scaled by powers of ten in `decades`, every seventh entry -0.0,
    either C-contiguous ("C") or a view with the last two axes swapped ("T")."""
    stored = tuple(shape) if layout == "C" else tuple(shape[:-2]) + tuple(shape[:-3:-1])
    a = np.asarray(rng.normal(size=stored) * 10.0 ** rng.integers(*decades, size=stored))
    a.ravel()[::7] = -0.0
    return a if layout == "C" else np.swapaxes(a, -1, -2)


def _leaves(*arrays):
    return [Tensor(a, requires_grad=True) for a in arrays]


def assert_same_array(got, ref):
    """Same bits and the same memory layout, which later reductions sum in."""
    assert np.asarray(got).strides == np.asarray(ref).strides
    assert_bits_equal(got, ref)


_LAYOUTS = ("C", "T")


class TestReductionKernels:
    """Each rewritten op against its frozen former self, on C-contiguous and transposed
    inputs and upstream gradients, so a layout change fails here and not only in a pin."""

    # the loso-desk attention scores (B, H, N, N), then odd sizes and a length-1 axis
    @pytest.mark.parametrize("shape", ((2, 4, 64, 64), (3, 5, 7), (2, 3, 1, 9)), ids=str)
    @pytest.mark.parametrize("axis", (-1, 1))
    @pytest.mark.parametrize("k", (None, 1.0 / np.sqrt(8), 0.3), ids=("unscaled", "head8", "k0.3"))
    @pytest.mark.parametrize("x_layout", _LAYOUTS)
    @pytest.mark.parametrize("g_layout", _LAYOUTS)
    def test_softmax_matches_scale_node_chain(self, shape, axis, k, x_layout, g_layout):
        rng = np.random.default_rng(sum(shape) + 7 * axis)
        x = _decades(rng, shape, x_layout, decades=(-8, 3))
        g = _decades(rng, shape, g_layout)
        (a,), (ref_a,) = _leaves(x), _leaves(x)
        if k is None:
            out, ref = ad.softmax(a, axis=axis), _three_array_softmax(ref_a, axis)
        else:
            out, ref = ad.softmax(a, axis=axis, scale=k), _scale_node_softmax(ref_a, k, axis)
        assert_same_array(out.data, ref.data)
        out.backward(g)
        ref.backward(g)
        assert_same_array(a.grad, ref_a.grad)

    @pytest.mark.parametrize("shape", ((2, 64, 32), (3, 5, 7), (4, 1)), ids=str)
    @pytest.mark.parametrize("x_layout", _LAYOUTS)
    @pytest.mark.parametrize("g_layout", _LAYOUTS)
    def test_layer_norm_matches_np_mean_form(self, shape, x_layout, g_layout):
        rng = np.random.default_rng(sum(shape))
        x = _decades(rng, shape, x_layout)
        gamma, beta = rng.normal(size=shape[-1]), rng.normal(size=shape[-1])
        g = _decades(rng, shape, g_layout)
        new, ref = _leaves(x, gamma, beta), _leaves(x, gamma, beta)
        out, ref_out = ad.layer_norm(*new), _np_mean_layer_norm(*ref)
        assert_same_array(out.data, ref_out.data)
        out.backward(g)
        ref_out.backward(g)
        for got, want in zip(new, ref):
            assert_same_array(got.grad, want.grad)

    @pytest.mark.parametrize("axes", (None, 1, (2, 3), (0, 2)), ids=str)
    @pytest.mark.parametrize("keepdims", (False, True))
    @pytest.mark.parametrize("x_layout", _LAYOUTS)
    @pytest.mark.parametrize("g_layout", _LAYOUTS)
    def test_mean_matches_np_mean_form(self, axes, keepdims, x_layout, g_layout):
        rng = np.random.default_rng(3)
        x = _decades(rng, (2, 32, 8, 8), x_layout)
        (a,), (ref_a,) = _leaves(x), _leaves(x)
        out, ref = ad.mean(a, axes=axes, keepdims=keepdims), _np_mean_mean(ref_a, axes=axes, keepdims=keepdims)
        assert_same_array(out.data, ref.data)
        g = _decades(rng, ref.shape, g_layout if ref.ndim >= 2 else "C")
        out.backward(g)
        ref.backward(g)
        assert_same_array(a.grad, ref_a.grad)

    @pytest.mark.parametrize("batch,classes", ((2, 3), (7, 2), (64, 7)))
    @pytest.mark.parametrize("layout", _LAYOUTS)
    def test_cross_entropy_mean_matches_np_mean_form(self, batch, classes, layout):
        rng = np.random.default_rng(batch * classes)
        logits = _decades(rng, (batch, classes), layout, decades=(-8, 4))
        targets = rng.integers(0, classes, size=batch)
        (a,), (ref_a,) = _leaves(logits), _leaves(logits)
        out, ref = ad.cross_entropy_mean(a, targets), _np_mean_cross_entropy(ref_a, targets)
        assert_same_array(out.data, ref.data)
        g = np.asarray(rng.normal())
        out.backward(g)
        ref.backward(g)
        assert_same_array(a.grad, ref_a.grad)

    @pytest.mark.parametrize("shape,x_layout,g_layout", [
        (shape, x_layout, g_layout)
        for shape in ((2, 64, 48), (3, 32), (5,))
        for x_layout in _LAYOUTS
        for g_layout in _LAYOUTS
        if len(shape) > 1 or x_layout == g_layout == "C"  # a vector has no axes to swap
    ], ids=str)
    def test_linear_matches_fresh_bias_form(self, shape, x_layout, g_layout):
        rng = np.random.default_rng(sum(shape))
        x = _decades(rng, shape, x_layout)
        w, b = rng.normal(size=(16, shape[-1])), rng.normal(size=16)
        g = _decades(rng, shape[:-1] + (16,), g_layout)
        new, ref = _leaves(x, w, b), _leaves(x, w, b)
        out, ref_out = ad.linear(*new), _fresh_bias_linear(*ref)
        assert_same_array(out.data, ref_out.data)
        out.backward(g)
        ref_out.backward(g)
        for got, want in zip(new, ref):
            assert_same_array(got.grad, want.grad)


# ---------------------------------------------------------------- optimizer


def _per_parameter_adam(params, grads, state, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam as one loop over the named parameters, kept as the bitwise reference
    for the concatenated-vector update."""
    new_params, new_m, new_v = OrderedDict(), OrderedDict(), OrderedDict()
    t = state.step + 1
    for name in params:
        g = grads[name]
        m = beta1 * state.m[name] + (1 - beta1) * g
        v = beta2 * state.v[name] + (1 - beta2) * g * g
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        new_params[name] = params[name] - lr * m_hat / (np.sqrt(v_hat) + eps)
        new_m[name] = m
        new_v[name] = v
    return ParamSet(new_params), AdamState(step=t, m=ParamSet(new_m), v=ParamSet(new_v))


class TestOptimizer:
    @pytest.mark.parametrize("variant", [Variant.DUAL_MOTION, Variant.MOTION_RGB_PATCH], ids=lambda v: v.value)
    def test_matches_per_parameter_reference_bitwise(self, variant):
        params = init_params(ModelConfig.small(64), variant, seed=4)
        rng = np.random.default_rng(5)
        ref_params, ref_state = params, AdamState.init(params)
        state = AdamState.init(params)
        for step in range(5):
            lr = lr_schedule(step, 1e-3, 0.9)
            # magnitudes over 15 decades, plus 0.0, -0.0 and a near-underflow value
            grads = ParamSet({name: rng.normal(size=t.shape) * 10.0 ** rng.integers(-12, 3, size=t.shape)
                              for name, t in params.tensors.items()})
            grads[list(params)[0]].ravel()[:3] = (0.0, -0.0, 1e-300)
            params, state = optimizer_step(params, grads, state, lr)
            ref_params, ref_state = _per_parameter_adam(ref_params, grads, ref_state, lr)
            assert state.step == ref_state.step == step + 1
            assert list(params) == list(ref_params)
            for name in ref_params:
                assert_bits_equal(params[name], ref_params[name])
                assert_bits_equal(state.m[name], ref_state.m[name])
                assert_bits_equal(state.v[name], ref_state.v[name])

    def test_missing_gradient(self):
        params = ParamSet({"p": np.zeros(2), "q": np.zeros(1)})
        with pytest.raises(ConfigError, match="'q'"):
            optimizer_step(params, ParamSet({"p": np.zeros(2)}), AdamState.init(params), 0.01)

    def test_lr_schedule_values(self):
        assert lr_schedule(0, 1e-3, 0.9) == 0.001
        assert abs(lr_schedule(1, 1e-3, 0.9) - 0.0009) < 1e-15
        assert abs(lr_schedule(5, 1e-3, 0.9) - 0.001 * 0.9**5) < 1e-15

    @pytest.mark.parametrize("gamma", [1.5, 1 + 2**-52, 1e200])
    def test_a_growing_schedule_is_refused(self, gamma):
        with pytest.raises(ConfigError, match="lr_gamma is a per-epoch decay and must be <= 1"):
            TrainConfig(lr_gamma=gamma)

    def test_a_constant_schedule_is_accepted(self):
        config = TrainConfig(epochs=3, base_lr=1e308, lr_gamma=1.0)
        assert [lr_schedule(e, config.base_lr, config.lr_gamma) for e in range(3)] == [1e308] * 3

    def test_first_adam_step_magnitude(self):
        # hand evaluation: m_hat = v_hat = 1 after the first step with g = 1,
        # so the update is lr / (1 + eps) ~ lr against the gradient sign
        params = ParamSet({"p": np.zeros(1)})
        state = AdamState.init(params)
        lr = 0.05
        new_params, new_state = optimizer_step(params, ParamSet({"p": np.ones(1)}), state, lr)
        expected = -lr * 1.0 / (1.0 + 1e-8)
        assert abs(new_params["p"][0] - expected) < 1e-15
        assert new_state.step == 1

    def test_zero_gradient_keeps_params(self):
        params = ParamSet({"p": np.array([1.5, -2.0])})
        state = AdamState.init(params)
        new_params, new_state = optimizer_step(params, ParamSet({"p": np.zeros(2)}), state, 0.01)
        np.testing.assert_array_equal(new_params["p"], params["p"])

    def test_shape_mismatch(self):
        params = ParamSet({"p": np.zeros(2)})
        with pytest.raises(ConfigError):
            optimizer_step(params, ParamSet({"p": np.zeros(3)}), AdamState.init(params), 0.01)

    def test_inputs_unmodified(self):
        params = init_params(ModelConfig.toy(16), Variant.DUAL_MOTION, seed=1)
        rng = np.random.default_rng(2)
        grads = ParamSet({name: rng.normal(size=t.shape) for name, t in params.tensors.items()})
        params, state = optimizer_step(params, grads, AdamState.init(params), 0.01)
        params_before, state_before = params.like(params.flat.copy()), copy.deepcopy(state)
        new_params, _ = optimizer_step(params, grads, state, 0.01)
        assert params.layout == params_before.layout and np.array_equal(params.flat, params_before.flat)
        assert state.step == state_before.step
        for name in params:
            np.testing.assert_array_equal(state.m[name], state_before.m[name])
            np.testing.assert_array_equal(state.v[name], state_before.v[name])
        assert list(new_params) == list(params)


# ---------------------------------------------------------------- training


class TestTrainFold:
    def small_samples(self, n=6, size=16, seed=0):
        rng = np.random.default_rng(seed)
        return [
            TrainSample(
                flow=rng.uniform(0, 1, (3, size, size)),
                rgb=rng.uniform(0, 1, (3, size, size)),
                emotion=i % 3,
                ethnicity=i % 2,
            )
            for i in range(n)
        ]

    def test_bit_deterministic(self):
        config = ModelConfig.toy(16)
        cfg = TrainConfig(epochs=2, batch_size=4)
        samples = self.small_samples()
        p1, h1 = train_fold(samples, config, Variant.DUAL_MOTION, cfg, seed=42)
        p2, h2 = train_fold(samples, config, Variant.DUAL_MOTION, cfg, seed=42)
        assert p1.layout == p2.layout and np.array_equal(p1.flat, p2.flat)
        assert h1 == h2

    def test_history_length(self):
        config = ModelConfig.toy(16)
        cfg = TrainConfig(epochs=15, batch_size=8)
        _, history = train_fold(self.small_samples(), config, Variant.MOTION_ONLY, cfg, seed=1)
        assert len(history) == 15

    def test_empty_split(self):
        with pytest.raises(DataError):
            train_fold([], ModelConfig.toy(16), Variant.MOTION_ONLY, TrainConfig(), seed=0)

    def test_absent_class_trains_without_warning(self):
        # a LOSO training split may lack an emotion class; the fold still trains, silently
        samples = [s for s in self.small_samples() if s.emotion != 2]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, history = train_fold(samples, ModelConfig.toy(16), Variant.MOTION_ONLY, TrainConfig(epochs=2), seed=0)
        assert len(history) == 2 and all(np.isfinite(h.total) for h in history)

    # sha256 of the save_checkpoint bytes after train_fold, computed with the
    # per-parameter Adam loop and the always-push conv2d that the tests keep as
    # references. The matmul bits come from the BLAS build, so another BLAS
    # may give other weights.
    _TRAINED_CHECKPOINT_SHA256 = {
        Variant.DUAL_MOTION: "4829ec74a5b71191462c2ed0d3201f4c7ee4b275a963eeee90e9a54c1d20510b",
        Variant.MOTION_RGB_PATCH: "ee8ab95d4852ca4b0c60843bfa1616464e1cc734d2a3ab8c7e522c7100d3c5ab",
        Variant.MOTION_ONLY: "4afa841fbc2352a0773706db73a51d95e60a0e33a74c81062138ca40926c3da3",
        Variant.MOTION_RGB_CONV: "652380f5b8b80d08213fabe1b83988c6fdcf60da21f557482ece1d0e6214e8fe",
    }

    # sha256 of the trained weights alone, params.flat as <f8 bytes: the file pin above less its header
    _TRAINED_WEIGHTS_SHA256 = {
        Variant.DUAL_MOTION: "d337a3d21b3c32e3bf9f192dfbab7aaa6fd491e63ab905c3ddd90bf646a48e6a",
        Variant.MOTION_RGB_PATCH: "eab98fff9a14ad0e8f7aced546e63d9c6a9137e28f8de96b982912f69e94a0b5",
        Variant.MOTION_ONLY: "a2c11b636eaa41771e7f8250f2ad33553083819c939a029994dd8ac8b33ddad3",
        Variant.MOTION_RGB_CONV: "07fc320a409d7401df84246182d9370984c7b652311ddd040dd1c103460dc308",
    }

    @pytest.mark.parametrize("variant", list(_TRAINED_CHECKPOINT_SHA256), ids=lambda v: v.value)
    def test_trained_checkpoint_bytes_are_pinned(self, variant, tmp_path):
        config = ModelConfig.toy(16)
        params, _ = train_fold(self.small_samples(), config, variant, TrainConfig(epochs=2, batch_size=4), seed=7)
        assert hashlib.sha256(params.flat.astype("<f8").tobytes()).hexdigest() == self._TRAINED_WEIGHTS_SHA256[variant]
        path = tmp_path / "fold.meck"
        save_checkpoint(path, params, config, variant)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self._TRAINED_CHECKPOINT_SHA256[variant]

    # The same pin at the loso-desk shapes: 64 px inputs through ModelConfig.small
    # at the shipped batch size 2, with an odd sample count so the last batch of
    # each epoch holds one sample. Computed with the sliding-window im2col and the
    # per-tap col2im loop that the tests keep as references.
    _BENCH_SHAPE_CHECKPOINT_SHA256 = {
        Variant.DUAL_MOTION: "11f2e9aa4e4bdf72fccceebfe6cc2ec36b90ab0fb96cc236e80679d7556b9875",
        Variant.MOTION_RGB_PATCH: "693374747d9c684695c47ab793c73db92c2bdffd59931d8f2a9ce40d181b40d8",
    }

    _BENCH_SHAPE_WEIGHTS_SHA256 = {
        Variant.DUAL_MOTION: "7be2352ade497883087be4771d86784cc57d5877ac9600cc18ca6bec3cb8635a",
        Variant.MOTION_RGB_PATCH: "c480f7c153823778f6fdcce9d83198fef74c4269997ad223a1b9468ef3c6bae2",
    }

    @pytest.mark.parametrize("variant", list(_BENCH_SHAPE_CHECKPOINT_SHA256), ids=lambda v: v.value)
    def test_trained_checkpoint_bytes_are_pinned_at_benchmark_shapes(self, variant, tmp_path):
        config = ModelConfig.small(64)
        samples = self.small_samples(n=5, size=64, seed=1)
        params, _ = train_fold(samples, config, variant, TrainConfig(epochs=2, batch_size=2), seed=7)
        weights = hashlib.sha256(params.flat.astype("<f8").tobytes()).hexdigest()
        assert weights == self._BENCH_SHAPE_WEIGHTS_SHA256[variant]
        path = tmp_path / "fold.meck"
        save_checkpoint(path, params, config, variant)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self._BENCH_SHAPE_CHECKPOINT_SHA256[variant]

    def test_loss_decreases_on_separable_toy(self):
        rng = np.random.default_rng(3)
        samples = []
        for i in range(12):
            emotion = i % 3
            flow = np.full((3, 16, 16), 0.5)
            flow[emotion] += 0.3  # trivially separable channel offsets
            samples.append(TrainSample(flow=flow, emotion=emotion, ethnicity=i % 2))
        config = ModelConfig.toy(16)
        _, history = train_fold(samples, config, Variant.MOTION_ONLY, TrainConfig(epochs=10, batch_size=4), seed=2)
        assert history[-1].total < history[0].total


# ---------------------------------------------------------------- inference records no graph

_GRAPH_OPS = ("add", "mul", "scale", "matmul", "reshape", "transpose", "concat", "relu", "mean", "softmax",
              "layer_norm", "conv2d", "linear", "cross_entropy_mean")


def spy_op_outputs(monkeypatch) -> list:
    """Record the output Tensor of every autodiff op call."""
    outputs = []
    for op in _GRAPH_OPS:
        real = getattr(ad, op)

        def spy(*args, _real=real, **kwargs):
            outputs.append(_real(*args, **kwargs))
            return outputs[-1]

        monkeypatch.setattr(ad, op, spy)
    return outputs


class TestInferenceRecordsNoGraph:
    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    def test_evaluate_predictions_forward(self, variant, monkeypatch):
        config = ModelConfig.toy(16)
        params = init_params(config, variant, seed=1)
        batch = make_toy_batch(1, n=3)
        expected = evaluate_predictions(params, batch, config, variant)
        outputs = spy_op_outputs(monkeypatch)
        assert np.array_equal(evaluate_predictions(params, batch, config, variant), expected)
        assert len(outputs) > 5
        for out in outputs:
            assert out._push is None and out._parents == () and not out.requires_grad

    def test_extract_frozen_features(self, monkeypatch):
        encoder = FrozenEncoder.random_fallback(EncoderConfig(feature_dim=8, stage_widths=(4, 8)), seed=0)
        x = np.random.default_rng(0).uniform(0, 1, (3, 32, 32))
        expected = extract_frozen_features(x, encoder)
        outputs = spy_op_outputs(monkeypatch)
        assert_bits_equal(extract_frozen_features(x, encoder), expected)
        assert len(outputs) == 6  # two conv2d + relu stages, mean, linear
        for out in outputs:
            assert out._push is None and out._parents == () and not out.requires_grad

    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    def test_evaluate_predictions_refuses_a_diverged_model(self, variant):
        # finite weights of magnitude 1e308 overflow the forward pass into NaN logits
        config = ModelConfig.toy(16)
        params = init_params(config, variant, seed=1)
        diverged = params.like(np.copysign(1e308, params.flat))
        assert np.isfinite(diverged.flat).all()
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DataError, match="logits are not finite"):
                evaluate_predictions(diverged, make_toy_batch(1, n=3), config, variant)

    def test_training_forward_records_the_parameter_graph(self):
        config, params, _, outputs = toy_forward(Variant.DUAL_MOTION)
        assert all(leaf.requires_grad for leaf in outputs.leaves.values())
        assert outputs.fused_logits.requires_grad and outputs.fused_logits._push is not None


# ---------------------------------------------------------------- frozen features


class TestFrozenFeatures:
    def test_fallback_deterministic(self):
        enc_cfg = EncoderConfig(feature_dim=32)
        e1 = FrozenEncoder.random_fallback(enc_cfg, seed=5)
        e2 = FrozenEncoder.random_fallback(enc_cfg, seed=5)
        x = np.random.default_rng(0).uniform(0, 1, (3, 64, 64))
        np.testing.assert_array_equal(extract_frozen_features(x, e1), extract_frozen_features(x, e2))

    def test_float32_flow_gives_the_features_of_its_float64_widening(self):
        encoder = FrozenEncoder.random_fallback(EncoderConfig(feature_dim=32), seed=3)
        x = np.random.default_rng(2).uniform(0, 1, (3, 64, 64)).astype(np.float32)
        assert_bits_equal(extract_frozen_features(x, encoder), extract_frozen_features(x.astype(np.float64), encoder))

    def test_feature_length(self):
        enc_cfg = EncoderConfig(feature_dim=32)
        enc = FrozenEncoder.random_fallback(enc_cfg, seed=1)
        x = np.zeros((3, 64, 64))
        assert extract_frozen_features(x, enc).shape == (32,)

    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    def test_encoder_file_is_the_checkpoint_motion_stack(self, tmp_path, variant):
        config = ModelConfig.small(32, feature_dim=16)
        path = tmp_path / "model.meck"
        save_checkpoint(path, init_params(config, variant, seed=2), config, variant)
        encoder = FrozenEncoder.from_file(path)
        params, _, _ = load_checkpoint(path)
        motion = {name: Tensor(params[name]) for name in params if name.startswith("motion.")}
        assert encoder.config == config.conv and encoder.origin == f"file:{path}"
        assert encoder.params.layout == tuple((name, motion[name].shape) for name in motion)
        x = np.random.default_rng(1).uniform(0, 1, (3, 32, 32))
        expected, _ = encode_conv(Tensor(x[None] - INPUT_CENTER), motion, "motion", config.conv)
        assert_bits_equal(extract_frozen_features(x, encoder), expected.data[0])


# ---------------------------------------------------------------- parameter sets


class TestParamSet:
    def test_tensors_are_read_only_views_of_flat(self):
        params = init_params(ModelConfig.toy(16), Variant.DUAL_MOTION, seed=0)
        with pytest.raises(TypeError):
            params.tensors["head.fusion.b"] = np.zeros(3)
        params["head.fusion.b"][...] = (1.0, 2.0, 3.0)
        assert np.array_equal(params.flat[-3:], [1.0, 2.0, 3.0])
        assert params.tensors is params.tensors

    @pytest.mark.parametrize("flat", [np.zeros(5), np.zeros(6, dtype=np.float32), np.zeros((2, 3))],
                             ids=["wrong-size", "wrong-dtype", "not-a-vector"])
    def test_like_rejects_a_vector_off_the_layout(self, flat):
        params = ParamSet({"a": np.zeros((2, 2)), "b": np.zeros(2)})
        with pytest.raises(ConfigError):
            params.like(flat)

    @pytest.mark.parametrize("round_trip", [copy.deepcopy, lambda p: pickle.loads(pickle.dumps(p))],
                             ids=["deepcopy", "pickle"])
    def test_round_trip_keeps_layout_and_bits(self, round_trip):
        params = init_params(ModelConfig.toy(16), Variant.MOTION_RGB_PATCH, seed=2)
        params.flat[:2] = (-0.0, 1e-300)
        copied = round_trip(params)
        assert copied.layout == params.layout
        assert_bits_equal(copied.flat, params.flat)
        assert list(copied) == list(params)
        assert not np.shares_memory(copied.flat, params.flat)



def _weights_digest(params: ParamSet) -> str:
    return hashlib.sha256(params.flat.astype("<f8").tobytes()).hexdigest()[:16]


class TestTensorTable:
    @pytest.mark.parametrize("config", [ModelConfig.toy(16), ModelConfig.small(64)], ids=["toy16", "small64"])
    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    def test_table_is_the_layout_of_init_params(self, config, variant):
        table = tuple((name, shape) for name, shape, _ in model_tensors(config, variant))
        assert table == init_params(config, variant, seed=0).layout

    @pytest.mark.parametrize(
        "variant, digest",
        [
            (Variant.MOTION_ONLY, "b508a0a817f60c45"),
            (Variant.DUAL_MOTION, "6a133c334ba5959c"),
            (Variant.MOTION_RGB_CONV, "cef70c553be3755d"),
            (Variant.MOTION_RGB_PATCH, "a05d29e038075ec0"),
        ],
        ids=lambda v: getattr(v, "value", v),
    )
    def test_init_weights_are_pinned(self, variant, digest):
        assert _weights_digest(init_params(ModelConfig.small(64), variant, 0)) == digest

    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    def test_tensors_and_forward_follow_the_variant_table(self, variant):
        branch = ETHNIC_BRANCHES[variant]
        config = ModelConfig.toy(16)
        names = [name for name, _, _ in model_tensors(config, variant)]
        stacks = {"conv": ["ethnic"], "patch": ["texture"]}[branch.encoder] if branch else []
        heads = ["emotion", "ethnicity", "fusion"] if branch else ["emotion"]
        assert list(dict.fromkeys(name.split(".")[0] for name in names)) == ["motion", *stacks, "head"]
        assert list(dict.fromkeys(name.split(".")[1] for name in names if name.startswith("head."))) == heads
        assert variant.has_ethnic_branch == (branch is not None)
        assert variant.needs_rgb == (branch is not None and branch.input == "rgb")

        params = init_params(config, variant, seed=0)
        rng = np.random.default_rng(0)
        flow, rgb, other_rgb = rng.uniform(0, 1, (3, 2, 3, 16, 16))
        outputs = forward(ModelInputs(flow=flow, rgb=rgb), params, config, variant)
        if branch is None:
            assert outputs.ethnic_grid is None and outputs.ethnicity_logits is None and outputs.fused_logits is None
            return
        width = config.conv.stage_widths[-1] if branch.encoder == "conv" else config.texture.embed_dim
        assert outputs.ethnic_grid.shape[:2] == (2, width)
        # the ethnic logits read the table's input and no other
        moved = forward(ModelInputs(flow=flow, rgb=other_rgb), params, config, variant).ethnicity_logits.data
        assert np.array_equal(moved, outputs.ethnicity_logits.data) == (branch.input == "flow")
        if branch.input == "rgb":
            with pytest.raises(VariantInputError):
                forward(ModelInputs(flow=flow), params, config, variant)

    def test_frozen_encoder_weights_are_pinned(self):
        assert _weights_digest(FrozenEncoder.random_fallback(EncoderConfig(), seed=0).params) == "473e64594e17f878"


# ---------------------------------------------------------------- checkpoints


def _rewrite_header(path, corrupt):
    """Apply corrupt() to a MECK1 file's header JSON in place, keeping its tensor data."""
    data = path.read_bytes()
    magic, body = data[:6], data[10:]  # b"MECK1\n", then a u32 header length
    (header_len,) = struct.unpack_from("<I", data, 6)
    header = json.loads(body[:header_len])
    corrupt(header)
    header_bytes = json.dumps(header).encode("utf-8")
    path.write_bytes(magic + struct.pack("<I", len(header_bytes)) + header_bytes + body[header_len:])


# The config of ModelConfig.toy(16) as checkpoints wrote it before one conv config built both conv stacks
_TOY16_CONFIG_WITH_TWO_CONV_CONFIGS = {
    "image_size": 16,
    "feature_dim": 4,
    "motion": {"input_channels": 3, "stage_widths": [2, 3], "kernel_size": 3, "downsample": 2, "feature_dim": 4},
    "ethnic_conv": {"input_channels": 3, "stage_widths": [2, 3], "kernel_size": 3, "downsample": 2, "feature_dim": 4},
    "texture": {"patch_size": 8, "embed_dim": 6, "n_blocks": 2, "n_heads": 2, "mlp_ratio": 2.0, "feature_dim": 4,
                "pooling": "mean"},
}


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        config = ModelConfig.toy(16)
        params = init_params(config, Variant.DUAL_MOTION, seed=3)
        path = tmp_path / "model.meck"
        save_checkpoint(path, params, config, Variant.DUAL_MOTION)
        loaded, loaded_config, loaded_variant = load_checkpoint(path)
        assert loaded_variant == Variant.DUAL_MOTION
        assert loaded_config == config
        assert params.layout == loaded.layout and np.array_equal(params.flat, loaded.flat)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 8))
    def test_config_json_round_trip(self, patches_per_side):
        config = ModelConfig.toy(8 * patches_per_side)
        assert from_json_dict(ModelConfig, json.loads(json.dumps(to_json_dict(config)))) == config

    def test_model_checkpoint_bytes_are_pinned(self, tmp_path):
        # fixed tensors, not init_params, so the digest does not depend on numpy's RNG
        params = ParamSet(
            OrderedDict([("motion.proj.w", np.arange(6.0).reshape(2, 3)), ("head.emotion.b", np.arange(3.0))])
        )
        path = tmp_path / "model.meck"
        save_checkpoint(path, params, ModelConfig.toy(16), Variant.DUAL_MOTION)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "925896dd1510f3a62d41ad9a21ed5fe9161c65d843628cac72a0cbd260adfb1e"
        )

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.meck"
        path.write_bytes(b"NOPE" + bytes(100))
        with pytest.raises(DataError):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda h: h.pop("tensors"),
            lambda h: h.pop("config"),
            lambda h: h.pop("variant"),
            lambda h: h["tensors"][0].pop("shape"),
            lambda h: h["config"].pop("image_size"),
            lambda h: h.update(variant="no_such_variant"),
            lambda h: h["tensors"][0].update(shape=[-1, 2]),
            lambda h: h["tensors"][0].update(shape=[1, 2]),
            lambda h: h["tensors"].pop(),
            lambda h: h["config"]["conv"].update(stage_widths="ab"),
            lambda h: h["config"]["conv"].update(stage_widths=[2, "3"]),
            lambda h: h["config"].update(image_size="16"),
            lambda h: h["config"].update(image_size=0),
            lambda h: h["config"]["texture"].update(n_heads=0),
            lambda h: h["config"]["conv"].update(stage_widths=[2, -3]),
            lambda h: h["config"]["conv"].pop("stage_widths"),
            lambda h: h.update(config=_TOY16_CONFIG_WITH_TWO_CONV_CONFIGS),
        ],
        ids=[
            "no-tensors", "no-config", "no-variant", "no-shape", "no-image-size", "unknown-variant",
            "negative-dim", "wrong-shape", "missing-tensor", "stage-widths-string", "stage-width-string",
            "image-size-string", "image-size-0", "n-heads-0", "stage-width-negative", "no-stage-widths",
            "two-conv-configs",
        ],
    )
    def test_malformed_header_is_data_error(self, tmp_path, corrupt):
        path = tmp_path / "model.meck"
        config = ModelConfig.toy(16)
        save_checkpoint(path, init_params(config, Variant.MOTION_ONLY, seed=0), config, Variant.MOTION_ONLY)
        _rewrite_header(path, corrupt)
        with pytest.raises(DataError):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda h: h.pop("config"),
            lambda h: h["config"]["conv"].pop("stage_widths"),
            lambda h: h["config"].update(conv=[4, 8]),
            lambda h: h["tensors"][0].update(shape=[-1, 2]),
            lambda h: h["tensors"][0].update(shape=[1, 2]),
            lambda h: h["config"]["conv"].update(feature_dim=1),
            lambda h: h["config"]["conv"].update(stage_widths=[2, -3]),
        ],
        ids=["no-config", "no-stage-widths", "config-not-object", "negative-dim", "wrong-shape", "feature-dim-1",
             "stage-width-negative"],
    )
    def test_malformed_frozen_encoder_header_is_data_error(self, tmp_path, corrupt):
        # damage to the motion config and tensors, the part of a checkpoint that a frozen encoder keeps
        path = tmp_path / "model.meck"
        config = ModelConfig.toy(16)
        save_checkpoint(path, init_params(config, Variant.DUAL_MOTION, seed=0), config, Variant.DUAL_MOTION)
        _rewrite_header(path, corrupt)
        with pytest.raises(DataError):
            FrozenEncoder.from_file(path)

    def test_frozen_encoder_file_is_not_a_model_checkpoint(self, tmp_path):
        path = tmp_path / "enc.meck"
        write_frozen_encoder_file(path)
        for read in (load_checkpoint, FrozenEncoder.from_file):
            with pytest.raises(ConfigError, match="'frozen_encoder' file, not a model checkpoint"):
                read(path)

    def test_truncated_header_length_is_data_error(self, tmp_path):
        path = tmp_path / "short.meck"
        path.write_bytes(b"MECK1\n\x10\x00")
        with pytest.raises(DataError):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "damage", [lambda data: data[:-8], lambda data: data + data], ids=["truncated-data", "trailing-copy"]
    )
    def test_tensor_data_length_is_checked(self, tmp_path, damage):
        path = tmp_path / "model.meck"
        config = ModelConfig.toy(16)
        save_checkpoint(path, init_params(config, Variant.MOTION_ONLY, seed=0), config, Variant.MOTION_ONLY)
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(DataError, match="bytes of tensor data"):
            load_checkpoint(path)


# ---------------------------------------------------------------- grad-cam


class TestGradCam:
    def bump_input(self, quadrant=(0, 1), size=64):
        """Flow image with a Gaussian bump centered in the given quadrant
        (qx, qy): 0 = low half, 1 = high half."""
        ys, xs = np.meshgrid(np.arange(size, dtype=float), np.arange(size, dtype=float), indexing="ij")
        qx, qy = quadrant
        cx = size * (0.25 + 0.5 * qx)
        cy = size * (0.25 + 0.5 * qy)
        env = np.exp(-((xs - cx) ** 2 + (ys - cy) ** 2) / (2 * (size / 12) ** 2))
        flow = np.stack([0.5 + 0.25 * env, np.full((size, size), 0.5), 0.3 * env])
        return np.clip(flow, 0, 1)

    def test_normalization_invariants(self):
        config = ModelConfig.small(64)
        params = init_params(config, Variant.DUAL_MOTION, seed=0)
        amap = gradcam(params, config, Variant.DUAL_MOTION, ModelInputs(flow=self.bump_input()[None]), 0)
        assert amap.overlay.min() >= 0.0
        assert amap.grid.min() >= 0.0
        assert amap.grid.max() == 1.0 or np.all(amap.grid == 0.0)

    def test_deterministic(self):
        config = ModelConfig.small(64)
        params = init_params(config, Variant.DUAL_MOTION, seed=0)
        inputs = ModelInputs(flow=self.bump_input()[None])
        a = gradcam(params, config, Variant.DUAL_MOTION, inputs, 1)
        b = gradcam(params, config, Variant.DUAL_MOTION, inputs, 1)
        assert np.array_equal(a.overlay, b.overlay)

    def test_bump_quadrant_argmax(self):
        config = ModelConfig.small(64)
        params = init_params(config, Variant.DUAL_MOTION, seed=1)
        lower_left = self.bump_input(quadrant=(0, 1))
        amap = gradcam(params, config, Variant.DUAL_MOTION, ModelInputs(flow=lower_left[None]), 0)
        x, y = amap.argmax_xy
        assert x < 32 and y >= 32, f"argmax at ({x}, {y})"

    @pytest.mark.parametrize("branch", ["emotion", "ethnicity"])
    def test_a_diverged_model_is_refused(self, branch):
        # finite weights of magnitude 1e308 overflow the forward pass into NaN logits
        config = ModelConfig.toy(16)
        params = init_params(config, Variant.DUAL_MOTION, seed=0)
        diverged = params.like(np.copysign(1e308, params.flat))
        inputs = ModelInputs(flow=np.random.default_rng(0).uniform(0, 1, (1, 3, 16, 16)))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DataError, match="logits are not finite"):
                gradcam(diverged, config, Variant.DUAL_MOTION, inputs, 0, branch=branch)

    def test_class_out_of_range(self):
        config = ModelConfig.toy(16)
        params = init_params(config, Variant.MOTION_ONLY, seed=0)
        with pytest.raises(ConfigError):
            gradcam(params, config, Variant.MOTION_ONLY, ModelInputs(flow=np.zeros((1, 3, 16, 16))), 5)

    def test_patch_branch_maps_its_token_grid(self):
        config = ModelConfig.toy(16)
        params = init_params(config, Variant.MOTION_RGB_PATCH, seed=0)
        rng = np.random.default_rng(0)
        inputs = ModelInputs(flow=rng.uniform(0, 1, (1, 3, 16, 16)), rgb=rng.uniform(0, 1, (1, 3, 16, 16)))
        amap = gradcam(params, config, Variant.MOTION_RGB_PATCH, inputs, 0, branch="ethnicity")
        assert amap.grid.shape == (2, 2)  # 16 px in 8 px patches
        assert amap.overlay.shape == (16, 16)
        for values in (amap.grid, amap.overlay):
            assert values.min() >= 0.0 and values.max() <= 1.0
