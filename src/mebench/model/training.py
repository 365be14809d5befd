"""Backward pass, Adam optimizer, learning-rate schedule, and fold training.

Gradients are exact (reverse-mode accumulation through the recorded
graph) and mean-reduced over the batch. Training is bit-deterministic
under a fixed seed and thread configuration: initialization and the
per-epoch shuffle come from labeled PCG64 streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import ConfigError, DataError
from ..runutil import derived_rng
from . import autodiff as ad
from .config import ModelConfig, Variant
from .losses import LossBreakdown
from .network import ModelInputs, forward, predict_emotion
from .params import ParamSet, check_layout, init_params

_EVAL_BATCH = 32  # samples per inference forward in evaluate_predictions
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and denominator floor


class NonFiniteGradientError(DataError):
    pass


@dataclass
class TrainSample:
    """Materialized model input for one clip, held at file precision.

    flow is the OFI file's (3, H, W) float32 planes in [0, 1] (float64 is taken too); forward widens it
    to float64, which is exact. rgb, required for RGB variants, is the apex frame's (3, H, W) samples
    and rgb_maxval its file's maxval: _batch_inputs divides them in float64, so an integer frame
    reaches the model as load_frame's division makes it, and RGB already in [0, 1] keeps the default
    maxval 1 and its bits.
    """

    flow: np.ndarray
    emotion: int
    ethnicity: int
    rgb: Optional[np.ndarray] = None
    key: str = ""
    rgb_maxval: int = 1


def _batch_inputs(batch: list[TrainSample], variant: Variant) -> ModelInputs:
    """The batch's stacked flow, as stored, and its RGB divided by each sample's maxval in float64."""
    flow = np.stack([s.flow for s in batch])
    rgb = None
    if variant.needs_rgb:
        if any(s.rgb is None for s in batch):
            raise DataError(f"variant {variant.value} requires apex RGB frames")
        maxvals = np.array([s.rgb_maxval for s in batch])
        rgb = np.divide(np.stack([s.rgb for s in batch]), maxvals[:, None, None, None], dtype=np.float64)
    return ModelInputs(flow=flow, rgb=rgb)


def batch_loss_graph(
    params: ParamSet, batch: list[TrainSample], config: ModelConfig, variant: Variant
) -> tuple[ad.Tensor, LossBreakdown, dict]:
    """Build the mean-reduced three-term loss over a batch; returns (loss, breakdown, leaves)."""
    outputs = forward(_batch_inputs(batch, variant), params, config, variant)
    emotions = np.array([s.emotion for s in batch])
    l_emo = ad.cross_entropy_mean(outputs.emotion_logits, emotions)
    if variant.has_ethnic_branch:
        ethnicities = np.array([s.ethnicity for s in batch])
        l_ethnic = ad.cross_entropy_mean(outputs.ethnicity_logits, ethnicities)
        l_fusion = ad.cross_entropy_mean(outputs.fused_logits, emotions)
        total = ad.add(ad.add(l_emo, l_ethnic), l_fusion)
        breakdown = LossBreakdown.of(float(l_emo.data), float(l_ethnic.data), float(l_fusion.data))
    else:
        total = l_emo
        breakdown = LossBreakdown.of(float(l_emo.data))
    return total, breakdown, outputs.leaves


def backward(
    params: ParamSet, batch: list[TrainSample], config: ModelConfig, variant: Variant
) -> tuple[ParamSet, LossBreakdown]:
    """Exact gradients of the mean-reduced total loss w.r.t. every parameter,
    in the layout of `params`.

    Parameters with no data path in the variant get exactly-zero gradients.
    """
    if not batch:
        raise DataError("empty batch")
    loss, breakdown, leaves = batch_loss_graph(params, batch, config, variant)
    loss.backward()
    parts = []
    for name, shape in params.layout:
        leaf = leaves.get(name)
        parts.append(np.zeros(math.prod(shape)) if leaf is None or leaf.grad is None else leaf.grad.ravel())
    grads = params.like(np.concatenate(parts))
    if not np.isfinite(grads.flat).all():
        name = next(name for name in grads if not np.isfinite(grads[name]).all())
        raise NonFiniteGradientError(f"non-finite gradient for parameter {name!r}")
    return grads, breakdown


@dataclass
class AdamState:
    """Step count and the first and second moments, in the parameters' layout."""

    step: int
    m: ParamSet
    v: ParamSet

    @classmethod
    def init(cls, params: ParamSet) -> "AdamState":
        return cls(step=0, m=params.like(np.zeros_like(params.flat)), v=params.like(np.zeros_like(params.flat)))


def optimizer_step(params: ParamSet, grads: ParamSet, state: AdamState, lr: float) -> tuple[ParamSet, AdamState]:
    """One Adam update with bias correction; functional (new ParamSet/state).

    Each Adam line runs once over the flat vectors, in place on fresh
    vectors so that each step allocates only five. Every line keeps the
    operands and the evaluation order of (beta1, beta2, eps being
    ADAM_BETA1, ADAM_BETA2, ADAM_EPS)

        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        params - lr * (m / (1 - beta1**t)) / (np.sqrt(v / (1 - beta2**t)) + eps)

    so the result is bit-identical to a per-parameter loop."""
    check_layout(grads.layout, params.layout)
    g = grads.flat
    t = state.step + 1
    m = state.m.flat * ADAM_BETA1
    tmp = np.multiply(g, 1 - ADAM_BETA1)
    m += tmp
    v = state.v.flat * ADAM_BETA2
    np.multiply(g, 1 - ADAM_BETA2, out=tmp)
    tmp *= g
    v += tmp
    np.divide(m, 1 - ADAM_BETA1**t, out=tmp)  # m_hat
    tmp *= lr
    denom = np.divide(v, 1 - ADAM_BETA2**t)   # v_hat
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    tmp /= denom
    return params.like(params.flat - tmp), AdamState(step=t, m=params.like(m), v=params.like(v))


def lr_schedule(epoch: int, base_lr: float, gamma: float) -> float:
    """Exponential per-epoch decay: lr(epoch) = base_lr * gamma**epoch."""
    return base_lr * gamma**epoch


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 15
    batch_size: int = 2
    base_lr: float = 1e-3
    lr_gamma: float = 0.9

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError(f"epochs and batch_size must be >= 1, got {self.epochs} and {self.batch_size}")
        for name in ("base_lr", "lr_gamma"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ConfigError(f"{name} must be finite and > 0, got {value}")
        if self.lr_gamma > 1:  # so no epoch's rate exceeds base_lr
            raise ConfigError(f"lr_gamma is a per-epoch decay and must be <= 1, got {self.lr_gamma}")


def train_fold(
    samples: list[TrainSample],
    config: ModelConfig,
    variant: Variant,
    train_cfg: TrainConfig,
    seed: int,
) -> tuple[ParamSet, list[LossBreakdown]]:
    """Train on one fold's training split; deterministic given the seed."""
    if not samples:
        raise DataError("empty training split")
    params = init_params(config, variant, seed)
    state = AdamState.init(params)
    shuffle_rng = derived_rng(seed, "shuffle", variant.value)
    history: list[LossBreakdown] = []
    n = len(samples)
    for epoch in range(train_cfg.epochs):
        lr = lr_schedule(epoch, train_cfg.base_lr, train_cfg.lr_gamma)
        order = shuffle_rng.permutation(n)
        sums = np.zeros(3)
        for start in range(0, n, train_cfg.batch_size):
            batch = [samples[i] for i in order[start : start + train_cfg.batch_size]]
            grads, breakdown = backward(params, batch, config, variant)
            params, state = optimizer_step(params, grads, state, lr)
            weight = len(batch)
            sums += weight * np.array([breakdown.l_emo, breakdown.l_ethnic, breakdown.l_fusion])
        epoch_means = sums / n
        history.append(LossBreakdown.of(*epoch_means))
    return params, history


def evaluate_predictions(
    params: ParamSet,
    samples: list[TrainSample],
    config: ModelConfig,
    variant: Variant,
) -> np.ndarray:
    """Predicted emotion class per sample (fused head when present)."""
    preds = []
    for start in range(0, len(samples), _EVAL_BATCH):
        batch = samples[start : start + _EVAL_BATCH]
        outputs = forward(_batch_inputs(batch, variant), params, config, variant, requires_grad=False)
        preds.append(predict_emotion(outputs))
    return np.concatenate(preds) if preds else np.array([], dtype=int)
