"""Backward pass, Adam optimizer, learning-rate schedule, and fold training.

Gradients are exact (reverse-mode accumulation through the recorded
graph) and mean-reduced over the batch. Training is bit-deterministic
under a fixed seed and thread configuration: initialization and the
per-epoch shuffle come from labeled PCG64 streams.
"""

from __future__ import annotations

import warnings
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..errors import ConfigError, DataError
from ..runutil import derived_rng
from . import autodiff as ad
from .config import ModelConfig, N_EMOTIONS, Variant
from .losses import LossBreakdown
from .network import ModelInputs, forward, predict_emotion
from .params import GradientSet, ParamSet, init_params


class NonFiniteGradientError(DataError):
    pass


@dataclass
class TrainSample:
    """Materialized model input for one clip."""

    flow: np.ndarray                  # (3, H, W), normalized
    emotion: int
    ethnicity: int
    rgb: Optional[np.ndarray] = None  # (3, H, W), required for RGB variants
    key: str = ""


def _batch_inputs(batch: list[TrainSample], variant: Variant) -> ModelInputs:
    flow = np.stack([s.flow for s in batch])
    rgb = None
    if variant.needs_rgb:
        if any(s.rgb is None for s in batch):
            raise DataError(f"variant {variant.value} requires apex RGB frames")
        rgb = np.stack([s.rgb for s in batch])
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
) -> tuple[GradientSet, LossBreakdown]:
    """Exact gradients of the mean-reduced total loss w.r.t. every parameter.

    Parameters with no data path in the variant get exactly-zero gradients.
    """
    if not batch:
        raise DataError("empty batch")
    loss, breakdown, leaves = batch_loss_graph(params, batch, config, variant)
    loss.backward()
    grads: GradientSet = {}
    for name in params.names():
        leaf = leaves.get(name)
        grads[name] = np.zeros_like(params[name]) if leaf is None or leaf.grad is None else leaf.grad
    if not np.isfinite(_flatten(grads.values())).all():
        name = next(name for name, g in grads.items() if not np.isfinite(g).all())
        raise NonFiniteGradientError(f"non-finite gradient for parameter {name!r}")
    return grads, breakdown


def _flatten(arrays) -> np.ndarray:
    return np.concatenate([a.ravel() for a in arrays])


def _views(flat: np.ndarray, like: ParamSet) -> OrderedDict:
    """Per-name reshaped views of `flat`, laid out in `like`'s order and shapes."""
    views = OrderedDict()
    start = 0
    for name, t in like.tensors.items():
        views[name] = flat[start : start + t.size].reshape(t.shape)
        start += t.size
    return views


@dataclass
class AdamState:
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    @classmethod
    def init(cls, params: ParamSet) -> "AdamState":
        return cls(
            step=0,
            m={k: np.zeros_like(t) for k, t in params.tensors.items()},
            v={k: np.zeros_like(t) for k, t in params.tensors.items()},
        )


def optimizer_step(
    params: ParamSet,
    grads: GradientSet,
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> tuple[ParamSet, AdamState]:
    """One Adam update with bias correction; functional (new ParamSet/state).

    Each Adam line runs once over every parameter concatenated in ParamSet
    order, in place on fresh vectors so that each step allocates only five.
    Every line keeps the operands and the evaluation order of

        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        params - lr * (m / (1 - beta1**t)) / (np.sqrt(v / (1 - beta2**t)) + eps)

    so the result is bit-identical to a per-parameter loop. The returned
    per-name arrays are views of the new vectors."""
    names = params.names()
    for name in names:
        if name not in grads:
            raise ConfigError(f"gradient missing for parameter {name!r}")
        g = grads[name]
        if g.shape != params[name].shape:
            raise ConfigError(f"gradient shape {g.shape} != param shape {params[name].shape} for {name!r}")
    g = _flatten(grads[name] for name in names)
    t = state.step + 1
    m = _flatten(state.m[name] for name in names)
    m *= beta1
    tmp = np.multiply(g, 1 - beta1)
    m += tmp
    v = _flatten(state.v[name] for name in names)
    v *= beta2
    np.multiply(g, 1 - beta2, out=tmp)
    tmp *= g
    v += tmp
    np.divide(m, 1 - beta1**t, out=tmp)  # m_hat
    tmp *= lr
    np.divide(v, 1 - beta2**t, out=g)    # v_hat; g is not read again
    np.sqrt(g, out=g)
    g += eps
    tmp /= g
    new = _flatten(params.tensors.values())
    new -= tmp
    return ParamSet(_views(new, params)), AdamState(step=t, m=_views(m, params), v=_views(v, params))


def lr_schedule(epoch: int, base_lr: float = 1e-3, gamma: float = 0.9) -> float:
    """Exponential per-epoch decay: lr(epoch) = base_lr * gamma**epoch."""
    return base_lr * gamma**epoch


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 15
    batch_size: int = 32
    base_lr: float = 1e-3
    lr_gamma: float = 0.9

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError(f"epochs and batch_size must be >= 1, got {self.epochs} and {self.batch_size}")
        for name in ("base_lr", "lr_gamma"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ConfigError(f"{name} must be finite and > 0, got {value}")


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
    present = {s.emotion for s in samples}
    if len(present) < N_EMOTIONS:
        warnings.warn(
            f"training split covers only emotion classes {sorted(present)}; "
            "LOSO folds can lack a class",
            stacklevel=2,
        )
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
    batch_size: int = 32,
) -> np.ndarray:
    """Predicted emotion class per sample (fused head when present)."""
    preds = []
    for start in range(0, len(samples), batch_size):
        batch = samples[start : start + batch_size]
        outputs = forward(_batch_inputs(batch, variant), params, config, variant, requires_grad=False)
        preds.append(predict_emotion(outputs))
    return np.concatenate(preds) if preds else np.array([], dtype=int)
