"""Forward pass of the dual-branch fusion network that model/config.py lays out.

Every encoder returns (features, final grid): a conv map, or the final
tokens laid out on the patch grid, so Grad-CAM treats all branches
alike. Branch features go through per-task affine heads; the fused head
sees the concatenation (emotion first, then ethnicity).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import ConfigError, DataError
from . import autodiff as ad
from .autodiff import Tensor
from .config import (
    CONV_KERNEL, CONV_STRIDE, ETHNIC_BRANCHES, IN_CHANNELS, EncoderConfig, ModelConfig, PatchEncoderConfig, Variant
)
from .params import ParamSet


class VariantInputError(DataError):
    """Sample does not provide the inputs the variant needs."""


# Inputs arrive normalized to [0, 1]; encoders see them centered at zero so
# the constant background does not dominate pooled features.
INPUT_CENTER = 0.5


@dataclass
class ModelInputs:
    """Batched inputs in [0, 1]: flow (B, 3, H, W), float32 as the OFI files store it or float64;
    rgb (B, 3, H, W) float64 for RGB variants. forward widens flow to float64 as it centers it."""

    flow: np.ndarray
    rgb: Optional[np.ndarray] = None


@dataclass
class ModelOutputs:
    emotion_logits: Tensor
    ethnicity_logits: Optional[Tensor]
    fused_logits: Optional[Tensor]
    motion_grid: Tensor
    ethnic_grid: Optional[Tensor]
    leaves: dict  # parameter name -> leaf Tensor; backward() reads the gradients here


def encode_conv(x: Tensor, leaves: dict, prefix: str, cfg: EncoderConfig) -> tuple[Tensor, Tensor]:
    """Staged conv encoder; returns (features (B, E), final grid (B, F, h, w))."""
    if x.shape[1] != IN_CHANNELS:
        raise ConfigError(f"{prefix}: expected {IN_CHANNELS} input channels, got {x.shape[1]}")
    grid = x
    for i in range(len(cfg.stage_widths)):
        w, b = leaves[f"{prefix}.stage{i}.w"], leaves[f"{prefix}.stage{i}.b"]
        grid = ad.relu(ad.conv2d(grid, w, b, stride=CONV_STRIDE, pad=CONV_KERNEL // 2))
    pooled = ad.mean(grid, axes=(2, 3))  # global average over the final feature grid
    feat = ad.linear(pooled, leaves[f"{prefix}.proj.w"], leaves[f"{prefix}.proj.b"])
    return feat, grid


def _attention_block(x: Tensor, leaves: dict, prefix: str, cfg: PatchEncoderConfig) -> Tensor:
    batch, n, d = x.shape
    heads = cfg.n_heads
    head_dim = d // heads

    normed = ad.layer_norm(x, leaves[f"{prefix}.ln1.gamma"], leaves[f"{prefix}.ln1.beta"])

    def split_heads(t: Tensor) -> Tensor:
        t = ad.reshape(t, (batch, n, heads, head_dim))
        return ad.transpose(t, (0, 2, 1, 3))  # (B, H, N, dh)

    q = split_heads(ad.linear(normed, leaves[f"{prefix}.attn.q.w"], leaves[f"{prefix}.attn.q.b"]))
    k = split_heads(ad.linear(normed, leaves[f"{prefix}.attn.k.w"], leaves[f"{prefix}.attn.k.b"]))
    v = split_heads(ad.linear(normed, leaves[f"{prefix}.attn.v.w"], leaves[f"{prefix}.attn.v.b"]))

    scores = ad.matmul(q, ad.transpose(k, (0, 1, 3, 2)))
    probs = ad.softmax(scores, axis=-1, scale=1.0 / np.sqrt(head_dim))
    mixed = ad.matmul(probs, v)  # (B, H, N, dh)
    mixed = ad.reshape(ad.transpose(mixed, (0, 2, 1, 3)), (batch, n, d))
    attn_out = ad.linear(mixed, leaves[f"{prefix}.attn.o.w"], leaves[f"{prefix}.attn.o.b"])
    x = ad.add(x, attn_out)

    normed2 = ad.layer_norm(x, leaves[f"{prefix}.ln2.gamma"], leaves[f"{prefix}.ln2.beta"])
    hidden = ad.relu(ad.linear(normed2, leaves[f"{prefix}.mlp.fc1.w"], leaves[f"{prefix}.mlp.fc1.b"]))
    mlp_out = ad.linear(hidden, leaves[f"{prefix}.mlp.fc2.w"], leaves[f"{prefix}.mlp.fc2.b"])
    return ad.add(x, mlp_out)


def encode_patches(x: Tensor, leaves: dict, prefix: str, cfg: PatchEncoderConfig) -> tuple[Tensor, Tensor]:
    """Patchify -> embed (+positions) -> attention blocks -> mean pool -> project;
    returns (features (B, E), final token grid (B, D, gh, gw))."""
    batch, chans, h, w = x.shape
    p = cfg.patch_size
    gh, gw = h // p, w // p  # forward checked that p divides the side
    n = gh * gw
    patches = ad.reshape(x, (batch, chans, gh, p, gw, p))
    patches = ad.transpose(patches, (0, 2, 4, 1, 3, 5))
    patches = ad.reshape(patches, (batch, n, chans * p * p))

    tokens = ad.linear(patches, leaves[f"{prefix}.embed.w"], leaves[f"{prefix}.embed.b"])
    tokens = ad.add(tokens, leaves[f"{prefix}.pos"])
    for blk in range(cfg.n_blocks):
        tokens = _attention_block(tokens, leaves, f"{prefix}.block{blk}", cfg)
    tokens = ad.layer_norm(tokens, leaves[f"{prefix}.norm.gamma"], leaves[f"{prefix}.norm.beta"])
    grid = ad.reshape(ad.transpose(tokens, (0, 2, 1)), (batch, -1, gh, gw))
    pooled = ad.mean(grid, axes=(2, 3))  # pooled through the grid, so Grad-CAM's grid gets a gradient
    feat = ad.linear(pooled, leaves[f"{prefix}.proj.w"], leaves[f"{prefix}.proj.b"])
    return feat, grid


def fuse_features(f_emotion: Tensor, f_ethnic: Tensor, leaves: dict) -> Tensor:
    """Concatenate (emotion, ethnicity) and apply the fused affine head."""
    merged = ad.concat([f_emotion, f_ethnic], axis=-1)
    return ad.linear(merged, leaves["head.fusion.w"], leaves["head.fusion.b"])


def forward(
    inputs: ModelInputs, params: ParamSet, config: ModelConfig, variant: Variant, requires_grad: bool = True
) -> ModelOutputs:
    """Run one batch; motion_only emits emotion logits only. With requires_grad=False
    the parameter leaves need no gradient, so the pass records no graph."""
    config.validate_for(variant)
    flow = np.asarray(inputs.flow)
    side = config.image_size
    if flow.ndim != 4 or flow.shape[1:] != (3, side, side):
        raise DataError(f"flow input must be (B, 3, {side}, {side}) for image_size {side}, got {flow.shape}")
    leaves = params.leaves(requires_grad)

    flow = np.subtract(flow, INPUT_CENTER, dtype=np.float64)
    f_emotion, motion_grid = encode_conv(Tensor(flow), leaves, "motion", config.conv)
    emotion_logits = ad.linear(f_emotion, leaves["head.emotion.w"], leaves["head.emotion.b"])

    branch = ETHNIC_BRANCHES[variant]
    if branch is None:
        return ModelOutputs(emotion_logits, None, None, motion_grid, None, leaves)

    x = flow
    if branch.input == "rgb":
        if inputs.rgb is None:
            raise VariantInputError(f"variant {variant.value} requires an apex RGB frame")
        x = np.asarray(inputs.rgb, dtype=np.float64) - INPUT_CENTER
        if x.shape != flow.shape:
            raise DataError(f"rgb shape {x.shape} != flow shape {flow.shape}")
    if branch.encoder == "conv":
        f_ethnic, ethnic_grid = encode_conv(Tensor(x), leaves, "ethnic", config.conv)
    else:
        f_ethnic, ethnic_grid = encode_patches(Tensor(x), leaves, "texture", config.texture)

    ethnicity_logits = ad.linear(f_ethnic, leaves["head.ethnicity.w"], leaves["head.ethnicity.b"])
    fused_logits = fuse_features(f_emotion, f_ethnic, leaves)
    return ModelOutputs(emotion_logits, ethnicity_logits, fused_logits, motion_grid, ethnic_grid, leaves)


def finite_logits(logits: Tensor) -> np.ndarray:
    """The logits' values; a non-finite one, the mark of a model whose training diverged, is a DataError."""
    if not np.isfinite(logits.data).all():
        raise DataError("the model's logits are not finite: its training diverged")
    return logits.data


def predict_emotion(outputs: ModelOutputs) -> np.ndarray:
    """Per-sample predicted emotion class: fused head when present, else emotion head."""
    head = outputs.fused_logits if outputs.fused_logits is not None else outputs.emotion_logits
    return np.argmax(finite_logits(head), axis=1)
