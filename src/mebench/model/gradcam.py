"""Gradient-weighted class activation maps over each branch's final grid,
a conv map or a patch-token grid.

Channel weights are the spatial means of the class-score gradient at
that grid; the map is the rectified weighted sum, normalized so its
maximum is 1 (unless identically zero), then bilinearly upsampled to
input resolution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, DataError
from ..flowcore.hornschunck import bilinear_resize
from .config import ModelConfig, Variant
from .network import ModelInputs, finite_logits, forward
from .params import ParamSet

BRANCHES = ("emotion", "ethnicity", "fusion")


@dataclass(frozen=True)
class ActivationMap:
    grid: np.ndarray       # (h, w) attribution at grid resolution, in [0, 1]
    overlay: np.ndarray    # (H, W) upsampled to input resolution, in [0, 1]
    target_class: int
    branch: str

    @property
    def argmax_xy(self) -> tuple[int, int]:
        """(x, y) of the overlay maximum, in input pixel coordinates."""
        flat = int(np.argmax(self.overlay))
        y, x = np.unravel_index(flat, self.overlay.shape)
        return (int(x), int(y))


def gradcam(
    params: ParamSet,
    config: ModelConfig,
    variant: Variant,
    inputs: ModelInputs,
    target_class: int,
    branch: str = "emotion",
) -> ActivationMap:
    """Attribution map for one sample (batch of one)."""
    if branch not in BRANCHES:
        raise ConfigError(f"branch must be one of {BRANCHES}")
    outputs = forward(inputs, params, config, variant)

    if branch == "emotion":
        logits, grid = outputs.emotion_logits, outputs.motion_grid
    elif branch == "fusion":
        if outputs.fused_logits is None:
            raise ConfigError(f"variant {variant.value} has no fusion head")
        logits, grid = outputs.fused_logits, outputs.motion_grid
    else:
        if outputs.ethnicity_logits is None:
            raise ConfigError(f"variant {variant.value} has no ethnic branch")
        logits, grid = outputs.ethnicity_logits, outputs.ethnic_grid

    n_classes = finite_logits(logits).shape[-1]
    if not (0 <= target_class < n_classes):
        raise ConfigError(f"target class {target_class} out of range for {n_classes} classes")

    # seed the backward pass from the selected class score
    seed = np.zeros_like(logits.data)
    seed[0, target_class] = 1.0
    logits.backward(seed)

    grads = grid.grad
    if grads is None:
        raise DataError("no gradient reached the branch grid")
    weights = grads[0].mean(axis=(1, 2))                     # (F,)
    cam = np.maximum((weights[:, None, None] * grid.data[0]).sum(axis=0), 0.0)
    peak = cam.max()
    if peak > 0:
        cam = cam / peak
    h, w = inputs.flow.shape[-2:]
    overlay = np.clip(bilinear_resize(cam, h, w), 0.0, 1.0)
    return ActivationMap(grid=cam, overlay=overlay, target_class=target_class, branch=branch)
