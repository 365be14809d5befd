"""Model configuration for the dual-branch fusion network.

Two branch families share the prediction heads: a small staged
convolutional encoder (motion, and optionally ethnic context from flow
or RGB) and a patch-based transformer encoder (ethnic context from RGB
texture). Branches never share weights.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import NamedTuple

from ..errors import ConfigError

# Canonical class orders: head outputs, label indices, confusion rows and reports.
EMOTION_CLASSES = ("Negative", "Positive", "Surprise")
ETHNICITY_CLASSES = ("Asian", "NonAsian")
N_EMOTIONS = len(EMOTION_CLASSES)
N_ETHNICITIES = len(ETHNICITY_CLASSES)


# Fixed by the architecture: every encoder input (flow image or apex RGB frame) has
# IN_CHANNELS channels, every conv stage is a CONV_KERNEL-square conv of stride
# CONV_STRIDE padded by CONV_KERNEL // 2, a transformer block's MLP is MLP_RATIO *
# embed_dim wide, and every encoder mean-pools its final grid.
IN_CHANNELS, CONV_KERNEL, CONV_STRIDE, MLP_RATIO = 3, 3, 2, 2


class Variant(enum.Enum):
    """Benchmark rows: which branch feeds the ethnic context, if any (see ETHNIC_BRANCHES)."""

    MOTION_ONLY = "motion_only"
    DUAL_MOTION = "dual_motion"
    MOTION_RGB_CONV = "motion_plus_rgb_conv"
    MOTION_RGB_PATCH = "motion_plus_rgb_patch"

    @property
    def has_ethnic_branch(self) -> bool:
        return ETHNIC_BRANCHES[self] is not None

    @property
    def needs_rgb(self) -> bool:
        return self.has_ethnic_branch and ETHNIC_BRANCHES[self].input == "rgb"

    @property
    def ethnicity_representation(self) -> str:
        branch = ETHNIC_BRANCHES[self]
        return "N/A" if branch is None else {"flow": "Optical Flow", "rgb": "RGB Texture"}[branch.input]


class EthnicBranch(NamedTuple):
    input: str  # "flow", the motion branch's flow image, or "rgb", the apex RGB frame
    encoder: str  # "conv", a ModelConfig.conv stack ("ethnic.*"), or "patch", ModelConfig.texture ("texture.*")


# The one variant table: each variant's ethnic-context branch, or None.
ETHNIC_BRANCHES = {
    Variant.MOTION_ONLY: None,
    Variant.DUAL_MOTION: EthnicBranch("flow", "conv"),
    Variant.MOTION_RGB_CONV: EthnicBranch("rgb", "conv"),
    Variant.MOTION_RGB_PATCH: EthnicBranch("rgb", "patch"),
}


@dataclass(frozen=True)
class EncoderConfig:
    """Staged conv encoder: a strided conv + ReLU per stage, then global
    average pooling and a projection to feature_dim."""

    stage_widths: tuple[int, ...] = (8, 16, 32)
    feature_dim: int = 32

    def __post_init__(self):
        if self.feature_dim < 2:
            raise ConfigError("feature_dim must be >= 2")
        if not self.stage_widths or min(self.stage_widths) < 1:
            raise ConfigError("need at least one stage, and stage widths must be >= 1")


@dataclass(frozen=True)
class PatchEncoderConfig:
    """Patch transformer: linear patch embedding + positional term,
    pre-LN self-attention blocks, mean pooling over patches."""

    patch_size: int = 8
    embed_dim: int = 32
    n_blocks: int = 2
    n_heads: int = 4

    def __post_init__(self):
        if min(self.patch_size, self.embed_dim, self.n_heads, self.n_blocks) < 1:
            raise ConfigError("patch_size, embed_dim, n_heads and n_blocks must be >= 1")
        if self.embed_dim % self.n_heads != 0:
            raise ConfigError("embed_dim must be divisible by n_heads")


@dataclass(frozen=True)
class ModelConfig:
    """One conv config builds the motion stack and a conv ethnic stack; its
    feature_dim is every branch's feature width, the texture projection's too."""

    image_size: int = 64
    conv: EncoderConfig = field(default_factory=EncoderConfig)
    texture: PatchEncoderConfig = field(default_factory=PatchEncoderConfig)

    def __post_init__(self):
        if self.image_size < 1:
            raise ConfigError(f"image_size must be >= 1, got {self.image_size}")

    @property
    def feature_dim(self) -> int:
        return self.conv.feature_dim

    def validate_for(self, variant: Variant) -> None:
        patches = variant.has_ethnic_branch and ETHNIC_BRANCHES[variant].encoder == "patch"
        if patches and self.image_size % self.texture.patch_size != 0:
            raise ConfigError(f"image side {self.image_size} not divisible by patch size {self.texture.patch_size}")

    @classmethod
    def small(cls, image_size: int = 64, feature_dim: int = 32) -> "ModelConfig":
        """Desk-scale default used by the CLI and tests."""
        return cls(image_size=image_size, conv=EncoderConfig(feature_dim=feature_dim))

    @classmethod
    def toy(cls, image_size: int = 16) -> "ModelConfig":
        """Tiny configuration for finite-difference gradient checks."""
        return cls(
            image_size=image_size,
            conv=EncoderConfig(stage_widths=(2, 3), feature_dim=4),
            texture=PatchEncoderConfig(patch_size=8, embed_dim=6, n_blocks=2, n_heads=2),
        )
