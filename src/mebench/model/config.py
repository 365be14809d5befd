"""Model configuration for the dual-branch fusion network.

Two branch families share the prediction heads: a small staged
convolutional encoder (motion, and optionally ethnic context from flow
or RGB) and a patch-based transformer encoder (ethnic context from RGB
texture). Branches never share weights.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from ..errors import ConfigError

# Canonical class orders: head outputs, label indices, confusion rows and reports.
EMOTION_CLASSES = ("Negative", "Positive", "Surprise")
ETHNICITY_CLASSES = ("Asian", "NonAsian")
N_EMOTIONS = len(EMOTION_CLASSES)
N_ETHNICITIES = len(ETHNICITY_CLASSES)


class Variant(enum.Enum):
    """Benchmark rows: which branch feeds the ethnic context, if any."""

    MOTION_ONLY = "motion_only"
    DUAL_MOTION = "dual_motion"
    MOTION_RGB_CONV = "motion_plus_rgb_conv"
    MOTION_RGB_PATCH = "motion_plus_rgb_patch"

    @property
    def has_ethnic_branch(self) -> bool:
        return self is not Variant.MOTION_ONLY

    @property
    def needs_rgb(self) -> bool:
        return self in (Variant.MOTION_RGB_CONV, Variant.MOTION_RGB_PATCH)

    @property
    def ethnicity_representation(self) -> str:
        return {
            Variant.MOTION_ONLY: "N/A",
            Variant.DUAL_MOTION: "Optical Flow",
            Variant.MOTION_RGB_CONV: "RGB Texture",
            Variant.MOTION_RGB_PATCH: "RGB Texture",
        }[self]


@dataclass(frozen=True)
class EncoderConfig:
    """Staged conv encoder: conv(stride=downsample) + ReLU per stage,
    then global average pooling and a projection to feature_dim."""

    input_channels: int = 3
    stage_widths: tuple[int, ...] = (8, 16, 32)
    kernel_size: int = 3
    downsample: int = 2
    feature_dim: int = 32

    def __post_init__(self):
        if self.feature_dim < 2:
            raise ConfigError("feature_dim must be >= 2")
        if not self.stage_widths or min(self.input_channels, self.downsample, *self.stage_widths) < 1:
            raise ConfigError("need at least one stage; input_channels, downsample and stage widths must be >= 1")
        if self.kernel_size < 1 or self.kernel_size % 2 != 1:
            raise ConfigError("kernel_size must be odd and >= 1")


@dataclass(frozen=True)
class PatchEncoderConfig:
    """Patch transformer: linear patch embedding + positional term,
    pre-LN self-attention blocks, mean pooling over patches."""

    patch_size: int = 8
    embed_dim: int = 32
    n_blocks: int = 2
    n_heads: int = 4
    mlp_ratio: float = 2.0
    feature_dim: int = 32
    pooling: str = "mean"

    def __post_init__(self):
        if min(self.patch_size, self.embed_dim, self.n_heads, self.n_blocks) < 1:
            raise ConfigError("patch_size, embed_dim, n_heads and n_blocks must be >= 1")
        if self.embed_dim % self.n_heads != 0:
            raise ConfigError("embed_dim must be divisible by n_heads")
        if not (math.isfinite(self.mlp_ratio) and round(self.mlp_ratio * self.embed_dim) >= 1):
            raise ConfigError(f"mlp_ratio {self.mlp_ratio} gives no MLP width for embed_dim {self.embed_dim}")
        if self.pooling != "mean":
            raise ConfigError("only mean pooling is supported")


@dataclass(frozen=True)
class ModelConfig:
    image_size: int = 64
    feature_dim: int = 32
    motion: EncoderConfig = field(default_factory=EncoderConfig)
    ethnic_conv: EncoderConfig = field(default_factory=EncoderConfig)
    texture: PatchEncoderConfig = field(default_factory=PatchEncoderConfig)

    def __post_init__(self):
        if self.image_size < 1:
            raise ConfigError(f"image_size must be >= 1, got {self.image_size}")
        for name, enc_dim in (
            ("motion", self.motion.feature_dim),
            ("ethnic_conv", self.ethnic_conv.feature_dim),
            ("texture", self.texture.feature_dim),
        ):
            if enc_dim != self.feature_dim:
                raise ConfigError(f"{name}.feature_dim {enc_dim} != model feature_dim {self.feature_dim}")

    def validate_for(self, variant: Variant) -> None:
        if variant == Variant.MOTION_RGB_PATCH and self.image_size % self.texture.patch_size != 0:
            raise ConfigError(
                f"image side {self.image_size} not divisible by patch size {self.texture.patch_size}"
            )

    @property
    def n_patches(self) -> int:
        return (self.image_size // self.texture.patch_size) ** 2

    @classmethod
    def small(cls, image_size: int = 64, feature_dim: int = 32) -> "ModelConfig":
        """Desk-scale default used by the CLI and tests."""
        return cls(
            image_size=image_size,
            feature_dim=feature_dim,
            motion=EncoderConfig(feature_dim=feature_dim),
            ethnic_conv=EncoderConfig(feature_dim=feature_dim),
            texture=PatchEncoderConfig(feature_dim=feature_dim),
        )

    @classmethod
    def toy(cls, image_size: int = 16) -> "ModelConfig":
        """Tiny configuration for finite-difference gradient checks."""
        return cls(
            image_size=image_size,
            feature_dim=4,
            motion=EncoderConfig(stage_widths=(2, 3), feature_dim=4),
            ethnic_conv=EncoderConfig(stage_widths=(2, 3), feature_dim=4),
            texture=PatchEncoderConfig(patch_size=8, embed_dim=6, n_blocks=2, n_heads=2, feature_dim=4),
        )
