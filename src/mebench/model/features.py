"""Frozen feature extraction for the prima facie study.

A frozen encoder is a staged conv encoder with fixed weights: either the
motion stack of a model checkpoint (of any variant, e.g. a full-data
model trained on another corpus) or drawn once from a seeded PCG64
stream (the deterministic random-feature fallback; PCG64 is
platform-stable, so features match across runs and machines).
Extraction is a pure function of the input.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError
from ..runutil import derived_rng
from .autodiff import Tensor
from .config import EncoderConfig
from .network import INPUT_CENTER, encode_conv
from .params import ParamSet, _conv_stack, draw_params, load_checkpoint


class FrozenEncoder:
    """Fixed-weight conv encoder; no gradient state."""

    def __init__(self, config: EncoderConfig, params: ParamSet, origin: str):
        self.config = config
        self.params = params
        self.origin = origin

    @classmethod
    def random_fallback(cls, config: EncoderConfig, seed: int) -> "FrozenEncoder":
        params = draw_params(_conv_stack("motion", config), derived_rng(seed, "frozen-encoder"))
        return cls(config, params, origin=f"random-fallback(seed={seed})")

    @classmethod
    def from_file(cls, path) -> "FrozenEncoder":
        """The motion stack of the model checkpoint at path."""
        params, config, _ = load_checkpoint(path)
        motion = ParamSet({name: v for name, v in params.tensors.items() if name.startswith("motion.")})
        return cls(config.conv, motion, origin=f"file:{path}")


def extract_frozen_features(flow_image: np.ndarray, encoder: FrozenEncoder) -> np.ndarray:
    """Length-E feature vector; pure function of (input, encoder weights). A float32 flow image is
    widened to float64 as it is centered, so its features are those of its float64 widening."""
    x = np.asarray(flow_image)
    if x.ndim != 3:
        raise ConfigError(f"expected a (3, H, W) flow image, got shape {x.shape}")
    leaves = encoder.params.leaves(requires_grad=False)
    centered = np.subtract(x[None], INPUT_CENTER, dtype=np.float64)
    feat, _ = encode_conv(Tensor(centered), leaves, "motion", encoder.config)
    return feat.data[0]
