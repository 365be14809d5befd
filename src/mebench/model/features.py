"""Frozen feature extraction for the prima facie study.

A frozen encoder is a staged conv encoder with fixed weights: either
loaded from a checkpoint file (for users holding pretrained weights) or
drawn once from a seeded PCG64 stream (the deterministic random-feature
fallback; PCG64 is platform-stable, so features match across runs and
machines). Extraction is a pure function of the input.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError
from ..runutil import derived_rng, to_json_dict
from .autodiff import Tensor
from .config import EncoderConfig
from .network import INPUT_CENTER, encode_conv
from .params import ParamSet, _conv_stack, draw_params, read_config, read_meck, write_meck

_KIND = "frozen_encoder"  # the MECK1 header "kind" of a frozen-encoder file


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
        def decode(header):
            if header.get("kind") != _KIND:
                raise ConfigError(f"{path}: not a frozen-encoder checkpoint")
            config = read_config(path, EncoderConfig, header["config"])
            return config, _conv_stack("motion", config)

        config, params = read_meck(path, decode)
        return cls(config, params, origin=f"file:{path}")

    def save(self, path) -> None:
        write_meck(path, {"kind": _KIND, "config": to_json_dict(self.config)}, self.params)


def extract_frozen_features(flow_image: np.ndarray, encoder: FrozenEncoder) -> np.ndarray:
    """Length-E feature vector; pure function of (input, encoder weights)."""
    x = np.asarray(flow_image, dtype=np.float64)
    if x.ndim != 3:
        raise ConfigError(f"expected a (3, H, W) flow image, got shape {x.shape}")
    leaves = encoder.params.leaves(requires_grad=False)
    feat, _ = encode_conv(Tensor(x[None] - INPUT_CENTER), leaves, "motion", encoder.config)
    return feat.data[0]
