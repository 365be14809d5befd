"""Named-tensor parameter sets, initialization, and the checkpoint container.

Checkpoint layout (MECK1, little-endian):

    magic "MECK1\\n"
    u32 header length
    header JSON, one of
        model checkpoint: {"config": <ModelConfig>, "variant": ..., "tensors": [...]}
        frozen encoder:   {"kind": "frozen_encoder", "config": <EncoderConfig>, "tensors": [...]}
    where each config is its runutil.to_json_dict form and "tensors" lists
    {"name", "shape"} per tensor
    concatenated row-major float64 tensor data, in header order, and
    nothing after it; this is ParamSet.flat as written
"""

from __future__ import annotations

import json
import math
import struct
from collections import OrderedDict
from collections.abc import Mapping
from functools import cached_property
from itertools import zip_longest
from pathlib import Path
from types import MappingProxyType

import numpy as np

from ..errors import ConfigError, DataError
from ..runutil import atomic_write_bytes, derived_rng, from_json_dict, to_json_dict
from .autodiff import Tensor
from .config import ModelConfig, N_EMOTIONS, N_ETHNICITIES, Variant

_MAGIC = b"MECK1\n"


class ParamSet:
    """Named float64 tensors held as one contiguous vector, `flat`, laid out by
    `layout`, a tuple of (name, shape) pairs in order. `tensors` maps each name
    to a reshaped view of `flat`; it is read-only and built on first use, so a
    set that is only used as a vector never pays for it."""

    def __init__(self, tensors: Mapping[str, np.ndarray]):
        self.flat = np.concatenate([np.ravel(v) for v in tensors.values()], dtype=np.float64)
        self.layout = tuple((name, np.shape(v)) for name, v in tensors.items())

    @classmethod
    def _wrap(cls, flat: np.ndarray, layout: tuple) -> "ParamSet":
        params = cls.__new__(cls)
        params.flat, params.layout = flat, layout
        return params

    def __reduce__(self):  # the cached views do not pickle; they are rebuilt on use
        return ParamSet._wrap, (self.flat, self.layout)

    @cached_property
    def tensors(self) -> Mapping[str, np.ndarray]:
        views, start = {}, 0
        for name, shape in self.layout:
            size = math.prod(shape)
            views[name] = self.flat[start : start + size].reshape(shape)
            start += size
        return MappingProxyType(views)

    def __getitem__(self, name: str) -> np.ndarray:
        return self.tensors[name]

    def __iter__(self):
        return (name for name, _ in self.layout)

    def names(self) -> list[str]:
        return list(self)

    def like(self, flat: np.ndarray) -> "ParamSet":
        """`flat`, a float64 vector of this set's size, in this set's layout."""
        if flat.dtype != np.float64 or flat.shape != self.flat.shape:
            raise ConfigError(f"a {flat.dtype} vector of shape {flat.shape} does not fit layout size {self.flat.size}")
        return ParamSet._wrap(flat, self.layout)

    def copy(self) -> "ParamSet":
        return ParamSet._wrap(self.flat.copy(), self.layout)

    def leaves(self, requires_grad: bool = True) -> dict:
        """One fresh autodiff leaf per parameter, keyed by name; inference passes
        requires_grad=False so the forward records no graph."""
        return {name: Tensor(v, name=name, requires_grad=requires_grad) for name, v in self.tensors.items()}


def check_layout(layout: tuple, reference: tuple) -> None:
    """Raise ConfigError unless `layout` has exactly the reference's (name, shape) pairs, in order."""
    if layout != reference:
        got, expected = next((a, b) for a, b in zip_longest(layout, reference) if a != b)
        raise ConfigError(f"parameter layout mismatch: got {got}, expected {expected}")


def _kaiming(rng: np.random.Generator, shape: tuple, fan_in: int) -> np.ndarray:
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)


def _trunc_normal(rng: np.random.Generator, shape: tuple, std: float = 0.02) -> np.ndarray:
    # clipped at 2 std, the usual cheap truncation for transformer embeddings
    return np.clip(rng.normal(0.0, std, size=shape), -2 * std, 2 * std)


def _conv_stack(out: OrderedDict, rng, prefix: str, cfg) -> None:
    in_ch = cfg.input_channels
    k = cfg.kernel_size
    for i, width in enumerate(cfg.stage_widths):
        out[f"{prefix}.stage{i}.w"] = _kaiming(rng, (width, in_ch, k, k), in_ch * k * k)
        # small positive bias keeps stage pre-activations off the ReLU kink
        out[f"{prefix}.stage{i}.b"] = np.full(width, 0.01)
        in_ch = width
    out[f"{prefix}.proj.w"] = _kaiming(rng, (cfg.feature_dim, in_ch), in_ch)
    out[f"{prefix}.proj.b"] = np.zeros(cfg.feature_dim)


def _patch_stack(out: OrderedDict, rng, prefix: str, cfg, n_patches: int) -> None:
    patch_dim = 3 * cfg.patch_size * cfg.patch_size
    d = cfg.embed_dim
    out[f"{prefix}.embed.w"] = _trunc_normal(rng, (d, patch_dim), std=np.sqrt(1.0 / patch_dim))
    out[f"{prefix}.embed.b"] = np.zeros(d)
    out[f"{prefix}.pos"] = _trunc_normal(rng, (n_patches, d))
    hidden = int(round(cfg.mlp_ratio * d))
    for blk in range(cfg.n_blocks):
        p = f"{prefix}.block{blk}"
        out[f"{p}.ln1.gamma"] = np.ones(d)
        out[f"{p}.ln1.beta"] = np.zeros(d)
        for head_part in ("q", "k", "v", "o"):
            out[f"{p}.attn.{head_part}.w"] = _kaiming(rng, (d, d), d)
            out[f"{p}.attn.{head_part}.b"] = np.zeros(d)
        out[f"{p}.ln2.gamma"] = np.ones(d)
        out[f"{p}.ln2.beta"] = np.zeros(d)
        out[f"{p}.mlp.fc1.w"] = _kaiming(rng, (hidden, d), d)
        out[f"{p}.mlp.fc1.b"] = np.full(hidden, 0.01)
        out[f"{p}.mlp.fc2.w"] = _kaiming(rng, (d, hidden), hidden)
        out[f"{p}.mlp.fc2.b"] = np.zeros(d)
    out[f"{prefix}.norm.gamma"] = np.ones(d)
    out[f"{prefix}.norm.beta"] = np.zeros(d)
    out[f"{prefix}.proj.w"] = _kaiming(rng, (cfg.feature_dim, d), d)
    out[f"{prefix}.proj.b"] = np.zeros(cfg.feature_dim)


def init_params(config: ModelConfig, variant: Variant, seed: int) -> ParamSet:
    """Deterministic initialization from the labeled PRNG stream (PCG64)."""
    config.validate_for(variant)
    rng = derived_rng(seed, "init", variant.value)
    out: OrderedDict[str, np.ndarray] = OrderedDict()
    _conv_stack(out, rng, "motion", config.motion)
    if variant == Variant.DUAL_MOTION or variant == Variant.MOTION_RGB_CONV:
        _conv_stack(out, rng, "ethnic", config.ethnic_conv)
    elif variant == Variant.MOTION_RGB_PATCH:
        _patch_stack(out, rng, "texture", config.texture, config.n_patches)
    e = config.feature_dim
    out["head.emotion.w"] = _kaiming(rng, (N_EMOTIONS, e), e)
    out["head.emotion.b"] = np.zeros(N_EMOTIONS)
    if variant.has_ethnic_branch:
        out["head.ethnicity.w"] = _kaiming(rng, (N_ETHNICITIES, e), e)
        out["head.ethnicity.b"] = np.zeros(N_ETHNICITIES)
        out["head.fusion.w"] = _kaiming(rng, (N_EMOTIONS, 2 * e), 2 * e)
        out["head.fusion.b"] = np.zeros(N_EMOTIONS)
    return ParamSet(out)


def write_meck(path, header: dict, params: ParamSet) -> None:
    """Write params under `header` plus the "tensors" list, in MECK1 layout."""
    header = {**header, "tensors": [{"name": name, "shape": list(shape)} for name, shape in params.layout]}
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    data = params.flat.astype("<f8", copy=False).tobytes()
    atomic_write_bytes(path, b"".join([_MAGIC, struct.pack("<I", len(header_bytes)), header_bytes, data]))


def read_meck(path, decode, reference):
    """Check a MECK1 file's magic, header, layout and length; return
    (decode(header), params). The "tensors" list is read first, so decode
    always sees an object; a KeyError, TypeError or ValueError in parsing
    or in decode, or a layout other than that of reference(decoded), is a
    DataError."""
    data = Path(path).read_bytes()
    if not data.startswith(_MAGIC):
        raise DataError(f"{path}: not a checkpoint (bad magic)")
    off = len(_MAGIC)
    if len(data) < off + 4:
        raise DataError(f"{path}: truncated checkpoint header length")
    (header_len,) = struct.unpack_from("<I", data, off)
    off += 4
    try:
        header = json.loads(data[off : off + header_len].decode("utf-8"))
        layout = tuple((entry["name"], tuple(int(n) for n in entry["shape"])) for entry in header["tensors"])
        decoded = decode(header)
    except (KeyError, TypeError, ValueError) as exc:  # ValueError covers bad UTF-8 and JSON
        raise DataError(f"{path}: malformed checkpoint header: {type(exc).__name__}: {exc}") from exc
    try:
        check_layout(layout, reference(decoded).layout)
    except ConfigError as exc:
        raise DataError(f"{path}: {exc}") from exc
    off += header_len
    nbytes = 8 * sum(math.prod(shape) for _, shape in layout)
    if len(data) - off != nbytes:
        raise DataError(f"{path}: {len(data) - off} bytes of tensor data, the header declares {nbytes}")
    return decoded, ParamSet._wrap(np.frombuffer(data, dtype="<f8", offset=off).astype(np.float64), layout)


def read_config(path, cls, value):
    """from_json_dict(cls, value); a config failing its own checks is a malformed file, a DataError."""
    try:
        return from_json_dict(cls, value)
    except ConfigError as exc:
        raise DataError(f"{path}: invalid config in checkpoint header: {exc}") from exc


def save_checkpoint(path, params: ParamSet, config: ModelConfig, variant: Variant) -> None:
    write_meck(path, {"config": to_json_dict(config), "variant": variant.value}, params)


def load_checkpoint(path) -> tuple[ParamSet, ModelConfig, Variant]:
    def decode(header):
        if "kind" in header:
            raise ConfigError(f"{path}: a {header['kind']!r} file, not a model checkpoint")
        return read_config(path, ModelConfig, header["config"]), Variant(header["variant"])

    (config, variant), params = read_meck(path, decode, lambda decoded: init_params(*decoded, seed=0))
    return params, config, variant
