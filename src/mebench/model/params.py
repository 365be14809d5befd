"""Named-tensor parameter sets, initialization, and the checkpoint container.

A parameter layout is a pure function of a config: its tensor table of
(name, shape, init) rows, which initialization and the checkpoint reader
read. So a file's layout is a function of its header's config.

Checkpoint layout (MECK1, little-endian):

    magic "MECK1\\n"
    u32 header length
    header JSON {"config": <ModelConfig>, "variant": ..., "tensors": [...]},
    where the config is its runutil.to_json_dict form and "tensors" lists
    {"name", "shape"} per tensor
    concatenated row-major float64 tensor data, in header order, and
    nothing after it; this is ParamSet.flat as written
"""

from __future__ import annotations

import json
import math
import struct
from collections.abc import Mapping
from functools import cached_property
from itertools import islice, zip_longest
from pathlib import Path
from types import MappingProxyType

import numpy as np

from ..errors import ConfigError, DataError
from ..runutil import atomic_write_bytes, derived_rng, from_json_dict, to_json_dict
from .autodiff import Tensor
from .config import CONV_KERNEL, ETHNIC_BRANCHES, IN_CHANNELS, MLP_RATIO, N_EMOTIONS, N_ETHNICITIES
from .config import ModelConfig, Variant

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

    def like(self, flat: np.ndarray) -> "ParamSet":
        """`flat`, a float64 vector of this set's size, in this set's layout."""
        if flat.dtype != np.float64 or flat.shape != self.flat.shape:
            raise ConfigError(f"a {flat.dtype} vector of shape {flat.shape} does not fit layout size {self.flat.size}")
        return ParamSet._wrap(flat, self.layout)

    def leaves(self, requires_grad: bool = True) -> dict:
        """One fresh autodiff leaf per parameter, keyed by name; inference passes
        requires_grad=False so the forward records no graph."""
        return {name: Tensor(v, name=name, requires_grad=requires_grad) for name, v in self.tensors.items()}


def check_layout(layout: tuple, reference: tuple) -> None:
    """Raise ConfigError unless `layout` has exactly the reference's (name, shape) pairs, in order."""
    if layout != reference:
        got, expected = next((a, b) for a, b in zip_longest(layout, reference) if a != b)
        raise ConfigError(f"parameter layout mismatch: got {got}, expected {expected}")


def _kaiming(fan_in: int):
    std = np.sqrt(2.0 / fan_in)
    return lambda rng, shape: rng.normal(0.0, std, size=shape)


def _trunc_normal(std: float = 0.02):
    # clipped at 2 std, the usual cheap truncation for transformer embeddings
    return lambda rng, shape: np.clip(rng.normal(0.0, std, size=shape), -2 * std, 2 * std)


def _linear(name: str, n_out: int, n_in: int, bias: float = 0.0):
    yield f"{name}.w", (n_out, n_in), _kaiming(n_in)
    yield f"{name}.b", (n_out,), bias


def _conv_stack(prefix: str, cfg):
    in_ch, k = IN_CHANNELS, CONV_KERNEL
    for i, width in enumerate(cfg.stage_widths):
        yield f"{prefix}.stage{i}.w", (width, in_ch, k, k), _kaiming(in_ch * k * k)
        # small positive bias keeps stage pre-activations off the ReLU kink
        yield f"{prefix}.stage{i}.b", (width,), 0.01
        in_ch = width
    yield from _linear(f"{prefix}.proj", cfg.feature_dim, in_ch)


def _patch_stack(prefix: str, cfg, image_size: int, feature_dim: int):
    patch_dim, d = IN_CHANNELS * cfg.patch_size * cfg.patch_size, cfg.embed_dim
    yield f"{prefix}.embed.w", (d, patch_dim), _trunc_normal(std=np.sqrt(1.0 / patch_dim))
    yield f"{prefix}.embed.b", (d,), 0.0
    yield f"{prefix}.pos", ((image_size // cfg.patch_size) ** 2, d), _trunc_normal()
    hidden = MLP_RATIO * d
    for blk in range(cfg.n_blocks):
        p = f"{prefix}.block{blk}"
        yield f"{p}.ln1.gamma", (d,), 1.0
        yield f"{p}.ln1.beta", (d,), 0.0
        for head_part in ("q", "k", "v", "o"):
            yield from _linear(f"{p}.attn.{head_part}", d, d)
        yield f"{p}.ln2.gamma", (d,), 1.0
        yield f"{p}.ln2.beta", (d,), 0.0
        yield from _linear(f"{p}.mlp.fc1", hidden, d, bias=0.01)
        yield from _linear(f"{p}.mlp.fc2", d, hidden)
    yield f"{prefix}.norm.gamma", (d,), 1.0
    yield f"{prefix}.norm.beta", (d,), 0.0
    yield from _linear(f"{prefix}.proj", feature_dim, d)


def model_tensors(config: ModelConfig, variant: Variant):
    """The variant's tensor table: (name, shape, init) rows in layout order, init a constant
    fill or a draw init(rng, shape). Allocates no tensor; a config the variant cannot use
    raises ConfigError once the table is read."""
    config.validate_for(variant)
    e, branch = config.feature_dim, ETHNIC_BRANCHES[variant]
    yield from _conv_stack("motion", config.conv)
    if branch is not None and branch.encoder == "conv":
        yield from _conv_stack("ethnic", config.conv)
    elif branch is not None:
        yield from _patch_stack("texture", config.texture, config.image_size, e)
    yield from _linear("head.emotion", N_EMOTIONS, e)
    if branch is not None:
        yield from _linear("head.ethnicity", N_ETHNICITIES, e)
        yield from _linear("head.fusion", N_EMOTIONS, 2 * e)


def draw_params(table, rng: np.random.Generator) -> ParamSet:
    """The table's tensors, each filled with its constant or drawn from rng, in row order."""
    return ParamSet({name: init(rng, shape) if callable(init) else np.full(shape, init) for name, shape, init in table})


def init_params(config: ModelConfig, variant: Variant, seed: int) -> ParamSet:
    """Deterministic initialization from the labeled PRNG stream (PCG64)."""
    return draw_params(model_tensors(config, variant), derived_rng(seed, "init", variant.value))


def save_checkpoint(path, params: ParamSet, config: ModelConfig, variant: Variant) -> None:
    header = {
        "config": to_json_dict(config),
        "variant": variant.value,
        "tensors": [{"name": name, "shape": list(shape)} for name, shape in params.layout],
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    data = params.flat.astype("<f8", copy=False).tobytes()
    atomic_write_bytes(path, b"".join([_MAGIC, struct.pack("<I", len(header_bytes)), header_bytes, data]))


def load_checkpoint(path) -> tuple[ParamSet, ModelConfig, Variant]:
    """Check a MECK1 file's magic, header, layout and length. A header with a
    "kind" (the frozen-encoder files of earlier versions) is a ConfigError.
    A KeyError, TypeError or ValueError in parsing, a config failing its own
    checks, or a layout other than the config's tensor table is a DataError.
    The table is read no further than the header's length, and no tensor is
    allocated before the file is seen to hold it."""
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
    except ValueError as exc:  # bad UTF-8 or JSON
        raise DataError(f"{path}: malformed checkpoint header: {type(exc).__name__}: {exc}") from exc
    if isinstance(header, dict) and "kind" in header:
        raise ConfigError(f"{path}: a {header['kind']!r} file, not a model checkpoint")
    try:
        layout = tuple((entry["name"], tuple(int(n) for n in entry["shape"])) for entry in header["tensors"])
        config, variant = from_json_dict(ModelConfig, header["config"]), Variant(header["variant"])
        table = islice(model_tensors(config, variant), len(layout) + 1)
        check_layout(layout, tuple((name, shape) for name, shape, _ in table))
    except (KeyError, TypeError, ValueError, ConfigError) as exc:  # ConfigError: a bad config or layout
        raise DataError(f"{path}: malformed checkpoint header: {type(exc).__name__}: {exc}") from exc
    off += header_len
    nbytes = 8 * sum(math.prod(shape) for _, shape in layout)
    if len(data) - off != nbytes:
        raise DataError(f"{path}: {len(data) - off} bytes of tensor data, the header declares {nbytes}")
    return ParamSet._wrap(np.frombuffer(data, dtype="<f8", offset=off).astype(np.float64), layout), config, variant
