"""The 3-channel optical flow image fed to the model, and its OFI1 container.

Channels are (u, v, strain magnitude), each clipped and mapped affinely
to [0, 1]: flow channels clip to +/-3 px, strain to [0, 0.5]. Planes are
stored as float32 so that the serialized form round-trips bit-exactly.

OFI1 layout (little-endian):

    magic "OFI1" | u32 height | u32 width
    | plane fx | plane fy | plane strain      (row-major float32)
    | 6 x float32: (clip_lo, clip_hi) for fx, fy, strain
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..errors import DataError
from ..runutil import atomic_write_bytes
from .hornschunck import FlowField
from .strain import StrainMap

# both clips are exact in float32, so a record matches its serialized form exactly
FLOW_CLIP = (-3.0, 3.0)
STRAIN_CLIP = (0.0, 0.5)

_MAGIC = b"OFI1"
_MAX_DIM = 2**32 - 1


class BadMagicError(DataError):
    """File does not start with the OFI1 magic bytes."""


class TruncatedFileError(DataError):
    """File is shorter than its header promises."""


@dataclass(frozen=True)
class NormalizationRecord:
    """Affine clip/scale applied per channel, plus saturation diagnostics.

    clip_fraction is the fraction of stored plane values sitting exactly at
    a clip boundary (0.0 or 1.0 after mapping); it is recomputed from the
    planes so it survives serialization exactly.
    """

    fx_clip: tuple[float, float] = FLOW_CLIP
    fy_clip: tuple[float, float] = FLOW_CLIP
    strain_clip: tuple[float, float] = STRAIN_CLIP
    clip_fraction: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def clips(self) -> tuple[tuple[float, float], ...]:
        return (self.fx_clip, self.fy_clip, self.strain_clip)


@dataclass(frozen=True, eq=False)
class OpticalFlowImage:
    """Normalized (fx, fy, strain) planes; all values in [0, 1], float32."""

    channel_fx: np.ndarray
    channel_fy: np.ndarray
    channel_strain: np.ndarray
    normalization: NormalizationRecord

    def __eq__(self, other) -> bool:
        if not isinstance(other, OpticalFlowImage):
            return NotImplemented
        return self.normalization == other.normalization and all(
            np.array_equal(a, b) for a, b in zip(self.planes(), other.planes())
        )

    def __post_init__(self):
        shape = None
        for name in ("channel_fx", "channel_fy", "channel_strain"):
            a = np.ascontiguousarray(getattr(self, name), dtype=np.float32)
            if a.ndim != 2:
                raise DataError(f"{name} must be 2-D")
            if shape is None:
                shape = a.shape
            elif a.shape != shape:
                raise DataError(f"{name} has shape {a.shape}, expected {shape}")
            if not np.isfinite(a).all():
                raise DataError(f"{name} contains non-finite values")
            if a.min(initial=0.0) < 0.0 or a.max(initial=0.0) > 1.0:
                raise DataError(f"{name} not normalized to [0, 1]")
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @property
    def shape(self) -> tuple[int, int]:
        return self.channel_fx.shape

    def planes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (self.channel_fx, self.channel_fy, self.channel_strain)

    def as_array(self) -> np.ndarray:
        """Stacked (3, H, W) float64 view for model input."""
        return np.stack([p.astype(np.float64) for p in self.planes()])


def _normalize(plane: np.ndarray, lo: float, hi: float) -> np.ndarray:
    clipped = np.clip(plane, lo, hi)
    return ((clipped - lo) / (hi - lo)).astype(np.float32)


def _boundary_fraction(plane: np.ndarray) -> float:
    return float(np.mean((plane == 0.0) | (plane == 1.0)))


def assemble_flow_image(flow: FlowField, strain: StrainMap) -> OpticalFlowImage:
    """Stack (u, v, strain magnitude) and normalize each channel to [0, 1]
    by FLOW_CLIP and STRAIN_CLIP."""
    if flow.shape != strain.shape:
        raise DataError(f"flow shape {flow.shape} != strain shape {strain.shape}")
    fx = _normalize(flow.u, *FLOW_CLIP)
    fy = _normalize(flow.v, *FLOW_CLIP)
    st = _normalize(strain.magnitude, *STRAIN_CLIP)
    record = NormalizationRecord(
        clip_fraction=(_boundary_fraction(fx), _boundary_fraction(fy), _boundary_fraction(st))
    )
    return OpticalFlowImage(channel_fx=fx, channel_fy=fy, channel_strain=st, normalization=record)


def write_flow_image(img: OpticalFlowImage, path) -> None:
    h, w = img.shape
    if h > _MAX_DIM or w > _MAX_DIM:
        raise DataError(f"dimension overflow: {h}x{w} does not fit in u32")
    parts = [_MAGIC, struct.pack("<II", h, w)]
    for plane in img.planes():
        parts.append(plane.astype("<f4").tobytes())
    flat_clips = [c for pair in img.normalization.clips() for c in pair]
    parts.append(struct.pack("<6f", *flat_clips))
    atomic_write_bytes(path, b"".join(parts))


def read_flow_image_shape(path, data: bytes | None = None) -> tuple[int, int]:
    """(height, width) from an OFI file's header; data, when given, is the file's bytes."""
    if data is None:
        with open(path, "rb") as fh:
            data = fh.read(12)
    if len(data) < 4 or data[:4] != _MAGIC:
        raise BadMagicError(f"{path}: bad magic {data[:4]!r}, expected {_MAGIC!r}")
    if len(data) < 12:
        raise TruncatedFileError(f"{path}: header truncated")
    h, w = struct.unpack("<II", data[4:12])
    if h == 0 or w == 0:
        raise DataError(f"{path}: zero-sized image")
    return h, w


def read_flow_image(path) -> OpticalFlowImage:
    path = Path(path)
    data = path.read_bytes()
    h, w = read_flow_image_shape(path, data)
    plane_bytes = h * w * 4
    expected = 12 + 3 * plane_bytes + 24
    if len(data) < expected:
        raise TruncatedFileError(f"{path}: expected {expected} bytes, found {len(data)}")
    if len(data) > expected:
        raise DataError(f"{path}: {len(data)} bytes, the header declares {expected}")
    planes = []
    for i in range(3):
        start = 12 + i * plane_bytes
        planes.append(np.frombuffer(data[start : start + plane_bytes], dtype="<f4").reshape(h, w))
    clips = struct.unpack("<6f", data[12 + 3 * plane_bytes : expected])
    record = NormalizationRecord(
        fx_clip=(clips[0], clips[1]),
        fy_clip=(clips[2], clips[3]),
        strain_clip=(clips[4], clips[5]),
        clip_fraction=tuple(_boundary_fraction(p) for p in planes),
    )
    return OpticalFlowImage(
        channel_fx=planes[0], channel_fy=planes[1], channel_strain=planes[2], normalization=record
    )
