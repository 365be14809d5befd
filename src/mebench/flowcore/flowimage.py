"""The 3-channel optical flow image fed to the model, and its OFI1 container.

Channels are (u, v, strain magnitude), each clipped and mapped affinely
to [0, 1]: flow channels clip to +/-3 px, strain to [0, 0.5]. In memory
the image is the file's own float32 block, one read-only (3, H, W) array,
so it round-trips bit-exactly: read without a copy, written in one tobytes().
The share of each channel's values held at a clip bound, clip_fraction, is
derived from the planes when asked for; no record stores it. The clip
ranges are a format constant: every file ends in the same 24 bytes, and a
file whose trailer differs is refused.

OFI1 layout (little-endian):

    magic "OFI1" | u32 height | u32 width
    | plane fx | plane fy | plane strain      (row-major float32)
    | 6 x float32: (clip_lo, clip_hi) for fx, fy, strain
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar

import numpy as np

from ..errors import DataError
from ..runutil import atomic_write_bytes
from .hornschunck import FlowField
from .strain import StrainMap

# both clips are exact in float32, so a record matches its serialized form exactly
FLOW_CLIP = (-3.0, 3.0)
STRAIN_CLIP = (0.0, 0.5)

# per-channel clip bounds, broadcast over a (3, H, W) stack
_LO, _HI = np.array([FLOW_CLIP, FLOW_CLIP, STRAIN_CLIP]).T.reshape(2, 3, 1, 1)

_MAGIC = b"OFI1"
_TRAILER = struct.pack("<6f", *FLOW_CLIP, *FLOW_CLIP, *STRAIN_CLIP)  # every file's clip ranges
_MAX_DIM = 2**32 - 1


class BadMagicError(DataError):
    """File does not start with the OFI1 magic bytes."""


class TruncatedFileError(DataError):
    """File is shorter than its header promises."""


@dataclass(frozen=True)
class NormalizationRecord:
    """Affine clip/scale applied per channel: the (lo, hi) range mapped to [0, 1]."""

    fx_clip: tuple[float, float] = FLOW_CLIP
    fy_clip: tuple[float, float] = FLOW_CLIP
    strain_clip: tuple[float, float] = STRAIN_CLIP


@dataclass(frozen=True, eq=False)
class OpticalFlowImage:
    """Normalized (fx, fy, strain) planes as one read-only (3, H, W) float32 array, all values in [0, 1]."""

    data: np.ndarray
    normalization: ClassVar[NormalizationRecord] = NormalizationRecord()

    def __eq__(self, other) -> bool:
        if not isinstance(other, OpticalFlowImage):
            return NotImplemented
        return np.array_equal(self.data, other.data)

    def __post_init__(self):
        a = np.ascontiguousarray(self.data, dtype=np.float32)
        if a.ndim != 3 or a.shape[0] != 3:
            raise DataError(f"flow image must be (3, H, W), got shape {a.shape}")
        finite = np.isfinite(a).all(axis=(1, 2))
        valid = finite & (a.min(axis=(1, 2), initial=0.0) >= 0.0) & (a.max(axis=(1, 2), initial=0.0) <= 1.0)
        if not valid.all():
            bad = int(np.argmin(valid))  # the first bad channel
            problem = "not normalized to [0, 1]" if finite[bad] else "contains non-finite values"
            raise DataError(f"channel_{('fx', 'fy', 'strain')[bad]} {problem}")
        a.flags.writeable = False
        object.__setattr__(self, "data", a)

    shape = property(lambda self: self.data.shape[1:])  # (H, W)
    channel_fx = property(lambda self: self.data[0])
    channel_fy = property(lambda self: self.data[1])
    channel_strain = property(lambda self: self.data[2])

    @property
    def clip_fraction(self) -> tuple[float, float, float]:
        """Per channel, the fraction of values sitting exactly at a clip boundary (0.0 or 1.0)."""
        return tuple(np.mean((self.data == 0.0) | (self.data == 1.0), axis=(1, 2)).tolist())

    def planes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return tuple(self.data)

    def as_array(self) -> np.ndarray:
        """The (3, H, W) planes widened to float64 for model input."""
        return self.data.astype(np.float64)


def assemble_flow_image(flow: FlowField, strain: StrainMap) -> OpticalFlowImage:
    """Stack (u, v, strain magnitude) and normalize each channel to [0, 1]
    by FLOW_CLIP and STRAIN_CLIP."""
    if flow.shape != strain.shape:
        raise DataError(f"flow shape {flow.shape} != strain shape {strain.shape}")
    stacked = np.clip(np.stack((flow.u, flow.v, strain.magnitude)), _LO, _HI)
    return OpticalFlowImage(((stacked - _LO) / (_HI - _LO)).astype(np.float32))


def write_flow_image(img: OpticalFlowImage, path) -> None:
    h, w = img.shape
    if h > _MAX_DIM or w > _MAX_DIM:
        raise DataError(f"dimension overflow: {h}x{w} does not fit in u32")
    planes = img.data.astype("<f4", copy=False).tobytes()
    atomic_write_bytes(path, _MAGIC + struct.pack("<II", h, w) + planes + _TRAILER)


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
    expected = 12 + 12 * h * w + 24
    if len(data) < expected:
        raise TruncatedFileError(f"{path}: expected {expected} bytes, found {len(data)}")
    if len(data) > expected:
        raise DataError(f"{path}: {len(data)} bytes, the header declares {expected}")
    if data[-len(_TRAILER):] != _TRAILER:
        raise DataError(f"{path}: clip ranges {struct.unpack('<6f', data[-len(_TRAILER):])} in the trailer, "
                        f"expected {struct.unpack('<6f', _TRAILER)}")
    return OpticalFlowImage(np.frombuffer(data, "<f4", count=3 * h * w, offset=12).reshape(3, h, w))
