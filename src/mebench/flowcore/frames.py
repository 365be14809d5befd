"""Onset/apex frame loading.

Supported raster formats are the portable graymap/pixmap family:
P5/P2 (gray) and P6/P3 (RGB). RGB input is reduced to luminance with
Y = 0.299 R + 0.587 G + 0.114 B. Loaded values are scaled to [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..errors import DataError
from ..runutil import atomic_write_bytes

LUMA_WEIGHTS = (0.299, 0.587, 0.114)


class RasterFormatError(DataError):
    """Unsupported or malformed raster file."""


@dataclass(frozen=True)
class GrayFrame:
    """Grayscale frame (H, W), or a stack (N, H, W) of same-size frames; values are row-major luminance in [0, 1]."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim not in (2, 3) or v.size == 0:
            raise DataError(f"frame must be a non-empty (H, W) or (N, H, W) array, got shape {v.shape}")
        if not np.isfinite(v).all():
            raise DataError("frame contains non-finite values")
        if v.min() < 0.0 or v.max() > 1.0:
            raise DataError("frame values must lie in [0, 1]")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def height(self) -> int:
        return self.values.shape[-2]

    @property
    def width(self) -> int:
        return self.values.shape[-1]


def _tokenize_pnm_header(data: bytes, n_tokens: int):
    """Yield header tokens, skipping whitespace and # comments; return (tokens, offset)."""
    tokens = []
    i = 0
    while len(tokens) < n_tokens:
        if i >= len(data):
            raise RasterFormatError("truncated raster header")
        c = data[i : i + 1]
        if c.isspace():
            i += 1
        elif c == b"#":
            while i < len(data) and data[i : i + 1] not in (b"\n", b"\r"):
                i += 1
        else:
            j = i
            while j < len(data) and not data[j : j + 1].isspace() and data[j : j + 1] != b"#":
                j += 1
            tokens.append(data[i:j])
            i = j
    # exactly one whitespace byte separates the header from binary payload
    if i < len(data) and data[i : i + 1].isspace():
        i += 1
    return tokens, i


def _pnm_header(path: Path, data: bytes) -> tuple[bytes, int, int, int, int]:
    """(magic, width, height, maxval, header length after the magic) of a P2/P3/P5/P6 file's bytes."""
    if len(data) < 2:
        raise RasterFormatError(f"{path}: not a portable graymap/pixmap")
    magic = data[:2]
    if magic not in (b"P2", b"P3", b"P5", b"P6"):
        raise RasterFormatError(f"{path}: unsupported format magic {magic!r}")
    tokens, offset = _tokenize_pnm_header(data[2:], 3)
    try:
        width, height, maxval = (int(t) for t in tokens)
    except ValueError as exc:
        raise RasterFormatError(f"{path}: bad header tokens {tokens}") from exc
    if width <= 0 or height <= 0:
        raise RasterFormatError(f"{path}: zero-sized image ({width}x{height})")
    if maxval <= 0 or maxval > 65535:
        raise RasterFormatError(f"{path}: invalid maxval {maxval}")
    return magic, width, height, maxval, offset


def _read_pnm(path) -> tuple[np.ndarray, int]:
    """Read a P2/P3/P5/P6 file; return (pixels as (H,W) or (H,W,3) float in [0,1], channels)."""
    path = Path(path)
    data = path.read_bytes()
    magic, width, height, maxval, offset = _pnm_header(path, data)
    channels = 3 if magic in (b"P3", b"P6") else 1
    count = width * height * channels
    if magic in (b"P5", b"P6"):
        payload = data[2 + offset :]
        dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
        need = count * dtype.itemsize
        if len(payload) < need:
            raise RasterFormatError(f"{path}: truncated pixel data")
        raw = np.frombuffer(payload[:need], dtype=dtype).astype(np.float64)
    else:
        try:
            fields = data[2 + offset - 1 :].split()
            raw = np.array([int(t) for t in fields[:count]], dtype=np.float64)
        except ValueError as exc:
            raise RasterFormatError(f"{path}: bad ASCII pixel data") from exc
        if raw.size < count:
            raise RasterFormatError(f"{path}: truncated pixel data")
    if raw.max(initial=0.0) > maxval:
        raise RasterFormatError(f"{path}: pixel value exceeds maxval")
    pixels = raw / float(maxval)
    if channels == 3:
        return pixels.reshape(height, width, 3), 3
    return pixels.reshape(height, width), 1


def load_frame(path) -> GrayFrame:
    """Load a frame as grayscale, converting RGB input to luminance."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"frame file not found: {path}")
    pixels, channels = _read_pnm(path)
    if channels == 3:
        r, g, b = pixels[..., 0], pixels[..., 1], pixels[..., 2]
        pixels = LUMA_WEIGHTS[0] * r + LUMA_WEIGHTS[1] * g + LUMA_WEIGHTS[2] * b
    return GrayFrame(values=pixels)


def frame_shape(path) -> tuple[int, int]:
    """The (H, W) of the frame load_frame would load, read from the file's header alone."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"frame file not found: {path}")
    _, width, height, _, _ = _pnm_header(path, path.read_bytes())
    return height, width


def load_rgb_frame(path) -> np.ndarray:
    """Load a frame as a (3, H, W) array in [0, 1]; gray input is replicated."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"frame file not found: {path}")
    pixels, channels = _read_pnm(path)
    if channels == 3:
        return np.ascontiguousarray(pixels.transpose(2, 0, 1))
    return np.repeat(pixels[None, :, :], 3, axis=0)


def write_pgm(path, values: np.ndarray) -> None:
    """Write a [0,1] float array as an 8-bit binary portable graymap."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 2:
        raise DataError(f"expected 2-D array, got shape {v.shape}")
    quantized = np.rint(np.clip(v, 0.0, 1.0) * 255.0).astype(np.uint8)
    header = f"P5\n{v.shape[1]} {v.shape[0]}\n255\n".encode("ascii")
    atomic_write_bytes(path, header + quantized.tobytes())
