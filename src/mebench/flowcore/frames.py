"""Onset/apex frame loading.

Supported raster formats are the portable graymap/pixmap family:
P5/P2 (gray) and P6/P3 (RGB). RGB input is reduced to luminance with
Y = 0.299 R + 0.587 G + 0.114 B. Loaded values are scaled to [0, 1]:
load_frame divides each sample by the file's maxval in float64.
load_rgb_frame keeps the integer samples and returns the maxval
beside them, and the model's batch builder makes that same division.
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
    """Read up to n_tokens header tokens, skipping whitespace and # comments; return (tokens, offset).
    Fewer tokens come back when the data ends first."""
    tokens = []
    i = 0
    while len(tokens) < n_tokens and i < len(data):
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
    if len(tokens) < 3:
        raise RasterFormatError(f"{path}: truncated raster header")
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
    """Read a P2/P3/P5/P6 file; return (samples, maxval). The samples are the file's integers, shaped
    (H, W) for gray or (H, W, 3) for RGB, as uint8 up to maxval 255 and uint16 above; a sample outside
    [0, maxval] is refused."""
    path = Path(path)
    data = path.read_bytes()
    magic, width, height, maxval, offset = _pnm_header(path, data)
    channels = 3 if magic in (b"P3", b"P6") else 1
    count = width * height * channels
    dtype = np.dtype(np.uint8) if maxval <= 255 else np.dtype(np.uint16)
    if magic in (b"P5", b"P6"):
        stored = np.dtype(">u2") if maxval > 255 else dtype
        if len(data) - (2 + offset) < count * stored.itemsize:
            raise RasterFormatError(f"{path}: truncated pixel data")
        raw = np.frombuffer(data, dtype=stored, count=count, offset=2 + offset)
    else:
        try:
            fields = data[2 + offset - 1 :].split()
            raw = np.array([int(t) for t in fields[:count]], dtype=np.int64)
        except (ValueError, OverflowError) as exc:
            raise RasterFormatError(f"{path}: bad ASCII pixel data") from exc
        if raw.size < count:
            raise RasterFormatError(f"{path}: truncated pixel data")
    if raw.min(initial=0) < 0 or raw.max(initial=0) > maxval:
        raise RasterFormatError(f"{path}: pixel value outside [0, maxval {maxval}]")
    shape = (height, width, 3) if channels == 3 else (height, width)
    return raw.astype(dtype, copy=False).reshape(shape), maxval


def load_frame(path) -> GrayFrame:
    """Load a frame as grayscale in [0, 1] (samples divided by maxval), converting RGB input to luminance."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"frame file not found: {path}")
    raw, maxval = _read_pnm(path)
    pixels = np.divide(raw, float(maxval), dtype=np.float64)
    if pixels.ndim == 3:
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


def load_rgb_frame(path) -> tuple[np.ndarray, int]:
    """Load a frame at file precision: (pixels, maxval), pixels the integer samples (uint8 up to maxval
    255, uint16 above) shaped (3, H, W), gray input replicated. pixels / float(maxval) in float64 is the
    frame in [0, 1], bit for bit what load_frame divides."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"frame file not found: {path}")
    raw, maxval = _read_pnm(path)
    if raw.ndim == 3:
        return raw.transpose(2, 0, 1).copy(), maxval
    return np.repeat(raw[None, :, :], 3, axis=0), maxval


def write_pgm(path, values: np.ndarray) -> None:
    """Write a [0,1] float array as an 8-bit binary portable graymap."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 2:
        raise DataError(f"expected 2-D array, got shape {v.shape}")
    quantized = np.rint(np.clip(v, 0.0, 1.0) * 255.0).astype(np.uint8)
    header = f"P5\n{v.shape[1]} {v.shape[0]}\n255\n".encode("ascii")
    atomic_write_bytes(path, header + quantized.tobytes())
