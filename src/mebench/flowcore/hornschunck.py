"""Dense optical flow between an onset and an apex frame.

Variational smoothness-regularized flow (the classical quadratic data +
smoothness objective) solved with Jacobi iterations inside a
coarse-to-fine pyramid with inter-level warping, starting from zero flow
at the coarsest level (Horn & Schunck 1981). Each Jacobi step takes
the weighted 8-neighbour average of the increment, `nearest`-mode at the
border, summed tap by tap in `scipy.ndimage.correlate`'s order, so it is
bit-identical to `correlate(d, _AVG_KERNEL, mode="nearest")`. Coarse
levels are bound by numpy call overhead, so each level binds every view
its steps touch once, and a step makes 17 numpy calls: the two weights go
in one broadcast multiply, and the taps are summed from `first_tap + 0.0`,
which has the bits of correlate's `0.0 + first_tap` for every value (IEEE
addition is commutative: -0.0 still becomes +0.0, a NaN keeps its payload).

`estimate_flow` also takes a stack (N, H, W) of same-size pairs. The
pyramid and upsampling run on the whole stack; on each level the warp,
derivatives and Jacobi steps run once per chunk of clips, the stencil
seeing the chunk's increments as 2 planes per clip. Every op is
elementwise per clip, so a clip's bits are those of its one-pair solve.
Stacking pays only while a step is call-bound: a chunk holds at most
_CHUNK_CELLS padded cells, so 25 clips share a step at 16 px and 7 at
32 px, while each 64 px and 128 px clip runs alone (at 128 px, two clips
per step were slower than one).
`stack_size` is how many pairs a caller should stack: those that fill
one chunk of a shared level, within a memory cap.

A solve holds only what its current level reads. `estimate_flow` drops
its frames once their pyramids exist (freed when the caller passed them
unbound) and pops each level, coarsest first, as it solves it. A chunk
warps and differentiates its frames before it allocates its padded
arrays, and its Jacobi update keeps its scratch in the stencil's
`scaled`, so a chunk holds 12 padded planes per clip: 1.6 MB at 128 px.

The module needs numpy only. The stencil and the ports of the other
`scipy.ndimage` filters the solver was built on (`sample_bilinear` for
order-1 `map_coordinates`, `gaussian_smooth` for `gaussian_filter` and
the 2x2 stencils of `_derivatives` for `correlate`, all in `nearest`
mode) repeat scipy's float64 operations in its order, and tests pin each
to scipy, bit for bit.

The flow convention is

    onset(x, y) ~= apex(x + u(x, y), y + v(x, y))

so a scene feature that moved by +t pixels from onset to apex yields
u = +t_x, v = +t_y.

The solver is fully deterministic: fixed iteration counts, fixed update
order, no data-dependent stopping.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, DataError
from .frames import GrayFrame

# weighted 8-neighborhood average used for the smoothness term
_AVG_KERNEL = np.array(
    [[1 / 12, 1 / 6, 1 / 12], [1 / 6, 0.0, 1 / 6], [1 / 12, 1 / 6, 1 / 12]],
    dtype=np.float64,
)
# The nonzero taps of _AVG_KERNEL in row-major order, the order in which
# correlate accumulates them: (index into _AVG_WEIGHTS, row offset, column offset).
_AVG_WEIGHTS = np.array(sorted(set(_AVG_KERNEL[_AVG_KERNEL != 0].tolist())))  # np.unique would import numpy.ma
_AVG_TAPS = tuple(
    (_AVG_WEIGHTS.tolist().index(_AVG_KERNEL[i, j]), i - 1, j - 1) for i, j in np.argwhere(_AVG_KERNEL).tolist()
)

_MIN_SIDE = 8  # coarsest pyramid level is never smaller than this
# Padded cells (both planes) per Jacobi chunk: 25 clips at 16 px, 7 at 32 px, 1 at 64 px and up.
_CHUNK_CELLS = 2**14
# Onset pixels per stack_size stack: a 128 px clip holds ~0.6 MB, its frames until its pyramids exist,
# then its current level and flow.
_STACK_PIXELS = 2**15


class NonFiniteFlowError(DataError):
    """The solver produced a non-finite intermediate; never silently clamped."""


@dataclass(frozen=True)
class FlowParams:
    """Solver parameters; defaults cover micro-expression-scale motion."""

    smoothness_alpha: float = 15.0
    iterations: int = 200
    pyramid_levels: int = 3
    pyramid_scale: float = 0.5

    def __post_init__(self):
        alpha = float(self.smoothness_alpha)
        if not (np.isfinite(alpha) and alpha > 0):
            raise ConfigError(f"smoothness_alpha must be finite and > 0, got {self.smoothness_alpha}")
        if not sys.float_info.min <= alpha * alpha <= sys.float_info.max:  # alpha^2 floors the Jacobi denominator
            raise ConfigError(f"smoothness_alpha squared must be a normal float (alpha about 1.5e-154 to 1.3e154), "
                              f"got {alpha}")
        if self.iterations < 1:
            raise ConfigError("iterations must be >= 1")
        if self.pyramid_levels < 1:
            raise ConfigError("pyramid_levels must be >= 1")
        if not (0.0 < self.pyramid_scale < 1.0):
            raise ConfigError("pyramid_scale must lie in (0, 1)")


@dataclass(frozen=True)
class FlowField:
    """Per-pixel displacement (u horizontal, v vertical), in pixels, of one pair (H, W) or a stack (N, H, W)."""

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, dtype=np.float64)
        v = np.asarray(self.v, dtype=np.float64)
        if u.ndim not in (2, 3) or u.shape != v.shape:
            raise DataError(f"u/v must share one (H, W) or (N, H, W) shape, got {u.shape} vs {v.shape}")
        u.flags.writeable = False
        v.flags.writeable = False
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.u.shape


def _edge_pad(x: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """x (..., H, W) in a new array, with `rows` copies of its edge rows above and below
    and `cols` copies of its edge columns at each side."""
    h, w = x.shape[-2:]
    out = np.empty((*x.shape[:-2], h + 2 * rows, w + 2 * cols))
    out[..., rows:rows + h, cols:cols + w] = x
    out[..., :rows, cols:cols + w] = x[..., :1, :]
    out[..., rows + h:, cols:cols + w] = x[..., -1:, :]
    out[..., :cols] = out[..., cols:cols + 1]
    out[..., cols + w:] = out[..., cols + w - 1:cols + w]
    return out


def _corner_weights(coords: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Along one axis of length n: the lower corner's weight 1 - (c - floor(c)), from the unclamped
    coordinate, and floor(c) clamped to [-1, n - 1], each in a new array."""
    lower = np.floor(coords)
    w0 = np.subtract(coords, lower)
    np.subtract(1.0, w0, out=w0)
    np.clip(lower, -1.0, n - 1.0, out=lower)
    return w0, lower


def sample_bilinear(img: np.ndarray, ys: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Each frame of img (..., H, W) sampled at the 2-D coordinates (ys, xs), bilinear and edge-clamped.

    The result has the shape of img's leading axes, ys and xs broadcast. In float64; of a float64 frame,
    bit-identical to `scipy.ndimage.map_coordinates(frame, [ys, xs], order=1, mode="nearest")`: along each
    axis the upper weight is 1 - w0, and the corner indices floor(c) and floor(c) + 1 are clamped to the
    frame (here: read from a 1 px edge-padded copy), while the weights keep the unclamped coordinate; the
    products (value * wy) * wx are summed from 0.0 in row-major corner order. A row and a column of
    coordinates give a separable grid, whose weights are computed once per row and per column.
    Coordinates must be finite: a NaN has no index.
    """
    *lead, h, w = img.shape
    padded = _edge_pad(img, 1, 1).reshape(-1)
    starts = np.arange(0, padded.size, (h + 2) * (w + 2)).reshape(*lead, 1, 1)  # where each frame starts in `padded`
    wy0, row = _corner_weights(ys, h)
    wx0, col = _corner_weights(xs, w)
    # flat index of each sample's upper-left corner in the padded copy; the other three follow it
    row *= w + 2
    row += w + 3
    base = np.empty(np.broadcast_shapes(row.shape, col.shape, starts.shape), dtype=np.intp)
    np.add(row, col, out=base, casting="unsafe")
    base += starts
    wy1 = np.subtract(1.0, wy0, out=row)
    wx1 = np.subtract(1.0, wx0, out=col)
    # the indices are in range by construction; mode "clip" (unlike "raise") lets take fill `term` unbuffered
    out = np.take(padded, base, mode="clip")
    out *= wy0
    out *= wx0
    out += 0.0
    term = np.empty_like(out)
    for offset, wy, wx in ((1, wy0, wx1), (w + 2, wy1, wx0), (w + 3, wy1, wx1)):
        np.take(padded[offset:], base, out=term, mode="clip")
        term *= wy
        term *= wx
        out += term
    return out


@functools.lru_cache(maxsize=16)
def _gaussian_weights(sigma: float) -> np.ndarray:
    """The centre and right half of `gaussian_filter`'s kernel, read-only:
    exp(-x^2 / 2 sigma^2) / sum over |x| <= int(4 sigma + 0.5)."""
    radius = int(4.0 * sigma + 0.5)
    x = np.arange(-radius, radius + 1)
    phi = np.exp(-0.5 / (sigma * sigma) * x**2)
    weights = (phi / phi.sum())[radius:]
    weights.flags.writeable = False
    return weights


def gaussian_smooth(img: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian blur of each frame of img (..., H, W) in float64, bit-identical to
    `scipy.ndimage.gaussian_filter(frame, sigma, mode="nearest")` of a float64 frame for sigma > 1e-15.

    Like scipy's symmetric `correlate1d`, each pass (rows, then columns) starts from
    centre * w0 and adds (x[-k] + x[+k]) * w_k for k from the radius down to 1. The
    edge columns padded for the second pass are smoothed by the first, which gives
    them the values that the second pass's edge extension would.
    """
    weights = _gaussian_weights(sigma)
    r = len(weights) - 1
    out = _edge_pad(img, r, r)
    for axis in (-2, -1):
        padded = np.moveaxis(out, axis, 0)
        n = len(padded) - 2 * r
        acc = padded[r:r + n] * weights[0]
        pair = np.empty_like(acc)
        for k in range(r, 0, -1):
            np.add(padded[r - k:r - k + n], padded[r + k:r + k + n], out=pair)
            pair *= weights[k]
            acc += pair
        out = np.moveaxis(acc, 0, axis)
    return out


def bilinear_resize(img: np.ndarray, new_h: int, new_w: int) -> np.ndarray:
    """Deterministic bilinear resize of each frame of img (..., H, W) with corner-aligned sample coordinates."""
    h, w = img.shape[-2:]
    if (new_h, new_w) == (h, w):
        return img.copy()
    ys = np.linspace(0.0, h - 1.0, new_h) if new_h > 1 else np.zeros(1)
    xs = np.linspace(0.0, w - 1.0, new_w) if new_w > 1 else np.zeros(1)
    return sample_bilinear(img, ys[:, None], xs[None, :])


def warp_bilinear(img: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Sample each frame of img (..., H, W) at (x + u, y + v) with bilinear interpolation, edge-clamped.

    Exact at zero displacement: integer coordinates reproduce img bit-for-bit.
    """
    h, w = img.shape[-2:]
    return sample_bilinear(img, v + np.arange(h, dtype=np.float64)[:, None], u + np.arange(w, dtype=np.float64))


def _derivatives(im1: np.ndarray, im2: np.ndarray):
    """Spatial/temporal derivative estimates averaged over each frame pair of im1, im2 (..., H, W) (2x2 stencils).

    Each frame's stencil sum has the bits of `correlate(frame, k, mode="nearest")` for
    its 2x2 kernel k of +-0.25: the taps at row and column offsets (-1, 0) of the
    edge-replicated frame, summed in row-major order from 0.0. A tap's product is
    `value * 0.25`, negated for a -0.25 weight, which IEEE arithmetic gives exactly.
    """
    q = _edge_pad(np.stack([im1, im2]), 1, 1)
    q *= 0.25
    a, b, c, d = q[..., :-2, :-2], q[..., :-2, 1:-1], q[..., 1:-1, :-2], q[..., 1:-1, 1:-1]
    cx = 0.0 - a + b - c + d
    cy = 0.0 - a - b + c + d
    ct = 0.0 + a + b + c + d
    return cx[0] + cx[1], cy[0] + cy[1], ct[1] - ct[0]


def _neighbour_average(padded: np.ndarray, out: np.ndarray, scaled: np.ndarray):
    """Prepare a step that writes `correlate(x, _AVG_KERNEL, mode="nearest")` of each plane x into `out`.

    `padded` (n, H+2, W+2) holds the planes in its interior; each step
    refills its 1 px border by edge replication. Only the interior of `out`
    (same shape) is the result. `scaled[k]` receives _AVG_WEIGHTS[k] * padded,
    so on the flattened grid each tap's product is one contiguous shifted
    slice. All views are bound here, once; each step reads the current interior.
    """
    h, w = padded.shape[1:]
    # edge rows, then edge columns (so corners come from the refilled rows), as stepped slices: sides >= 4
    edge_rows, inner_rows = padded[:, 0:h:h - 1, 1:-1], padded[:, 1:h - 1:h - 3, 1:-1]
    edge_cols, inner_cols = padded[:, :, 0:w:w - 1], padded[:, :, 1:w - 1:w - 3]
    weights = _AVG_WEIGHTS[:, None, None, None]
    # all but the first and last row + 1 cells; border cells get don't-care sums
    lo, hi = w + 1, padded.size - w - 1
    flat_out = out.reshape(-1)[lo:hi]
    flat_scaled = scaled.reshape(len(scaled), -1)
    first, *rest = (flat_scaled[k, lo + di * w + dj : hi + di * w + dj] for k, di, dj in _AVG_TAPS)

    def step():
        edge_rows[...] = inner_rows
        edge_cols[...] = inner_cols
        np.multiply(padded, weights, out=scaled)
        np.add(first, 0.0, out=flat_out)
        for tap in rest:
            np.add(flat_out, tap, out=flat_out)

    return step


def _solve_chunk(im1, im2, u, v, alpha, iterations):
    """Refine the (c, H, W) flow stacks u, v of a chunk of clips in place: warp, then Jacobi-iterate the increments.

    The chunk's (c, H, W) frames `im1`, `im2` are warped and differentiated in
    one call each, before any padded array exists. Every per-step array lives
    on the 1 px padded grid and is updated in place: `grad`, `padded` and
    `bar` (c, 2, H+2, W+2), `ft` and `denom` (c, H+2, W+2), and the stencil's
    `scaled` (2, 2c, H+2, W+2), 12 planes per clip. The update's products and
    their sum are written into `scaled`, whose values are dead from the
    stencil's last tap add to the next step's multiply. The increments (du, dv)
    are the interior of `padded`; each stencil refills its border, so the
    don't-care values the update leaves there are never read. The stencil
    sees the chunk as 2c planes and every other op is elementwise per clip,
    so a clip's bits do not depend on the other clips in its chunk.
    """
    c, h, w = u.shape
    derivatives = _derivatives(im1, warp_bilinear(im2, u, v))
    grad = np.zeros((c, 2, h + 2, w + 2))
    ft = np.zeros((c, h + 2, w + 2))
    grad[:, 0, 1:-1, 1:-1], grad[:, 1, 1:-1, 1:-1], ft[:, 1:-1, 1:-1] = derivatives
    del derivatives
    denom = alpha * alpha + grad[:, 0] * grad[:, 0] + grad[:, 1] * grad[:, 1]
    padded = np.zeros_like(grad)
    bar = np.zeros_like(grad)
    planes = (2 * c, h + 2, w + 2)
    scaled = np.empty((len(_AVG_WEIGHTS), *planes))
    prod = scaled[0].reshape(grad.shape)
    prod_u, prod_v = prod[:, 0], prod[:, 1]
    shared = scaled[1, :c]
    shared_planes = shared[:, None]
    neighbour_average = _neighbour_average(padded.reshape(planes), bar.reshape(planes), scaled)
    for _ in range(iterations):
        neighbour_average()
        np.multiply(grad, bar, out=prod)
        np.add(prod_u, prod_v, out=shared)
        shared += ft
        shared /= denom
        np.multiply(grad, shared_planes, out=prod)
        np.subtract(bar, prod, out=padded)
    u += padded[:, 0, 1:-1, 1:-1]
    v += padded[:, 1, 1:-1, 1:-1]


def _chunk_clips(h: int, w: int) -> int:
    """How many (h, w) clips one Jacobi chunk takes: as many as fit _CHUNK_CELLS padded cells, at least one."""
    return max(1, _CHUNK_CELLS // (2 * (h + 2) * (w + 2)))


def _solve_level(im1, im2, u, v, alpha, iterations):
    """Refine the (n, H, W) flow stacks u, v in place on one pyramid level, one chunk of
    _chunk_clips clips at a time; `im1`, `im2` are the level's (n, H, W) frame stacks."""
    n, h, w = u.shape
    chunk = _chunk_clips(h, w)
    for part in (slice(start, start + chunk) for start in range(0, n, chunk)):
        _solve_chunk(im1[part], im2[part], u[part], v[part], alpha, iterations)


def _level_shapes(h: int, w: int, levels: int, scale: float) -> list[tuple[int, int]]:
    """The (H, W) of each pyramid level, finest first; stops early when a side would drop below 8 px."""
    shapes = [(h, w)]
    for _ in range(1, levels):
        new = (int(round(shapes[-1][0] * scale)), int(round(shapes[-1][1] * scale)))
        if min(new) < _MIN_SIDE or new == shapes[-1]:
            break
        shapes.append(new)
    return shapes


def _pyramid(values: np.ndarray, levels: int, scale: float) -> list[np.ndarray]:
    """Image pyramid of _level_shapes of each frame of values (..., H, W), finest first."""
    out = [values]
    for new_h, new_w in _level_shapes(*values.shape[-2:], levels, scale)[1:]:
        # computed only when a coarser level exists: a scale whose square underflows to 0.0 makes none
        sigma = 0.5 * np.sqrt(max(1.0 / (scale * scale) - 1.0, 0.0))
        smoothed = gaussian_smooth(out[-1], sigma) if sigma > 0 else out[-1]
        out.append(bilinear_resize(smoothed, new_h, new_w))
    return out


def stack_size(height: int, width: int, params: FlowParams | None = None) -> int:
    """How many (height, width) pairs one estimate_flow stack should hold.

    Enough to fill one chunk of the pyramid level whose chunk takes the
    fewest clips above one (7 at 32 px), so that level runs no part-filled
    chunk, and at most _STACK_PIXELS onset pixels: 7 pairs at 64 px and
    32 px, 2 at 128 px, 25 at 16 px.
    """
    params = params or FlowParams()
    shapes = _level_shapes(height, width, params.pyramid_levels, params.pyramid_scale)
    shared = [c for c in (_chunk_clips(h, w) for h, w in shapes) if c > 1]
    return max(1, min(min(shared, default=1), _STACK_PIXELS // (height * width)))


def check_frame_shapes(onset_shape: tuple, apex_shape: tuple) -> None:
    """Refuse (DataError) onset and apex frames, or stacks, that differ in shape or have a side below 8 px."""
    if onset_shape != apex_shape:
        raise DataError(f"frame dims differ: onset {onset_shape} vs apex {apex_shape}")
    if min(onset_shape[-2:]) < _MIN_SIDE:
        raise DataError(f"frames must be at least {_MIN_SIDE}px per side for flow estimation")


def estimate_flow(onset: GrayFrame, apex: GrayFrame, params: FlowParams | None = None) -> FlowField:
    """Estimate the dense displacement field carrying onset pixels to apex.

    Frames are (H, W) or (N, H, W) stacks of N pairs; the flow has their shape.
    """
    params = params or FlowParams()
    check_frame_shapes(onset.values.shape, apex.values.shape)

    # The conventional smoothness weight (default 15) is calibrated against
    # 8-bit luminance gradients, so the solver works on a 0..255 scale
    # internally; displacements are in pixels either way.
    # pyr1[level] is the (N, h, w) stack of onset frames at that level, finest level first.
    shape, clips = onset.values.shape, (-1, onset.height, onset.width)
    pyr1, pyr2 = (
        _pyramid(frame.values.reshape(clips) * 255.0, params.pyramid_levels, params.pyramid_scale)
        for frame in (onset, apex)
    )
    del onset, apex  # a caller that passed the frames unbound has them freed here

    u = np.zeros_like(pyr1[-1])
    v = np.zeros_like(u)

    while pyr1:  # coarsest first; each level is freed once solved
        im1, im2 = pyr1.pop(), pyr2.pop()
        h, w = im1.shape[1:]
        if u.shape[1:] != (h, w):
            scale_x, scale_y = w / u.shape[2], h / u.shape[1]
            u, v = bilinear_resize(u, h, w), bilinear_resize(v, h, w)
            u *= scale_x
            v *= scale_y
        _solve_level(im1, im2, u, v, params.smoothness_alpha, params.iterations)
        # before the next level's warp samples at x + u, y + v
        if not (np.isfinite(u).all() and np.isfinite(v).all()):
            raise NonFiniteFlowError(f"flow solver produced non-finite values on the {h}x{w} pyramid level")
    return FlowField(u=u.reshape(shape), v=v.reshape(shape))
