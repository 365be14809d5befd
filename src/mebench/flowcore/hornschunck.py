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

The flow convention is

    onset(x, y) ~= apex(x + u(x, y), y + v(x, y))

so a scene feature that moved by +t pixels from onset to apex yields
u = +t_x, v = +t_y.

The solver is fully deterministic: fixed iteration counts, fixed update
order, no data-dependent stopping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.ndimage import correlate, gaussian_filter, map_coordinates

from ..errors import ConfigError, DataError
from .frames import GrayFrame

# weighted 8-neighborhood average used for the smoothness term
_AVG_KERNEL = np.array(
    [[1 / 12, 1 / 6, 1 / 12], [1 / 6, 0.0, 1 / 6], [1 / 12, 1 / 6, 1 / 12]],
    dtype=np.float64,
)
# The nonzero taps of _AVG_KERNEL in row-major order, the order in which
# correlate accumulates them: (index into _AVG_WEIGHTS, row offset, column offset).
_AVG_WEIGHTS = np.unique(_AVG_KERNEL[_AVG_KERNEL != 0])
_AVG_TAPS = tuple(
    (_AVG_WEIGHTS.tolist().index(_AVG_KERNEL[i, j]), i - 1, j - 1) for i, j in np.argwhere(_AVG_KERNEL).tolist()
)

_MIN_SIDE = 8  # coarsest pyramid level is never smaller than this


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
        if not (np.isfinite(self.smoothness_alpha) and self.smoothness_alpha > 0):
            raise ConfigError(f"smoothness_alpha must be finite and > 0, got {self.smoothness_alpha}")
        if self.iterations < 1:
            raise ConfigError("iterations must be >= 1")
        if self.pyramid_levels < 1:
            raise ConfigError("pyramid_levels must be >= 1")
        if not (0.0 < self.pyramid_scale < 1.0):
            raise ConfigError("pyramid_scale must lie in (0, 1)")


@dataclass(frozen=True)
class FlowField:
    """Per-pixel displacement (u horizontal, v vertical), in pixels."""

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, dtype=np.float64)
        v = np.asarray(self.v, dtype=np.float64)
        if u.ndim != 2 or u.shape != v.shape:
            raise DataError(f"u/v shape mismatch: {u.shape} vs {v.shape}")
        u.flags.writeable = False
        v.flags.writeable = False
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    @property
    def shape(self) -> tuple[int, int]:
        return self.u.shape


def bilinear_resize(img: np.ndarray, new_h: int, new_w: int) -> np.ndarray:
    """Deterministic bilinear resize with corner-aligned sample coordinates."""
    h, w = img.shape
    if (new_h, new_w) == (h, w):
        return img.copy()
    ys = np.linspace(0.0, h - 1.0, new_h) if new_h > 1 else np.zeros(1)
    xs = np.linspace(0.0, w - 1.0, new_w) if new_w > 1 else np.zeros(1)
    grid_y, grid_x = np.meshgrid(ys, xs, indexing="ij")
    return map_coordinates(img, [grid_y, grid_x], order=1, mode="nearest")


def warp_bilinear(img: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Sample img at (x + u, y + v) with bilinear interpolation, edge-clamped.

    Exact at zero displacement: integer coordinates reproduce img bit-for-bit.
    """
    h, w = img.shape
    grid_y, grid_x = np.meshgrid(np.arange(h, dtype=np.float64), np.arange(w, dtype=np.float64), indexing="ij")
    return map_coordinates(img, [grid_y + v, grid_x + u], order=1, mode="nearest")


def _derivatives(im1: np.ndarray, im2: np.ndarray):
    """Spatial/temporal derivative estimates averaged over the frame pair (2x2 stencils)."""
    kx = np.array([[[-1, 1], [-1, 1]]], dtype=np.float64) * 0.25
    ky = np.array([[[-1, -1], [1, 1]]], dtype=np.float64) * 0.25
    kt = np.ones((1, 2, 2), dtype=np.float64) * 0.25
    pair = np.stack([im1, im2])
    cx = correlate(pair, kx, mode="nearest")
    cy = correlate(pair, ky, mode="nearest")
    ct = correlate(pair, kt, mode="nearest")
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


def _solve_level(im1, im2, u, v, alpha, iterations):
    """Refine (u, v) on one pyramid level: warp, then Jacobi-iterate the increment.

    Every per-step array lives on the 1 px padded grid and is updated in
    place. The increment (du, dv) is the interior of `padded`; each stencil
    refills its border, so the don't-care values the update leaves there are
    never read.
    """
    warped = warp_bilinear(im2, u, v)
    fx, fy, ft = _derivatives(im1, warped)
    grad = np.pad(np.stack([fx, fy]), ((0, 0), (1, 1), (1, 1)))
    ft = np.pad(ft, 1)
    denom = alpha * alpha + grad[0] * grad[0] + grad[1] * grad[1]
    padded = np.zeros_like(grad)
    bar = np.zeros_like(grad)
    prod = np.empty_like(grad)
    prod_u, prod_v = prod
    scaled = np.empty((len(_AVG_WEIGHTS), *grad.shape))
    shared = np.empty_like(ft)
    neighbour_average = _neighbour_average(padded, bar, scaled)
    for _ in range(iterations):
        neighbour_average()
        np.multiply(grad, bar, out=prod)
        np.add(prod_u, prod_v, out=shared)
        shared += ft
        shared /= denom
        np.multiply(grad, shared, out=prod)
        np.subtract(bar, prod, out=padded)
    du, dv = padded[:, 1:-1, 1:-1]
    return u + du, v + dv


def _pyramid(values: np.ndarray, levels: int, scale: float) -> list[np.ndarray]:
    """Image pyramid, finest first; stops early when a side would drop below 8 px."""
    out = [values]
    sigma = 0.5 * np.sqrt(max(1.0 / (scale * scale) - 1.0, 0.0))
    for _ in range(1, levels):
        prev = out[-1]
        new_h = int(round(prev.shape[0] * scale))
        new_w = int(round(prev.shape[1] * scale))
        if new_h < _MIN_SIDE or new_w < _MIN_SIDE or (new_h, new_w) == prev.shape:
            break
        smoothed = gaussian_filter(prev, sigma=sigma, mode="nearest") if sigma > 0 else prev
        out.append(bilinear_resize(smoothed, new_h, new_w))
    return out


def estimate_flow(onset: GrayFrame, apex: GrayFrame, params: FlowParams | None = None) -> FlowField:
    """Estimate the dense displacement field carrying onset pixels to apex."""
    params = params or FlowParams()
    if (onset.height, onset.width) != (apex.height, apex.width):
        raise DataError(
            f"frame dims differ: onset {onset.height}x{onset.width} vs apex {apex.height}x{apex.width}"
        )
    if min(onset.height, onset.width) < _MIN_SIDE:
        raise DataError(f"frames must be at least {_MIN_SIDE}px per side for flow estimation")

    # The conventional smoothness weight (default 15) is calibrated against
    # 8-bit luminance gradients, so the solver works on a 0..255 scale
    # internally; displacements are in pixels either way.
    pyr1 = _pyramid(onset.values * 255.0, params.pyramid_levels, params.pyramid_scale)
    pyr2 = _pyramid(apex.values * 255.0, params.pyramid_levels, params.pyramid_scale)

    u = np.zeros_like(pyr1[-1])
    v = np.zeros_like(pyr1[-1])

    for level in range(len(pyr1) - 1, -1, -1):
        im1, im2 = pyr1[level], pyr2[level]
        if u.shape != im1.shape:
            scale_x = im1.shape[1] / u.shape[1]
            scale_y = im1.shape[0] / u.shape[0]
            u = bilinear_resize(u, *im1.shape) * scale_x
            v = bilinear_resize(v, *im1.shape) * scale_y
        u, v = _solve_level(im1, im2, u, v, params.smoothness_alpha, params.iterations)

    if not (np.isfinite(u).all() and np.isfinite(v).all()):
        raise NonFiniteFlowError("flow solver produced non-finite values")
    return FlowField(u=u, v=v)
