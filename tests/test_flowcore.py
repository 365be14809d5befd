import hashlib
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.ndimage import correlate, gaussian_filter, map_coordinates

from mebench.errors import ConfigError, DataError
from mebench.flowcore import (
    FLOW_CLIP,
    STRAIN_CLIP,
    FlowField,
    FlowParams,
    GrayFrame,
    assemble_flow_image,
    NonFiniteFlowError,
    bilinear_resize,
    compute_strain,
    estimate_flow,
    frame_shape,
    load_frame,
    load_rgb_frame,
    read_flow_image,
    stack_size,
    warp_bilinear,
    write_flow_image,
    write_pgm,
)
from mebench.flowcore.flowimage import BadMagicError, NormalizationRecord, OpticalFlowImage, TruncatedFileError
from mebench.flowcore.frames import RasterFormatError
from mebench.flowcore import hornschunck
from mebench.flowcore.hornschunck import (
    _AVG_KERNEL,
    _AVG_WEIGHTS,
    _derivatives,
    _neighbour_average,
    _pyramid,
    gaussian_smooth,
    sample_bilinear,
)


def smooth_texture(h, w, seed, sigma=3.0):
    rng = np.random.Generator(np.random.PCG64(seed))
    t = gaussian_filter(rng.random((h, w)), sigma=sigma, mode="nearest")
    t = (t - t.min()) / (t.max() - t.min())
    return 0.1 + 0.8 * t


def translate_frame(tex, dx, dy):
    """Oracle warp: content moves by (+dx, +dy) px, bilinear resampled."""
    u = np.full_like(tex, -dx)
    v = np.full_like(tex, -dy)
    return np.clip(warp_bilinear(tex, u, v), 0.0, 1.0)


# ---------------------------------------------------------------- frames


class TestLoadFrame:
    def test_pgm_linear_scaling(self, tmp_path):
        p = tmp_path / "tiny.pgm"
        p.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 255, 128, 64]))
        frame = load_frame(p)
        expected = np.array([[0.0, 1.0], [128 / 255, 64 / 255]])
        np.testing.assert_allclose(frame.values, expected, rtol=0, atol=1e-12)
        assert abs(frame.values[1, 0] - 0.50196) < 1e-5
        assert abs(frame.values[1, 1] - 0.25098) < 1e-5

    def test_deterministic_reload(self, tmp_path):
        p = tmp_path / "f.pgm"
        write_pgm(p, smooth_texture(16, 16, 3))
        a = load_frame(p)
        b = load_frame(p)
        assert np.array_equal(a.values, b.values)

    def test_all_zero_image(self, tmp_path):
        p = tmp_path / "z.pgm"
        p.write_bytes(b"P5\n4 4\n255\n" + bytes(16))
        frame = load_frame(p)
        assert np.array_equal(frame.values, np.zeros((4, 4)))

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_frame(tmp_path / "nope.pgm")

    def test_unsupported_format(self, tmp_path):
        p = tmp_path / "bad.pgm"
        p.write_bytes(b"XY\n2 2\n255\n" + bytes(4))
        with pytest.raises(DataError):
            load_frame(p)

    def test_zero_sized_image(self, tmp_path):
        p = tmp_path / "empty.pgm"
        p.write_bytes(b"P5\n0 0\n255\n")
        with pytest.raises(DataError):
            load_frame(p)

    def test_rgb_luminance(self, tmp_path):
        p = tmp_path / "c.ppm"
        p.write_bytes(b"P6\n1 1\n255\n" + bytes([255, 0, 0]))
        frame = load_frame(p)
        assert abs(frame.values[0, 0] - 0.299) < 1e-12

    def test_rgb_frame_channels(self, tmp_path):
        p = tmp_path / "c.ppm"
        p.write_bytes(b"P6\n2 1\n255\n" + bytes([255, 0, 0, 0, 255, 0]))
        rgb, maxval = load_rgb_frame(p)
        assert rgb.shape == (3, 1, 2) and rgb.dtype == np.uint8 and maxval == 255
        assert rgb[0, 0, 0] == 255 and rgb[1, 0, 1] == 255

    @pytest.mark.parametrize(
        "data", [b"P2\n2 1\n255\n-5 10\n", b"P3\n1 1\n255\n-5 10 20\n"], ids=["P2", "P3"]
    )
    def test_negative_ascii_sample_is_refused(self, tmp_path, data):
        p = tmp_path / "negative.pnm"
        p.write_bytes(data)
        for loader in (load_frame, load_rgb_frame):
            with pytest.raises(RasterFormatError, match=r"outside \[0, maxval 255\]"):
                loader(p)

    def test_ascii_pgm(self, tmp_path):
        p = tmp_path / "a.pgm"
        p.write_text("P2\n# comment\n2 2\n255\n0 255\n128 64\n")
        frame = load_frame(p)
        assert frame.values[0, 1] == 1.0

    def test_truncated_pixels(self, tmp_path):
        p = tmp_path / "t.pgm"
        p.write_bytes(b"P5\n4 4\n255\n" + bytes(3))
        with pytest.raises(DataError):
            load_frame(p)

    @pytest.mark.parametrize(
        "data, shape, loads",
        [
            (b"P5\n3 2\n255\n" + bytes(6), (2, 3), True),
            (b"P6\n# w h\n1 4\n255\n" + bytes(12), (4, 1), True),
            (b"P2\n2 3\n7\n0 1 2 3 4 5\n", (3, 2), True),
            (b"P5\n4 4\n255\n" + bytes(3), (4, 4), False),  # truncated pixels: only the header is read
        ],
    )
    def test_frame_shape_reads_the_header(self, tmp_path, data, shape, loads):
        p = tmp_path / "f.pnm"
        p.write_bytes(data)
        assert frame_shape(p) == shape
        if loads:
            assert load_frame(p).values.shape == shape

    @pytest.mark.parametrize("data", [b"XY\n2 2\n255\n", b"P5\n0 2\n255\n", b"P5\n2 2\n", b"P5\n2 x\n255\n"])
    def test_frame_shape_refuses_a_bad_header(self, tmp_path, data):
        p = tmp_path / "bad.pgm"
        p.write_bytes(data)
        with pytest.raises(DataError):
            frame_shape(p)
        with pytest.raises(FileNotFoundError):
            frame_shape(tmp_path / "nope.pgm")

    @pytest.mark.parametrize("data", [b"P5", b"P5\n", b"P5\n2 # width\n", b"P6 2 2 ", b"P2\n2 2\n# no maxval"])
    def test_a_header_ending_before_its_maxval_names_the_file(self, tmp_path, data):
        p = tmp_path / "short.pgm"
        p.write_bytes(data)
        for read in (frame_shape, load_frame, load_rgb_frame):
            with pytest.raises(RasterFormatError, match=f"^{re.escape(str(p))}: truncated raster header$"):
                read(p)

    def test_values_out_of_range_rejected(self):
        with pytest.raises(DataError):
            GrayFrame(np.full((8, 8), 1.5))


# ---------------------------------------------------------------- flow


class TestEstimateFlow:
    def test_identical_frames_exact_zero(self):
        frame = GrayFrame(smooth_texture(32, 32, 5))
        flow = estimate_flow(frame, frame, FlowParams())
        assert np.all(flow.u == 0.0)
        assert np.all(flow.v == 0.0)

    @pytest.mark.parametrize("shift", [(1.0, 0.0), (0.0, 0.5), (2.0, 0.0)])
    def test_translation_recovery(self, shift):
        dx, dy = shift
        tex = smooth_texture(96, 96, 11)
        apex = translate_frame(tex, dx, dy)
        flow = estimate_flow(GrayFrame(tex), GrayFrame(apex), FlowParams())
        interior = (slice(5, -5), slice(5, -5))
        epe = np.sqrt((flow.u[interior] - dx) ** 2 + (flow.v[interior] - dy) ** 2).mean()
        assert epe < 0.2
        assert abs(flow.u[interior].mean() - dx) < 0.1
        assert abs(flow.v[interior].mean() - dy) < 0.1

    def test_dimension_mismatch(self):
        a = GrayFrame(smooth_texture(32, 32, 1))
        b = GrayFrame(smooth_texture(32, 48, 1))
        with pytest.raises(DataError):
            estimate_flow(a, b)

    def test_deterministic(self):
        tex = smooth_texture(48, 48, 7)
        apex = translate_frame(tex, 0.7, -0.3)
        f1 = estimate_flow(GrayFrame(tex), GrayFrame(apex))
        f2 = estimate_flow(GrayFrame(tex), GrayFrame(apex))
        assert np.array_equal(f1.u, f2.u) and np.array_equal(f1.v, f2.v)

    def test_bad_params(self):
        with pytest.raises(ConfigError):
            FlowParams(smoothness_alpha=0.0)
        with pytest.raises(ConfigError, match="finite"):
            FlowParams(smoothness_alpha=np.inf)
        with pytest.raises(ConfigError, match="finite"):
            FlowParams(smoothness_alpha=np.nan)
        with pytest.raises(ConfigError, match="squared must be a normal float"):
            FlowParams(smoothness_alpha=1e-160)  # its square is subnormal
        with pytest.raises(ConfigError, match="squared must be a normal float"):
            FlowParams(smoothness_alpha=1e-200)  # its square underflows to 0
        with pytest.raises(ConfigError, match="squared must be a normal float"):
            FlowParams(smoothness_alpha=1e160)  # its square overflows
        assert FlowParams(smoothness_alpha=1e-150).smoothness_alpha == 1e-150
        with pytest.raises(ConfigError):
            FlowParams(iterations=0)
        with pytest.raises(ConfigError):
            FlowParams(pyramid_scale=1.0)

    def test_a_scale_too_small_for_a_coarser_level_solves_one_level(self):
        # 1e-200 squared underflows to 0.0: no pyramid sigma may be computed when no level is coarser
        tex = smooth_texture(24, 24, 4)
        onset, apex = GrayFrame(tex), GrayFrame(translate_frame(tex, 0.7, -0.3))
        assert_same_flow(
            estimate_flow(onset, apex, FlowParams(pyramid_scale=1e-200)),
            estimate_flow(onset, apex, FlowParams(pyramid_levels=1)),
        )

    def test_too_small_frames(self):
        a = GrayFrame(np.zeros((4, 4)))
        with pytest.raises(DataError):
            estimate_flow(a, a)

    def test_non_finite_flow_is_refused_before_the_next_warp(self, monkeypatch):
        # alpha^2 underflows to 0, so the flat patch divides 0 by 0 on the coarsest level; the NaN flow
        # must stop there, not reach the next level's warp as a sampling coordinate. FlowParams refuses
        # such an alpha, so it is set past that check to reach the solver's own backstop
        params = FlowParams()
        object.__setattr__(params, "smoothness_alpha", 1e-200)
        rng = np.random.Generator(np.random.PCG64(4))
        tex = 0.1 + 0.8 * rng.random((64, 64))
        tex[8:56, 8:56] = 0.5
        apex = translate_frame(tex, 0.7, -0.4)
        warped = []

        def finite_warp(img, u, v):
            warped.append(np.isfinite(u).all() and np.isfinite(v).all())
            return warp_bilinear(img, u, v)

        monkeypatch.setattr(hornschunck, "warp_bilinear", finite_warp)
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteFlowError, match="16x16 pyramid level"):
                estimate_flow(GrayFrame(tex), GrayFrame(apex), params)
        assert warped == [True]
        assert issubclass(NonFiniteFlowError, DataError)  # exit 3 from the CLI


# ---------------------------------------------------------------- Jacobi stencil


def bits(a):
    """int64 view, so equality also compares the sign of zero and NaN payloads."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


def stencil(planes):
    """One call of a prepared _neighbour_average step on (n, H, W) planes in a NaN-bordered padded buffer."""
    n, h, w = planes.shape
    padded = np.full((n, h + 2, w + 2), np.nan)
    padded[:, 1:-1, 1:-1] = planes
    out = np.full_like(padded, np.nan)
    scaled = np.empty((len(_AVG_WEIGHTS), *padded.shape))
    _neighbour_average(padded, out, scaled)()
    return out[:, 1:-1, 1:-1]


def correlate_planes(planes):
    return np.stack([correlate(p, _AVG_KERNEL, mode="nearest") for p in planes])


SPECIAL_VALUES = {
    "neg-zero": -0.0,
    "subnormal": -1e-320,
    "pos-inf": np.inf,
    "neg-inf": -np.inf,
    "nan": np.nan,
}


class TestNeighbourAverage:
    @pytest.mark.parametrize("shape", [(8, 8), (8, 13), (32, 32), (64, 64), (128, 128)])
    def test_random_planes_match_correlate(self, shape):
        rng = np.random.Generator(np.random.PCG64(shape[0] * 1000 + shape[1]))
        planes = rng.normal(scale=3.0, size=(2, *shape))
        assert np.array_equal(bits(stencil(planes)), bits(correlate_planes(planes)))

    def test_all_negative_zero_sums_to_positive_zero(self):
        planes = np.full((2, 8, 13), -0.0)
        got = stencil(planes)
        assert np.array_equal(bits(got), bits(correlate_planes(planes)))
        assert not np.signbit(got).any()

    @pytest.mark.parametrize("where", ["centre", "corner", "edge"])
    @pytest.mark.parametrize("value", list(SPECIAL_VALUES.values()), ids=list(SPECIAL_VALUES))
    def test_special_values_match_correlate(self, value, where):
        rng = np.random.Generator(np.random.PCG64(3))
        planes = rng.normal(size=(2, 8, 13))
        planes[1] = -0.0
        pos = {"centre": (4, 6), "corner": (0, 0), "edge": (7, 5)}[where]
        planes[(0, *pos)] = value
        planes[(1, *pos)] = value
        with np.errstate(invalid="ignore"):
            got = stencil(planes)
        assert np.array_equal(bits(got), bits(correlate_planes(planes)))

    def test_prepared_step_reused_on_new_interior(self):
        # one prepared step, run twice on the same buffers: the second run starts from the first run's
        # border and sums, so stale views or a stale border would show
        rng = np.random.Generator(np.random.PCG64(8))
        first, second = rng.normal(scale=3.0, size=(2, 2, 9, 13))
        padded = np.full((2, 11, 15), np.nan)
        out = np.full_like(padded, np.nan)
        step = _neighbour_average(padded, out, np.empty((len(_AVG_WEIGHTS), *padded.shape)))
        for planes in (first, second):
            padded[:, 1:-1, 1:-1] = planes
            step()
            assert np.array_equal(bits(out[:, 1:-1, 1:-1]), bits(correlate_planes(planes)))

    def test_opposite_infinities_and_nan_match_correlate(self):
        planes = np.full((2, 8, 8), 1.5)
        planes[0, 3, 3], planes[0, 3, 4], planes[0, 4, 3] = np.inf, -np.inf, np.nan
        planes[1, 0, 0], planes[1, 0, 1], planes[1, 7, 7] = -np.inf, np.inf, -np.nan
        with np.errstate(invalid="ignore"):
            got = stencil(planes)
        assert np.array_equal(bits(got), bits(correlate_planes(planes)))


def _reference_derivatives(im1, im2):
    kx = np.array([[-1, 1], [-1, 1]], dtype=np.float64) * 0.25
    ky = np.array([[-1, -1], [1, 1]], dtype=np.float64) * 0.25
    kt = np.ones((2, 2), dtype=np.float64) * 0.25
    fx = correlate(im1, kx, mode="nearest") + correlate(im2, kx, mode="nearest")
    fy = correlate(im1, ky, mode="nearest") + correlate(im2, ky, mode="nearest")
    ft = correlate(im2, kt, mode="nearest") - correlate(im1, kt, mode="nearest")
    return fx, fy, ft


def _reference_solve_level(im1, im2, u, v, alpha, iterations):
    """Plain solver level: per-frame derivatives, two correlate calls per Jacobi step."""
    warped = warp_bilinear(im2, u, v)
    fx, fy, ft = _reference_derivatives(im1, warped)
    denom = alpha * alpha + fx * fx + fy * fy
    du = np.zeros_like(u)
    dv = np.zeros_like(v)
    for _ in range(iterations):
        du_bar = correlate(du, _AVG_KERNEL, mode="nearest")
        dv_bar = correlate(dv, _AVG_KERNEL, mode="nearest")
        shared = (fx * du_bar + fy * dv_bar + ft) / denom
        du = du_bar - fx * shared
        dv = dv_bar - fy * shared
    return u + du, v + dv


def reference_flow(onset, apex, params):
    """The one-pair pyramid loop, frozen: each level refined by _reference_solve_level."""
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
        u, v = _reference_solve_level(im1, im2, u, v, params.smoothness_alpha, params.iterations)
    return FlowField(u=u, v=v)


def assert_same_flow(a, b):
    assert np.array_equal(bits(a.u), bits(b.u)) and np.array_equal(bits(a.v), bits(b.v))


class TestSolverMatchesReference:
    @pytest.mark.parametrize("iterations", [1, 7, 200])
    @pytest.mark.parametrize("alpha", [15.0, 0.5])  # the default, and a weak smoothness term
    @pytest.mark.parametrize("levels", [1, 3])
    def test_translated_pair(self, levels, alpha, iterations):
        tex = smooth_texture(40, 52, 13)
        onset, apex = GrayFrame(tex), GrayFrame(translate_frame(tex, 1.3, -0.6))
        params = FlowParams(smoothness_alpha=alpha, iterations=iterations, pyramid_levels=levels)
        assert_same_flow(estimate_flow(onset, apex, params), reference_flow(onset, apex, params))

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(0, 10_000),
        st.integers(8, 40),
        st.integers(8, 40),
        st.integers(1, 30),
        st.integers(1, 3),
    )
    def test_random_frames(self, seed, h, w, iterations, levels):
        rng = np.random.Generator(np.random.PCG64(seed))
        onset, apex = GrayFrame(rng.random((h, w))), GrayFrame(rng.random((h, w)))
        params = FlowParams(iterations=iterations, pyramid_levels=levels)
        assert_same_flow(estimate_flow(onset, apex, params), reference_flow(onset, apex, params))

    @pytest.mark.parametrize("side", [64, 128])
    def test_benchmark_shapes_default_params(self, side):
        # the flow-128 and set-up shapes: three 200-step levels (side, side/2, side/4) under the defaults
        tex = smooth_texture(side, side, side)
        onset, apex = GrayFrame(tex), GrayFrame(translate_frame(tex, 0.8, -0.5))
        assert_same_flow(estimate_flow(onset, apex), reference_flow(onset, apex, FlowParams()))

    def test_flow_image_bytes_pinned(self, tmp_path):
        # sha256 of this pair's OFI file as written by the two-correlate solver
        tex = smooth_texture(48, 40, 21)
        flow = estimate_flow(GrayFrame(tex), GrayFrame(translate_frame(tex, 0.6, -0.4)))
        path = tmp_path / "pair.ofi"
        write_flow_image(assemble_flow_image(flow, compute_strain(flow)), path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "c6ef368c85a14ecbad235ec9e22229e2d6e5f028ab2558716b6078800177437c"


def textured_pairs(n, side, seed=0):
    """n onset/apex stacks (n, side, side): textures moved by sub-pixel shifts that vary per clip."""
    rng = np.random.Generator(np.random.PCG64(seed))
    onsets = np.stack([smooth_texture(side, side, seed * 1000 + i) for i in range(n)])
    apexes = np.stack([translate_frame(t, *rng.uniform(-1.5, 1.5, size=2)) for t in onsets])
    return onsets, apexes


def assert_stack_matches_pairs(onsets, apexes, params=None):
    flow = estimate_flow(GrayFrame(onsets), GrayFrame(apexes), params)
    assert flow.shape == onsets.shape
    for i, (onset, apex) in enumerate(zip(onsets, apexes)):
        assert_same_flow(FlowField(u=flow.u[i], v=flow.v[i]), estimate_flow(GrayFrame(onset), GrayFrame(apex), params))


class TestFlowStacks:
    def test_26_clips_cross_the_16px_chunk(self):
        # the coarsest level of a 64 px pair is 16 px: 2 planes of 18 x 18 padded cells per clip
        assert hornschunck._chunk_clips(16, 16) == hornschunck._CHUNK_CELLS // (2 * 18 * 18) == 25

    @pytest.mark.parametrize(
        "side, params, size",
        [
            (64, None, 7),  # fills one 32 px chunk
            (32, None, 7),
            (16, None, 25),
            (48, None, 3),
            (128, None, 2),  # the memory cap
            (256, None, 1),
            (64, FlowParams(pyramid_levels=1), 1),  # no level shares a chunk
            (64, FlowParams(pyramid_levels=4), 7),
        ],
    )
    def test_stack_size(self, side, params, size):
        assert stack_size(side, side, params) == size

    def test_a_64px_stack_fills_its_32px_chunk(self):
        assert stack_size(64, 64) == hornschunck._chunk_clips(32, 32)
        assert hornschunck._level_shapes(64, 64, 3, 0.5) == [(64, 64), (32, 32), (16, 16)]
        assert [level.shape for level in _pyramid(np.zeros((37, 64)), 5, 0.5)] == hornschunck._level_shapes(37, 64, 5, 0.5)

    @pytest.mark.parametrize("n", [1, 2, 8, 26])
    def test_each_clip_matches_its_pair_at_64px(self, n):
        assert_stack_matches_pairs(*textured_pairs(n, 64, seed=n))

    def test_each_clip_matches_its_pair_at_128px(self):
        assert_stack_matches_pairs(*textured_pairs(3, 128, seed=5))

    def test_zero_motion_pair_beside_a_textured_one(self):
        tex = smooth_texture(40, 40, 2)
        onsets = np.stack([tex, smooth_texture(40, 40, 3)])
        apexes = np.stack([tex, translate_frame(onsets[1], 0.9, -0.4)])
        assert_stack_matches_pairs(onsets, apexes, FlowParams(iterations=30))
        flow = estimate_flow(GrayFrame(onsets), GrayFrame(apexes), FlowParams(iterations=30))
        assert np.all(flow.u[0] == 0.0) and np.all(flow.v[0] == 0.0)

    def test_stack_sizes_must_agree(self):
        onsets, apexes = textured_pairs(3, 16)
        with pytest.raises(DataError, match="frame dims differ"):
            estimate_flow(GrayFrame(onsets), GrayFrame(apexes[:2]))
        with pytest.raises(DataError, match="frame dims differ"):
            estimate_flow(GrayFrame(onsets[0]), GrayFrame(apexes[:1]))

    @pytest.mark.parametrize("shape", [(16,), (1, 2, 16, 16), (0, 16), (0, 16, 16), (2, 0, 16)])
    def test_gray_frame_refuses_other_ranks_and_empty_arrays(self, shape):
        with pytest.raises(DataError, match="non-empty"):
            GrayFrame(np.zeros(shape))

    def test_gray_frame_stack_dims(self):
        frame = GrayFrame(np.zeros((3, 9, 11)))
        assert (frame.height, frame.width) == (9, 11)

    def test_flow_field_stack(self):
        assert FlowField(u=np.zeros((2, 8, 9)), v=np.zeros((2, 8, 9))).shape == (2, 8, 9)
        with pytest.raises(DataError):
            FlowField(u=np.zeros((2, 8, 9)), v=np.zeros((3, 8, 9)))
        with pytest.raises(DataError):
            FlowField(u=np.zeros((1, 2, 8, 9)), v=np.zeros((1, 2, 8, 9)))


class TestFlowMemory:
    def test_a_128px_stack_holds_only_what_its_level_reads(self):
        """The traced peak of one 2-clip 128 px solve, frames passed unbound as the flow step passes them.

        On the finest level the solve holds that level's frames and the flow (4 stacks of 0.25 MiB) and
        one chunk's 12 padded planes (1.55 MiB): 2.62 MiB in all. The 2.7 MiB bound leaves no room for
        any one of: the input frames (0.5 MiB), the coarse levels (0.16 MiB), the update's sum in a
        plane of its own (0.13 MiB), or the warp and derivatives run beside the padded arrays.
        """
        params = FlowParams(iterations=2)
        onsets, apexes = textured_pairs(2, 128)
        estimate_flow(GrayFrame(onsets), GrayFrame(apexes), params)  # warm caches and lazy imports
        tracemalloc.start()
        try:
            estimate_flow(GrayFrame(onsets.copy()), GrayFrame(apexes.copy()), params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.7 * 2**20, f"peak {peak / 2**20:.3f} MiB"

# ---------------------------------------------------------------- scipy.ndimage ports


def scipy_warp(img, u, v):
    """warp_bilinear as it was written on scipy."""
    h, w = img.shape
    grid_y, grid_x = np.meshgrid(np.arange(h, dtype=np.float64), np.arange(w, dtype=np.float64), indexing="ij")
    return map_coordinates(img, [grid_y + v, grid_x + u], order=1, mode="nearest")


def scipy_resize(img, new_h, new_w):
    """bilinear_resize as it was written on scipy."""
    h, w = img.shape
    if (new_h, new_w) == (h, w):
        return img.copy()
    ys = np.linspace(0.0, h - 1.0, new_h) if new_h > 1 else np.zeros(1)
    xs = np.linspace(0.0, w - 1.0, new_w) if new_w > 1 else np.zeros(1)
    grid_y, grid_x = np.meshgrid(ys, xs, indexing="ij")
    return map_coordinates(img, [grid_y, grid_x], order=1, mode="nearest")


def scipy_pyramid(values, levels, scale):
    """_pyramid as it was written on scipy."""
    out = [values]
    sigma = 0.5 * np.sqrt(max(1.0 / (scale * scale) - 1.0, 0.0))
    for new_h, new_w in hornschunck._level_shapes(*values.shape, levels, scale)[1:]:
        smoothed = gaussian_filter(out[-1], sigma=sigma, mode="nearest") if sigma > 0 else out[-1]
        out.append(scipy_resize(smoothed, new_h, new_w))
    return out


def awkward_values(rng, shape, spread):
    """Uniform draws in [-spread, spread] with about a fifth rounded to integers and a tenth set to -0.0."""
    values = rng.uniform(-spread, spread, size=shape)
    whole = rng.random(shape) < 0.2
    values[whole] = np.round(values[whole])
    values[rng.random(shape) < 0.1] = -0.0
    return values


# displacement spreads: none, sub-pixel, a few pixels, and far outside any frame
SPREADS = st.sampled_from([0.0, 0.5, 3.0, 1e3])

# the leading axes of a port's input: one (H, W) frame, or a stack of three
LEADS = pytest.mark.parametrize("lead", [(), (3,)], ids=["frame", "stack"])


def frames(x):
    """The (H, W) frames of an (..., H, W) array, in order."""
    return x.reshape(-1, *x.shape[-2:])


class TestScipyPorts:
    """Each numpy port against the scipy.ndimage expression it replaced, bit for bit. reference_flow calls the
    module's own warp_bilinear, bilinear_resize and _pyramid, so the solver pins do not guard these."""

    @LEADS
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 24), st.integers(1, 24), SPREADS)
    def test_warp_bilinear(self, lead, seed, h, w, spread):
        rng = np.random.Generator(np.random.PCG64(seed))
        img = awkward_values(rng, (*lead, h, w), 100.0)
        u, v = awkward_values(rng, img.shape, spread), awkward_values(rng, img.shape, spread)
        got = warp_bilinear(img, u, v)
        assert got.shape == img.shape
        for frame, *pair in zip(frames(got), frames(img), frames(u), frames(v)):
            assert np.array_equal(bits(frame), bits(scipy_warp(*pair)))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 24), st.integers(1, 24), st.integers(1, 24), st.integers(1, 24),
           st.booleans())
    def test_sample_bilinear_at_any_coordinates(self, seed, h, w, out_h, out_w, separable):
        # coordinates anywhere from far outside the frame to its far side, as a full field or a row and a column
        rng = np.random.Generator(np.random.PCG64(seed))
        img = awkward_values(rng, (h, w), 1.0)
        shape_y, shape_x = ((out_h, 1), (1, out_w)) if separable else ((out_h, out_w), (out_h, out_w))
        ys = awkward_values(rng, shape_y, 2.0 * h + 5.0)
        xs = awkward_values(rng, shape_x, 2.0 * w + 5.0)
        expected = map_coordinates(img, np.broadcast_arrays(ys, xs), order=1, mode="nearest")
        assert np.array_equal(bits(sample_bilinear(img, ys, xs)), bits(expected))

    @LEADS
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 40), st.integers(1, 40), st.integers(1, 80), st.integers(1, 80))
    def test_bilinear_resize(self, lead, seed, h, w, new_h, new_w):
        img = awkward_values(np.random.Generator(np.random.PCG64(seed)), (*lead, h, w), 50.0)
        got = bilinear_resize(img, new_h, new_w)
        assert got.shape == (*lead, new_h, new_w)
        for frame, source in zip(frames(got), frames(img)):
            assert np.array_equal(bits(frame), bits(scipy_resize(source, new_h, new_w)))

    @LEADS
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(8, 70), st.integers(8, 70), st.integers(1, 4),
           st.sampled_from([0.5, 0.6, 0.75, 0.9]))
    def test_pyramid(self, lead, seed, h, w, levels, scale):
        values = np.random.Generator(np.random.PCG64(seed)).random((*lead, h, w)) * 255.0
        got = _pyramid(values, levels, scale)
        for source, frame in zip(frames(values), zip(*(frames(level) for level in got))):
            expected = scipy_pyramid(source, levels, scale)
            assert len(frame) == len(expected)
            for a, b in zip(frame, expected):
                assert np.array_equal(bits(a), bits(b))

    @pytest.mark.parametrize("side", [32, 64, 128])
    def test_pyramid_at_the_flow_shapes(self, side):
        values = smooth_texture(side, side, side) * 255.0
        for a, b in zip(_pyramid(values, 3, 0.5), scipy_pyramid(values, 3, 0.5)):
            assert np.array_equal(bits(a), bits(b))

    @LEADS
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 30), st.integers(1, 30))
    def test_derivatives(self, lead, seed, h, w):
        rng = np.random.Generator(np.random.PCG64(seed))
        im1, im2 = awkward_values(rng, (*lead, h, w), 255.0), awkward_values(rng, (*lead, h, w), 255.0)
        got = [frames(d) for d in _derivatives(im1, im2)]
        assert all(d.shape == frames(im1).shape for d in got)
        for i, pair in enumerate(zip(frames(im1), frames(im2))):
            for a, b in zip(got, _reference_derivatives(*pair)):
                assert np.array_equal(bits(a[i]), bits(b))

    @pytest.mark.parametrize("first", ["+0", "-0", "columns", "rows"])
    @pytest.mark.parametrize("second", ["+0", "-0", "columns", "rows"])
    def test_derivatives_of_signed_zero_frames(self, first, second):
        # every tap product is a zero, so only the sum's order and its 0.0 start set the sign of each result
        zeros = {
            "+0": np.zeros((5, 6)),
            "-0": np.full((5, 6), -0.0),
            "columns": np.tile([0.0, -0.0], (5, 3)),
            "rows": np.tile([[0.0], [-0.0]], (3, 6))[:5],
        }
        im1, im2 = zeros[first], zeros[second]
        for a, b in zip(_derivatives(im1, im2), _reference_derivatives(im1, im2)):
            assert np.array_equal(bits(a), bits(b))

    @LEADS
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 40), st.integers(1, 40),
           st.one_of(st.sampled_from([0.5 * np.sqrt(3.0), 1.5, 5.0]), st.floats(0.01, 8.0)))
    def test_gaussian_smooth(self, lead, seed, h, w, sigma):
        # sides from 1 px, far below the radius (20 px at sigma 5), up to the radius and beyond
        img = awkward_values(np.random.Generator(np.random.PCG64(seed)), (*lead, h, w), 10.0)
        got = gaussian_smooth(img, sigma)
        assert got.flags.c_contiguous and got.shape == img.shape
        for frame, source in zip(frames(got), frames(img)):
            assert np.array_equal(bits(frame), bits(gaussian_filter(source, sigma=sigma, mode="nearest")))


# ---------------------------------------------------------------- strain


def grid_xy(h, w):
    y, x = np.meshgrid(np.arange(h, dtype=float), np.arange(w, dtype=float), indexing="ij")
    return x, y


class TestComputeStrain:
    def test_rigid_translation_zero(self):
        flow = FlowField(u=np.ones((16, 16)), v=np.zeros((16, 16)))
        s = compute_strain(flow)
        for comp in (s.exx, s.eyy, s.exy, s.magnitude):
            np.testing.assert_allclose(comp, 0.0, atol=1e-15)

    def test_linear_shear(self):
        x, _ = grid_xy(20, 20)
        s = compute_strain(FlowField(u=0.01 * x, v=np.zeros((20, 20))))
        inner = (slice(1, -1), slice(1, -1))
        np.testing.assert_allclose(s.exx[inner], 0.01, atol=1e-9)
        np.testing.assert_allclose(s.eyy[inner], 0.0, atol=1e-9)
        np.testing.assert_allclose(s.exy[inner], 0.0, atol=1e-9)
        np.testing.assert_allclose(s.magnitude[inner], 0.01, atol=1e-9)

    def test_cross_shear_against_finite_differences(self):
        x, _ = grid_xy(20, 20)
        v = 0.02 * x
        s = compute_strain(FlowField(u=np.zeros((20, 20)), v=v))
        inner = (slice(1, -1), slice(1, -1))
        # independent check: explicit central differences of v along x
        dvdx = np.empty_like(v)
        dvdx[:, 1:-1] = (v[:, 2:] - v[:, :-2]) / 2.0
        dvdx[:, 0] = v[:, 1] - v[:, 0]
        dvdx[:, -1] = v[:, -1] - v[:, -2]
        np.testing.assert_allclose(s.exy[inner], 0.5 * dvdx[inner], atol=1e-12)
        np.testing.assert_allclose(s.exy[inner], 0.01, atol=1e-9)
        np.testing.assert_allclose(s.magnitude[inner], np.sqrt(2 * 0.01**2), atol=1e-9)
        assert abs(s.magnitude[5, 5] - 0.014142) < 1e-6

    def test_magnitude_invariant(self):
        rng = np.random.Generator(np.random.PCG64(2))
        s = compute_strain(FlowField(u=rng.normal(size=(12, 12)), v=rng.normal(size=(12, 12))))
        np.testing.assert_allclose(
            s.magnitude**2, s.exx**2 + s.eyy**2 + 2 * s.exy**2, atol=1e-9
        )

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.floats(-5, 5), st.floats(-5, 5))
    def test_translation_invariance(self, seed, cu, cv):
        rng = np.random.Generator(np.random.PCG64(seed))
        u = rng.normal(size=(10, 10))
        v = rng.normal(size=(10, 10))
        a = compute_strain(FlowField(u=u, v=v))
        b = compute_strain(FlowField(u=u + cu, v=v + cv))
        np.testing.assert_allclose(a.magnitude, b.magnitude, atol=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_swap_transpose_symmetry(self, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        u = rng.normal(size=(9, 13))
        v = rng.normal(size=(9, 13))
        a = compute_strain(FlowField(u=u, v=v))
        b = compute_strain(FlowField(u=v.T, v=u.T))
        np.testing.assert_allclose(a.magnitude, b.magnitude.T, atol=1e-9)


# ---------------------------------------------------------------- flow image


def flat_flow(h, w, u_val=0.0, v_val=0.0):
    return FlowField(u=np.full((h, w), u_val), v=np.full((h, w), v_val))


class TestFlowImage:
    def test_zero_flow_midpoint(self):
        flow = flat_flow(8, 8)
        img = assemble_flow_image(flow, compute_strain(flow))
        assert np.all(img.channel_fx == 0.5)
        assert np.all(img.channel_fy == 0.5)
        assert np.all(img.channel_strain == 0.0)

    def test_clip_boundary(self):
        flow = flat_flow(8, 8, u_val=3.0)
        img = assemble_flow_image(flow, compute_strain(flow))
        assert np.all(img.channel_fx == 1.0)

    def test_clipping_with_warning_record(self):
        flow = flat_flow(8, 8, u_val=10.0)
        img = assemble_flow_image(flow, compute_strain(flow))
        assert np.all(img.channel_fx == 1.0)
        assert img.normalization.clip_fraction[0] == 1.0
        assert img.normalization.fx_clip == FLOW_CLIP

    def test_dims_mismatch(self):
        flow = flat_flow(8, 8)
        strain = compute_strain(flat_flow(8, 10))
        with pytest.raises(DataError):
            assemble_flow_image(flow, strain)

    def test_file_size_1x1(self, tmp_path):
        flow = flat_flow(1, 1)
        # 1x1 strain: gradient needs >=2 points per axis, build directly
        from mebench.flowcore.strain import StrainMap

        strain = StrainMap(
            exx=np.zeros((1, 1)), eyy=np.zeros((1, 1)), exy=np.zeros((1, 1)), magnitude=np.zeros((1, 1))
        )
        img = assemble_flow_image(flow, strain)
        path = tmp_path / "one.ofi"
        write_flow_image(img, path)
        assert path.stat().st_size == 48

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.Generator(np.random.PCG64(4))
        flow = FlowField(u=rng.normal(scale=2, size=(13, 9)), v=rng.normal(scale=2, size=(13, 9)))
        img = assemble_flow_image(flow, compute_strain(flow))
        path = tmp_path / "rt.ofi"
        write_flow_image(img, path)
        back = read_flow_image(path)
        assert back == img

    def test_read_image_is_the_files_block(self, tmp_path):
        rng = np.random.Generator(np.random.PCG64(5))
        flow = FlowField(u=rng.normal(scale=2, size=(7, 11)), v=rng.normal(scale=2, size=(7, 11)))
        path = tmp_path / "block.ofi"
        write_flow_image(assemble_flow_image(flow, compute_strain(flow)), path)
        img = read_flow_image(path)
        assert img.data.shape == (3, 7, 11) and img.data.dtype == np.float32
        assert not img.data.flags.writeable
        # the planes are views of that one array, laid out as the file stores them
        assert img.data.tobytes() == path.read_bytes()[12:-24]
        for plane in (img.channel_fx, img.channel_fy, img.channel_strain, *img.planes()):
            assert np.shares_memory(plane, img.data) and not plane.flags.writeable
        assert [p.shape for p in img.planes()] == [(7, 11)] * 3
        assert img.shape == (7, 11)
        assert np.array_equal(img.as_array(), img.data.astype(np.float64))

    def test_image_must_be_three_planes(self):
        with pytest.raises(DataError, match=r"must be \(3, H, W\), got shape \(2, 4, 4\)"):
            OpticalFlowImage(np.full((2, 4, 4), 0.5, dtype=np.float32), NormalizationRecord())
        with pytest.raises(DataError, match=r"got shape \(4, 4\)"):
            OpticalFlowImage(np.full((4, 4), 0.5, dtype=np.float32), NormalizationRecord())

    @pytest.mark.parametrize("channel", [0, 1, 2])
    @pytest.mark.parametrize(
        "value, problem",
        [(np.nan, "contains non-finite values"), (-np.inf, "contains non-finite values"),
         (1.5, r"not normalized to \[0, 1\]"), (-0.25, r"not normalized to \[0, 1\]")],
    )
    def test_image_names_its_first_bad_channel(self, channel, value, problem):
        data = np.full((3, 4, 4), 0.5, dtype=np.float32)
        data[channel, 1, 2] = value
        data[channel + 1 :, 3, 3] = np.nan  # a later bad channel does not mask this one
        name = ("channel_fx", "channel_fy", "channel_strain")[channel]
        with pytest.raises(DataError, match=f"^{name} {problem}$"):
            OpticalFlowImage(data, NormalizationRecord())

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ofi"
        path.write_bytes(b"OFI2" + bytes(44))
        with pytest.raises(BadMagicError):
            read_flow_image(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "trunc.ofi"
        path.write_bytes(b"OFI1" + np.array([4, 4], dtype="<u4").tobytes() + bytes(10))
        with pytest.raises(TruncatedFileError):
            read_flow_image(path)

    def test_trailing_bytes(self, tmp_path):
        flow = flat_flow(32, 32, u_val=0.5)
        path = tmp_path / "twice.ofi"
        write_flow_image(assemble_flow_image(flow, compute_strain(flow)), path)
        path.write_bytes(path.read_bytes() * 2)
        with pytest.raises(DataError, match="24648 bytes, the header declares 12324"):
            read_flow_image(path)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 12), st.integers(2, 12))
    def test_round_trip_property(self, seed, h, w):
        import tempfile
        from pathlib import Path

        rng = np.random.Generator(np.random.PCG64(seed))
        flow = FlowField(u=rng.normal(scale=4, size=(h, w)), v=rng.normal(scale=4, size=(h, w)))
        img = assemble_flow_image(flow, compute_strain(flow))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "x.ofi"
            write_flow_image(img, path)
            assert read_flow_image(path) == img
