import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import detsegeval
from detsegeval import geometry
from detsegeval.errors import (
    CoordinateBoundError,
    DegenerateRingError,
    DimensionMismatchError,
    EmptyMaskError,
)
from detsegeval.geometry import (
    BBox,
    PolygonSet,
    box_columns,
    box_ioa_columns,
    box_iou,
    box_iou_columns,
    connected_components,
    mask_iou,
    morphology,
    paint_runs,
    polygon_area,
    polygon_to_bbox,
    rasterize,
    rasterize_runs,
    rasterize_runs_many,
    ring_perimeter,
    simplify_polygon,
    trace_largest_contour,
)
from detsegeval.geometry import _rdp_chain, _trace_outer_ring
from conftest import polygon_set, run_mask, traced_peak_bytes
import reference_impl as ref
from reference_impl import pixel_iou, point_in_ring, polygon_pixels


def poly(*rings):
    return polygon_set(rings)


def box_ioa(a, b):
    """The scalar oracle of ``box_ioa_columns``, on two BBoxes."""
    return ref.box_ioa(a.as_list(), b.as_list())


def random_ring(rng, width=64, height=64, max_verts=8):
    """Random star-shaped (hence simple) polygon inside the grid."""
    cx = rng.uniform(10, width - 10)
    cy = rng.uniform(10, height - 10)
    n = rng.randint(3, max_verts)
    angles = sorted(rng.uniform(0, 2 * math.pi) for _ in range(n))
    ring = []
    for a in angles:
        r = rng.uniform(3, 9)
        ring.extend((cx + r * math.cos(a), cy + r * math.sin(a)))
    return ring


class TestPolygonArea:
    def test_unit_square(self):
        assert polygon_area([0, 0, 1, 0, 1, 1, 0, 1]) == 1.0

    def test_orientation_independent(self):
        assert polygon_area([0, 1, 1, 1, 1, 0, 0, 0]) == 1.0

    def test_triangle(self):
        assert polygon_area([0, 0, 4, 0, 0, 3]) == 6.0

    def test_degenerate(self):
        with pytest.raises(DegenerateRingError):
            polygon_area([0, 0, 1, 1])


class TestPolygonToBBox:
    def test_rectangle(self):
        assert polygon_to_bbox(poly([2, 3, 5, 3, 5, 7, 2, 7])) == BBox(2, 3, 3, 4)

    def test_two_ring_union_hull(self):
        p = poly([0, 0, 1, 0, 1, 1, 0, 1], [4, 4, 5, 4, 5, 5, 4, 5])
        assert polygon_to_bbox(p) == BBox(0, 0, 5, 5)

    def test_triangle(self):
        assert polygon_to_bbox(poly([0, 0, 4, 0, 0, 3])) == BBox(0, 0, 4, 3)

    def test_degenerate(self):
        with pytest.raises(DegenerateRingError):
            polygon_to_bbox(PolygonSet(()))

    def test_collinear_ring_has_no_extent(self):
        with pytest.raises(DegenerateRingError, match="zero extent"):
            polygon_to_bbox(poly([0, 2, 3, 2, 7, 2]))


class TestRasterize:
    @pytest.mark.parametrize("ring", [[0, 0, 4, 4], [0, 0, 4, 0, 4]],
                             ids=["two-vertices", "odd-length"])
    def test_degenerate_ring_rejected(self, ring):
        with pytest.raises(DegenerateRingError):
            rasterize_runs(poly(ring), 8, 8)

    def test_square_pixel_count(self):
        m = rasterize(poly([0, 0, 10, 0, 10, 10, 0, 10]), 20, 20)
        assert int(m.sum()) == 100
        assert m[:10, :10].all() and not m[10:, :].any() and not m[:, 10:].any()

    def test_outside_grid_is_empty(self):
        m = rasterize(poly([100, 100, 110, 100, 110, 110, 100, 110]), 20, 20)
        assert not m.any()

    def test_full_image(self):
        m = rasterize(poly([0, 0, 20, 0, 20, 20, 0, 20]), 20, 20)
        assert int(m.sum()) == 400

    def test_agrees_with_point_in_polygon_oracle(self):
        rng = random.Random(7)
        for _ in range(30):
            ring = random_ring(rng)
            m = rasterize(poly(ring), 64, 64)
            for row in range(64):
                for col in range(64):
                    assert m[row, col] == point_in_ring(col + 0.5, row + 0.5, ring)

    def test_boundary_band_bound(self):
        # |pixel count - shoelace area| <= perimeter + 4
        rng = random.Random(11)
        for _ in range(50):
            ring = random_ring(rng)
            count = int(rasterize(poly(ring), 64, 64).sum())
            assert abs(count - polygon_area(ring)) <= ring_perimeter(ring) + 4

    def test_grid_aligned_rectangles_are_exact(self):
        rng = random.Random(12)
        for _ in range(25):
            x, y = rng.randint(0, 30), rng.randint(0, 30)
            w, h = rng.randint(1, 20), rng.randint(1, 20)
            ring = [x, y, x + w, y, x + w, y + h, x, y + h]
            count = int(rasterize(poly(ring), 64, 64).sum())
            assert count == w * h


class TestMaskIou:
    def test_identical(self):
        m = np.zeros((8, 8), bool)
        m[1:4, 1:4] = True
        assert mask_iou(run_mask(m), run_mask(m)) == 1.0

    def test_disjoint(self):
        a = np.zeros((8, 8), bool)
        b = np.zeros((8, 8), bool)
        a[0:2, 0:2] = True
        b[5:7, 5:7] = True
        assert mask_iou(run_mask(a), run_mask(b)) == 0.0

    def test_shifted_block_third(self):
        a = np.zeros((20, 20), bool)
        b = np.zeros((20, 20), bool)
        a[0:10, 0:10] = True
        b[0:10, 5:15] = True
        assert mask_iou(run_mask(a), run_mask(b)) == pytest.approx(1 / 3)

    def test_both_empty(self):
        z = run_mask(np.zeros((4, 4), bool))
        assert mask_iou(z, z) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            mask_iou(run_mask(np.zeros((4, 4), bool)), run_mask(np.zeros((4, 5), bool)))


@st.composite
def _framed_polygon_pair(draw):
    """A small frame and two polygon sets on it.  Vertices lie on a
    quarter-pixel grid that reaches past every frame edge, so pixel
    centres, vertices on them, shared edges and clipping are common."""
    side = st.one_of(st.just(1), st.integers(1, 16))
    width, height = draw(side), draw(side)

    def coord(extent):
        return draw(st.integers(-12, 4 * extent + 12)) / 4

    def rings():
        return [[v for _ in range(draw(st.integers(3, 6)))
                 for v in (coord(width), coord(height))]
                for _ in range(draw(st.integers(1, 3)))]

    return width, height, rings(), rings()


class TestRunMask:
    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(_framed_polygon_pair())
    def test_runs_match_pixel_oracle(self, case):
        width, height, rings_a, rings_b = case
        runs_a = rasterize_runs(poly(*rings_a), width, height)
        runs_b = rasterize_runs(poly(*rings_b), width, height)
        painted_a, painted_b = runs_a.to_array(), runs_b.to_array()
        pixels_a = polygon_pixels(rings_a, width, height)
        pixels_b = polygon_pixels(rings_b, width, height)
        assert {(int(r), int(c)) for r, c in np.argwhere(painted_a)} == pixels_a
        assert np.array_equal(rasterize(poly(*rings_a), width, height), painted_a)
        assert runs_a.area == len(pixels_a)
        order = np.lexsort((runs_a.starts, runs_a.rows))
        assert np.array_equal(order, np.arange(len(order)))
        assert (runs_a.starts < runs_a.ends).all()
        iou = mask_iou(runs_a, runs_b)
        assert iou == mask_iou(run_mask(painted_a), run_mask(painted_b)) \
            == pixel_iou(pixels_a, pixels_b)

    def test_array_round_trip(self):
        m = np.zeros((5, 7), bool)
        m[0, :] = True
        m[2, 1:3] = m[2, 4:6] = True
        m[4, 6] = True
        runs = run_mask(m)
        assert runs.rows.tolist() == [0, 2, 2, 4]
        assert runs.starts.tolist() == [0, 1, 4, 6]
        assert runs.ends.tolist() == [7, 3, 6, 7]
        assert runs.area == int(m.sum())
        assert np.array_equal(runs.to_array(), m)

    def test_paint_runs_matches_slice_loop(self):
        # overlapping masks, and one without runs, painted on the window
        # of rows 2.. and columns 1.. of their 9 x 11 frame
        rng = np.random.default_rng(5)
        frames = [rng.random((9, 11)) < 0.4 for _ in range(3)] + [np.zeros((9, 11), bool)]
        for f in frames:
            f[:2] = f[:, :1] = False
        masks = [run_mask(f) for f in frames]
        expected = np.zeros((7, 10), bool)
        for m in masks:
            for r, s, e in zip(m.rows, m.starts, m.ends):
                expected[r - 2, s - 1:e - 1] = True
        assert np.array_equal(paint_runs(masks, 7, 10, 2, 1), expected)
        assert np.array_equal(expected, np.logical_or.reduce(frames)[2:, 1:])
        assert not paint_runs([], 3, 4).any() and not paint_runs(masks[3:], 3, 4).any()

    def test_painting_takes_no_more_than_the_frame(self):
        # a flat index of the 8.9 M set pixels would take 72 MB
        runs = rasterize_runs(poly([2, 2, 2990, 2, 2990, 2990, 2, 2990]), 3000, 3000)
        assert traced_peak_bytes(runs.to_array) < 12 * 2**20

    def test_size_independent_of_frame(self):
        square = poly([5, 5, 15, 5, 15, 15, 5, 15])
        runs = rasterize_runs(square, 10 ** 12, 10 ** 12)
        assert runs.rows.tolist() == list(range(5, 15))
        assert runs.area == 100

    def test_dimension_mismatch(self):
        square = poly([0, 0, 2, 0, 2, 2, 0, 2])
        with pytest.raises(DimensionMismatchError):
            mask_iou(rasterize_runs(square, 4, 4), rasterize_runs(square, 5, 4))

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(_framed_polygon_pair())
    def test_iou_is_symmetric_and_bounded(self, case):
        width, height, rings_a, rings_b = case
        a = rasterize_runs(poly(*rings_a), width, height)
        b = rasterize_runs(poly(*rings_b), width, height)
        iou = mask_iou(a, b)
        assert iou == mask_iou(b, a)
        assert 0.0 <= iou <= 1.0
        assert mask_iou(a, a) == (1.0 if a.area else 0.0)


def _pixels_of(mask):
    return {(r, c) for r, s, e in zip(mask.rows.tolist(), mask.starts.tolist(),
                                      mask.ends.tolist()) for c in range(s, e)}


@st.composite
def _raster_batch(draw):
    """Polygons, each on its own frame, for one rasterizer call: 1x1
    frames, rings reaching past every frame edge, multi-ring sets and at
    times a 10**12 x 10**12 frame, too large for the one-key sort; and a
    crossing cap and a vertex budget that may split the call into many
    passes and chunks."""
    def item(width, height, extent):
        def coord(side):
            return draw(st.integers(-12, 4 * side + 12)) / 4
        rings = [[v for _ in range(draw(st.integers(3, 6)))
                  for v in (coord(extent[0]), coord(extent[1]))]
                 for _ in range(draw(st.integers(1, 3)))]
        return rings, width, height

    items = []
    for _ in range(draw(st.integers(1, 8))):
        width = draw(st.one_of(st.just(1), st.integers(1, 12)))
        height = draw(st.one_of(st.just(1), st.integers(1, 12)))
        items.append(item(width, height, (width, height)))
    if draw(st.booleans()):
        items.insert(draw(st.integers(0, len(items))), item(10 ** 12, 10 ** 12, (12, 12)))
    return (items, draw(st.sampled_from([1, 2, 5, 40, 1 << 16])),
            draw(st.sampled_from([1, 3, 8, 20, 1 << 14])))


def _held_after_first_yield(items) -> int:
    """The traced bytes that ``rasterize_runs_many(items)`` holds once it
    has yielded its first mask."""
    tracemalloc.start()
    try:
        masks = rasterize_runs_many(items)
        next(masks)
        held = tracemalloc.get_traced_memory()[0]
        masks.close()
        return held
    finally:
        tracemalloc.stop()


class TestRasterizeMany:
    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(_raster_batch())
    def test_matches_oracle_and_single_calls(self, case):
        items, cap, budget = case
        polys = [(poly(*rings), width, height) for rings, width, height in items]
        with mock.patch.object(geometry, "_PASS_CROSSINGS", cap), \
                mock.patch.object(geometry, "_CHUNK_VERTICES", budget):
            masks = list(rasterize_runs_many(polys))
        assert len(masks) == len(items)
        for mask, (p, width, height), (rings, _, _) in zip(masks, polys, items):
            single = rasterize_runs(p, width, height)
            assert (mask.width, mask.height) == (width, height)
            for got, want in ((mask.rows, single.rows), (mask.starts, single.starts),
                              (mask.ends, single.ends)):
                assert got.dtype == want.dtype and np.array_equal(got, want)
            assert _pixels_of(mask) == polygon_pixels(rings, width, height)

    def test_empty_list(self):
        assert list(rasterize_runs_many([])) == []

    def test_memory_after_first_yield_does_not_grow_with_items(self):
        # Read whole, these 20,000 16-gons held about 50 MB after the
        # first yield, every item's per-edge arrays; 2,000 held 8 MB.
        angles = np.linspace(0, 2 * np.pi, 16, endpoint=False)
        ring = tuple(np.column_stack((50 + 30 * np.cos(angles),
                                      50 + 30 * np.sin(angles))).ravel().tolist())
        items = [(PolygonSet((ring,)), 100, 100)] * 20_000
        few, many = _held_after_first_yield(items[:2_000]), _held_after_first_yield(items)
        assert many <= few * 1.1 + 2 ** 16
        assert many < 8 * 2 ** 20

    def test_items_are_read_in_chunks(self):
        # With a budget of 8 vertices the squares go two to a chunk and
        # the 9-vertex polygon goes alone; a chunk's masks are yielded
        # once the item after it has been read, or the stream has ended.
        square, triangles = poly([0, 0, 4, 0, 4, 4, 0, 4]), poly(*[[0, 0, 4, 0, 4, 4]] * 3)
        read = []

        def stream():
            for k in range(7):
                read.append(k)
                yield (triangles if k == 4 else square), 8, 8

        with mock.patch.object(geometry, "_CHUNK_VERTICES", 8):
            seen = [(m.area, len(read)) for m in rasterize_runs_many(stream())]
        tri = rasterize_runs(triangles, 8, 8).area
        assert seen == [(16, 3), (16, 3), (16, 5), (16, 5), (tri, 6), (16, 7), (16, 7)]

    def test_polygon_without_rings_is_empty(self):
        square = poly([0, 0, 4, 0, 4, 4, 0, 4])
        masks = list(rasterize_runs_many([(square, 8, 8), (PolygonSet(()), 8, 8),
                                          (square, 4, 2)]))
        assert [m.area for m in masks] == [16, 0, 8]

    def test_unbounded_vertex_raises(self):
        # The triangle covers all 32 pixels, but 1e308 is beyond the bound:
        # its differences would overflow and the crossings turn to NaN.
        triangle = PolygonSet(((1e308, 0.5, -1e308, 10.5, -1e308, 0.5),))
        with pytest.raises(CoordinateBoundError):
            rasterize(triangle, 8, 4)
        at_bound = PolygonSet(((2.0 ** 64, 0.5, -2.0 ** 64, 10.5, -2.0 ** 64, 0.5),))
        assert int(rasterize(at_bound, 8, 4).sum()) == 32

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10 ** 400])
    def test_non_finite_vertex_raises(self, value):
        bad = PolygonSet(((0.0, 0.0, value, 0.0, 4.0, 4.0),))
        square = poly([0, 0, 4, 0, 4, 4, 0, 4])
        with pytest.raises(CoordinateBoundError):
            list(rasterize_runs_many([(square, 8, 8), (bad, 8, 8)]))

    def test_frame_side_bound(self):
        square = poly([0, 0, 4, 0, 4, 4, 0, 4])
        assert rasterize_runs(square, geometry.MAX_IMAGE_SIDE, 8).area == 16
        for width, height in ((0, 8), (8, 0), (geometry.MAX_IMAGE_SIDE + 1, 8)):
            with pytest.raises(ValueError):
                rasterize_runs(square, width, height)


# Frames by how the sweep orders run ends: rows x (width + 1) below
# 2**63 takes the one int64 key; from 2**63 on it falls back to lexsort.
_SWEEP_FRAMES = [(2 ** 31 - 1, 2 ** 32 - 1), (2 ** 31, 2 ** 32 - 1), (2 ** 52, 2 ** 52),
                 (2 ** 20, 2 ** 20)]


@st.composite
def _masks_on_frame(draw, count=st.integers(2, 4)):
    """Run masks drawn as pixel windows of at most 5 x 7 at one offset of
    a frame that is small, just below or at the size where the sweep's
    one key falls back to lexsort, or far past it; returns the frame's
    ``(height, width)``, the window's ``(y0, x0)`` and the masks."""
    height, width = draw(st.one_of(
        st.tuples(st.integers(1, 6), st.integers(1, 8)), st.sampled_from(_SWEEP_FRAMES)))
    h, w = min(height, 5), min(width, 7)
    y0, x0 = draw(st.integers(0, height - h)), draw(st.integers(0, width - w))
    pixel = st.booleans()
    masks = []
    for _ in range(draw(count)):
        window = np.array(draw(st.lists(st.lists(pixel, min_size=w, max_size=w),
                                        min_size=h, max_size=h)), dtype=bool)
        m = run_mask(window)
        masks.append(geometry.RunMask(width, height, m.rows + y0, m.starts + x0, m.ends + x0))
    return (height, width), (y0, x0), masks


def _window_of(pixels, h, w, y0, x0):
    out = np.zeros((h, w), dtype=bool)
    for r, c in pixels:
        out[r - y0, c - x0] = True
    return out


class TestSweep:
    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(_masks_on_frame())
    def test_both_orderings_match_the_painted_pixels(self, case):
        (height, width), (y0, x0), masks = case
        pixels = [_pixels_of(m) for m in masks]
        everything = set().union(*pixels)
        h, w = min(height, 5), min(width, 7)
        with mock.patch.object(np, "lexsort", wraps=np.lexsort) as lexsort:
            for a, pa in zip(masks, pixels):
                for b, pb in zip(masks, pixels):
                    assert mask_iou(a, b) == pixel_iou(pa, pb)
            rows, starts, ends = geometry._union(
                *(np.concatenate([getattr(m, k) for m in masks])
                  for k in ("rows", "starts", "ends")), (height, width))
            painted = paint_runs(masks, h, w, y0, x0)
        assert lexsort.called == (height * (width + 1) >= 2 ** 63)
        union = geometry.RunMask(width, height, rows, starts, ends)
        assert _pixels_of(union) == everything
        # sorted by (row, start), and no two runs of a row meet
        assert (starts < ends).all()
        same_row = rows[1:] == rows[:-1]
        assert (rows[1:] >= rows[:-1]).all() and (starts[1:][same_row] > ends[:-1][same_row]).all()
        assert np.array_equal(painted, _window_of(everything, h, w, y0, x0))

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(_masks_on_frame(count=st.just(2)), st.integers(1, 6), st.integers(0, 2))
    def test_column_disjoint_masks_skip_the_sweep(self, case, split, gap):
        # Mask a keeps the columns left of x0 + split and sets one pixel
        # in the last of them; mask b starts `gap` columns further right,
        # so gap 0 has a's last end equal to b's first start.
        (height, width), (y0, x0), (a, b) = case
        split = min(split, min(width, 7) - 1 - gap)
        if split < 1:
            return
        cut = x0 + split
        left = {(r, c) for r, c in _pixels_of(a) if c < cut} | {(y0, cut - 1)}
        right = {(r, c) for r, c in _pixels_of(b) if c >= cut + gap} | {(y0, cut + gap)}

        def mask(pixels):
            return geometry.RunMask(width, height, *(np.array(v, dtype=np.int64) for v in zip(
                *sorted((r, c, c + 1) for r, c in pixels))))

        a, b = mask(left), mask(right)
        assert a.ends.max() == cut and b.starts.min() == cut + gap
        with mock.patch.object(geometry, "_sweep", wraps=geometry._sweep) as sweep:
            assert mask_iou(a, b) == mask_iou(b, a) == 0.0 == pixel_iou(left, right)
        assert not sweep.called


def _box():
    """A box on a lattice or with real coordinates; the lattice makes
    shared and touching edges common, the reals rounding in ``x + w``."""
    lattice = st.integers(-4, 8).map(float)
    real = st.floats(-1e6, 1e6, allow_nan=False) | st.sampled_from([0.1, 0.2, 0.3, 1e-300])
    side = (st.integers(1, 6).map(float) | st.floats(1e-300, 1e6)
            | st.sampled_from([0.1, 0.2, 0.7, 2.0 ** 64]))
    return st.builds(BBox, lattice | real, lattice | real, side, side)


class TestBoxOverlap:
    def test_identical(self):
        assert box_iou(BBox(3, 4, 5, 6), BBox(3, 4, 5, 6)) == 1.0

    def test_one_seventh(self):
        assert box_iou(BBox(0, 0, 2, 2), BBox(1, 1, 2, 2)) == pytest.approx(1 / 7)

    def test_touching(self):
        assert box_iou(BBox(0, 0, 1, 1), BBox(1, 0, 1, 1)) == 0.0

    def test_underflowing_areas(self):
        tiny = BBox(0, 0, 1e-200, 1e-200)
        assert box_iou(tiny, tiny) == 0.0

    def test_ioa_contained(self):
        assert box_ioa(BBox(0, 0, 10, 10), BBox(2, 2, 3, 3)) == 1.0

    def test_ioa_disjoint(self):
        assert box_ioa(BBox(0, 0, 1, 1), BBox(5, 5, 1, 1)) == 0.0

    def test_ioa_half(self):
        assert box_ioa(BBox(0, 0, 4, 4), BBox(2, 0, 4, 4)) == 0.5

    def test_iou_bounded_by_both_ioas(self):
        rng = random.Random(3)
        for _ in range(200):
            a = BBox(rng.uniform(0, 20), rng.uniform(0, 20),
                     rng.uniform(1, 10), rng.uniform(1, 10))
            b = BBox(rng.uniform(0, 20), rng.uniform(0, 20),
                     rng.uniform(1, 10), rng.uniform(1, 10))
            iou = box_iou(a, b)
            assert iou <= min(box_ioa(a, b), box_ioa(b, a)) + 1e-12
            assert 0.0 <= iou <= 1.0
            assert box_iou(a, b) == box_iou(b, a)

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(st.lists(st.tuples(_box(), _box()), min_size=1, max_size=8))
    def test_iou_is_symmetric_bounded_and_columnar(self, pairs):
        ious = [box_iou(a, b) for a, b in pairs]
        assert ious == [box_iou(b, a) for a, b in pairs]
        assert all(0.0 <= iou <= 1.0 for iou in ious)
        cols = box_iou_columns(np.array([a.as_list() for a, _ in pairs]),
                               np.array([b.as_list() for _, b in pairs]))
        # Bit for bit: equal floats with equal signs.
        assert [v.hex() for v in cols.tolist()] == [v.hex() for v in ious]

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(st.lists(st.tuples(_box(), _box()), min_size=1, max_size=8))
    def test_ioa_columns_equal_box_ioa_bit_for_bit(self, pairs):
        cols = box_ioa_columns(box_columns(a for a, _ in pairs), box_columns(b for _, b in pairs))
        assert [v.hex() for v in cols.tolist()] == [box_ioa(a, b).hex() for a, b in pairs]

    @pytest.mark.parametrize("b", [
        BBox(0, 0, 1e-200, 1e-200),       # the area underflows to 0
        BBox(0, 0, 1e-160, 1e-160),       # a subnormal intersection and area
        BBox(0, 0.5, 5e-324, 4.0),        # the intersection underflows to 0
    ])
    def test_ioa_columns_on_vanishing_areas(self, b):
        a = BBox(0, 0, 1, 1)
        col = box_ioa_columns(box_columns([a]), box_columns([b])).tolist()
        assert [v.hex() for v in col] == [box_ioa(a, b).hex()]

    def test_rounded_extent_is_capped(self):
        # 0.1 + 0.2 - 0.1 rounds above 0.2, so the raw ratio exceeds 1.
        box = BBox(0.1, 0.1, 0.2, 0.2)
        assert box_iou(box, box) == 1.0
        assert box_iou_columns(np.array([box.as_list()]), np.array([box.as_list()]))[0] == 1.0

    def test_fine_raster_cross_check(self):
        # analytic IoU vs a 10x-subsampled raster of both boxes
        rng = random.Random(5)
        for _ in range(20):
            a = BBox(rng.randint(0, 20), rng.randint(0, 20),
                     rng.randint(2, 12), rng.randint(2, 12))
            b = BBox(rng.randint(0, 20), rng.randint(0, 20),
                     rng.randint(2, 12), rng.randint(2, 12))
            scale = 10
            ra = rasterize_runs(poly([v * scale for v in
                                      [a.x, a.y, a.x2, a.y, a.x2, a.y2, a.x, a.y2]]), 400, 400)
            rb = rasterize_runs(poly([v * scale for v in
                                      [b.x, b.y, b.x2, b.y, b.x2, b.y2, b.x, b.y2]]), 400, 400)
            assert box_iou(a, b) == pytest.approx(mask_iou(ra, rb), abs=0.01)


def painted(comp, shape):
    """The component painted back into a full frame."""
    frame = np.zeros(shape, bool)
    frame[comp.window] = comp.mask
    return frame


def reference_components(mask):
    """Full-frame components, one ``labels == lab`` frame per label,
    ordered by (-area, first set pixel in row-major scan)."""
    from scipy import ndimage

    labels, count = ndimage.label(mask, structure=np.ones((3, 3), bool))
    frames = [labels == lab for lab in range(1, count + 1)]
    return sorted(frames, key=lambda f: (-int(f.sum()), int(np.argmax(f.ravel()))))


def reference_morphology(mask, op, size, iterations):
    """``iterations`` passes of a ``size x size`` square erosion, then as
    many of the dilation (the reverse for close); each pass is an AND or
    an OR of the shifted copies of the zero-padded frame."""
    r = size // 2
    h, w = mask.shape

    def step(a, erode):
        padded = np.zeros((h + 2 * r, w + 2 * r), bool)
        padded[r:r + h, r:r + w] = a
        shifted = [padded[dy:dy + h, dx:dx + w] for dy in range(size) for dx in range(size)]
        return (np.logical_and if erode else np.logical_or).reduce(shifted)

    out = mask
    for erode in ((True, False) if op == "open" else (False, True)):
        for _ in range(iterations):
            out = step(out, erode)
    return out


@st.composite
def _morphology_case(draw):
    """A frame (some shorter or narrower than the element, some exactly
    one side wide or one cell narrower) holding a rectangle flush with
    one chosen edge, a second free rectangle and sparse noise.  Sides run
    from 1 to 33, among them 2**k + 1 (5, 9, 17, 33) and 2**(k+1) - 1
    (3, 7): the shortest and the longest last combine of the doubling."""
    op, size, iterations = (draw(st.sampled_from(["open", "close"])),
                            draw(st.sampled_from([1, 3, 5, 7, 9])), draw(st.integers(1, 4)))
    side = (size // 2) * iterations * 2 + 1
    fit = st.sampled_from(sorted({side, max(side - 1, 1)}))
    h, w = draw(st.sampled_from([(4, 40), (40, 4), (2, 30), (30, 2)])
                | st.tuples(st.integers(1, 24), st.integers(1, 24))
                | st.tuples(fit, st.integers(1, 40))
                | st.tuples(st.integers(1, 40), fit))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mask = rng.random((h, w)) < draw(st.sampled_from([0.0, 0.05, 0.3]))
    for edge in (draw(st.sampled_from(["top", "bottom", "left", "right"])), None):
        y0, y1 = sorted(rng.integers(0, h + 1, 2))
        x0, x1 = sorted(rng.integers(0, w + 1, 2))
        y0, y1 = {"top": (0, y1), "bottom": (y0, h)}.get(edge, (y0, y1))
        x0, x1 = {"left": (0, x1), "right": (x0, w)}.get(edge, (x0, x1))
        mask[y0:y1, x0:x1] = True
    return mask, op, size, iterations


@st.composite
def _random_mask(draw):
    height, width = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    density = draw(st.sampled_from([0.1, 0.3, 0.5, 0.7]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.random((height, width)) < density


class TestConnectedComponents:
    def test_two_blocks(self):
        m = np.zeros((10, 10), bool)
        m[1:4, 1:4] = True
        m[6:9, 6:9] = True
        comps = connected_components(m)
        assert len(comps) == 2
        assert [int(painted(c, m.shape).sum()) for c in comps] == [9, 9]
        assert [c.area for c in comps] == [9, 9]

    def test_diagonal_touch(self):
        m = np.zeros((4, 4), bool)
        m[0, 0] = m[1, 1] = True
        assert len(connected_components(m)) == 1

    def test_empty(self):
        assert connected_components(np.zeros((4, 4), bool)) == []

    def test_partition_property(self):
        rng = random.Random(13)
        for _ in range(10):
            m = np.array([[rng.random() < 0.4 for _ in range(16)]
                          for _ in range(16)], dtype=bool)
            comps = connected_components(m)
            union = np.zeros_like(m)
            total = 0
            for comp in comps:
                c = painted(comp, m.shape)
                assert comp.area == int(c.sum())
                assert not (union & c).any()  # pairwise disjoint
                union |= c
                total += int(c.sum())
            assert np.array_equal(union, m)
            assert total == int(m.sum())

    def test_ordering(self):
        m = np.zeros((12, 12), bool)
        m[0:2, 8:10] = True   # 4 px, starts later in scan order
        m[4:7, 0:3] = True    # 9 px
        m[0:2, 0:2] = True    # 4 px, first in scan order
        comps = connected_components(m)
        assert int(painted(comps[0], m.shape).sum()) == 9
        assert painted(comps[1], m.shape)[0, 0] and painted(comps[2], m.shape)[0, 8]

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(_random_mask())
    def test_matches_full_frame_reference(self, m):
        comps = connected_components(m)
        expected = reference_components(m)
        assert len(comps) == len(expected)
        for comp, frame in zip(comps, expected):
            assert np.array_equal(painted(comp, m.shape), frame)
            assert comp.bbox == polygon_to_bbox(PolygonSet((comp.outer_ring(),)))

    def test_noisy_frame_memory_is_bounded(self):
        m = np.random.default_rng(0).random((300, 300)) < 0.25
        comps = []
        peak = traced_peak_bytes(lambda: comps.extend(connected_components(m)))
        assert len(comps) == 5561
        assert peak < 16 * 2**20


class TestMorphology:
    def test_close_solid_block_unchanged(self):
        m = np.zeros((14, 14), bool)
        m[4:9, 4:9] = True
        assert np.array_equal(morphology(m, "close", 5, 1), m)

    def test_open_erases_small_blob(self):
        m = np.zeros((12, 12), bool)
        m[4:7, 4:7] = True  # 3x3 blob, erosion by 5x5 leaves nothing
        assert not morphology(m, "open", 5, 1).any()

    def test_open_idempotent(self):
        rng = random.Random(17)
        for _ in range(10):
            m = np.array([[rng.random() < 0.5 for _ in range(20)]
                          for _ in range(20)], dtype=bool)
            once = morphology(m, "open", 3, 1)
            assert np.array_equal(morphology(once, "open", 3, 1), once)

    def test_close_idempotent(self):
        rng = random.Random(19)
        for _ in range(10):
            m = np.array([[rng.random() < 0.5 for _ in range(20)]
                          for _ in range(20)], dtype=bool)
            once = morphology(m, "close", 3, 1)
            assert np.array_equal(morphology(once, "close", 3, 1), once)

    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(_morphology_case())
    def test_matches_shifted_square_reference(self, case):
        mask, op, size, iterations = case
        got = morphology(mask, op, size, iterations)
        assert got.dtype == bool
        assert np.array_equal(got, reference_morphology(mask, op, size, iterations))

    @pytest.mark.parametrize("op,size,iterations,expected", [
        ("open", 5, 10**9, 0),
        ("close", 5, 10**9, 0),
        # Side 59 fits the 60-px frame; only pixels 29 px from every
        # frame edge survive the closing's erosion.
        ("close", 3, 29, 4),
    ])
    def test_large_elements_are_exact_and_bounded(self, op, size, iterations, expected):
        m = np.zeros((60, 60), bool)
        m[20:40, 12:50] = True
        t0 = time.perf_counter()
        got = morphology(m, op, size, iterations)
        assert time.perf_counter() - t0 < 1.0
        assert int(got.sum()) == expected
        assert np.array_equal(got, reference_morphology(m, op, size, min(iterations, 60)))

    @pytest.mark.parametrize("op,size,iterations", [("close", 5, 1), ("open", 5, 3)])
    def test_frame_filling_blob_memory_is_bounded(self, op, size, iterations):
        yy, xx = np.ogrid[:3000, :3000]
        m = (yy - 1500) ** 2 + (xx - 1500) ** 2 < 1490 ** 2
        m[::97, ::89] = False
        out = []
        peak = traced_peak_bytes(lambda: out.append(morphology(m, op, size, iterations)))
        assert out[0].any()
        assert peak < 4 * m.size

    def test_short_frame_loop_does_not_crash(self):
        # scipy's iterated binary dilation has corrupted memory on 4-row
        # frames with a 5x5 element; run the loop in a child process so a
        # crash fails this test instead of ending the session.
        code = ("import numpy as np\n"
                "from detsegeval import morphology\n"
                "m = np.zeros((4, 40), bool)\n"
                "m[1:3, 5:30] = True\n"
                "for _ in range(2000):\n"
                "    morphology(m, 'close', 5, 2)\n"
                "    morphology(m, 'close', 3, 1)\n")
        env = dict(os.environ, PYTHONPATH=str(Path(detsegeval.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-c", code], env=env, timeout=60)
        assert proc.returncode == 0

    def test_invalid_args(self):
        m = np.zeros((4, 4), bool)
        with pytest.raises(ValueError):
            morphology(m, "open", 4, 1)
        with pytest.raises(ValueError):
            morphology(m, "erode", 3, 1)
        with pytest.raises(ValueError):
            morphology(m, "open", 3, 0)


class TestTraceContour:
    def test_block_corners(self):
        m = np.zeros((10, 10), bool)
        m[2:6, 2:6] = True
        ring = trace_largest_contour(m).rings[0]
        assert ring == (2.0, 2.0, 6.0, 2.0, 6.0, 6.0, 2.0, 6.0)

    def test_largest_selected(self):
        m = np.zeros((16, 16), bool)
        m[1:4, 1:4] = True      # 9 px
        m[6:11, 6:11] = True    # 25 px
        ring = trace_largest_contour(m).rings[0]
        assert polygon_to_bbox(PolygonSet((ring,))) == BBox(6, 6, 5, 5)

    def test_hole_is_filled(self):
        m = np.zeros((12, 12), bool)
        m[2:9, 2:9] = True
        m[4:6, 4:6] = False  # interior hole (4 px)
        traced = trace_largest_contour(m)
        back = rasterize(traced, 12, 12)
        assert int(back.sum()) == int(m.sum()) + 4

    def test_empty_raises(self):
        with pytest.raises(EmptyMaskError):
            trace_largest_contour(np.zeros((4, 4), bool))

    def test_reraster_reproduces_filled_silhouette(self):
        rng = random.Random(23)
        for _ in range(25):
            m = np.array([[rng.random() < 0.45 for _ in range(18)]
                          for _ in range(18)], dtype=bool)
            if not m.any():
                continue
            largest = painted(connected_components(m)[0], m.shape)
            back = rasterize(trace_largest_contour(m), 18, 18)
            # filled silhouette: largest component plus its enclosed holes
            assert np.array_equal(back & largest, largest)
            # nothing outside the component other than its holes: every
            # extra pixel must be unreachable from the border background
            from scipy import ndimage
            outside = np.pad(~largest, 1, constant_values=True)
            labels, n = ndimage.label(outside, structure=np.array(
                [[0, 1, 0], [1, 1, 1], [0, 1, 0]], bool))
            border_labels = set(labels[0, :]) | set(labels[-1, :]) | \
                set(labels[:, 0]) | set(labels[:, -1])
            holes = outside & ~np.isin(labels, sorted(border_labels))
            filled = largest | holes[1:-1, 1:-1]
            assert np.array_equal(back, filled)


@st.composite
def _tracer_case(draw):
    """A non-empty window of one of the shapes the tracer must walk,
    with a window origin that is often non-zero."""
    h, w = draw(st.integers(1, 20)), draw(st.integers(1, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["noise", "holes", "corners", "line", "pixel", "flush"]))
    if kind == "noise":
        mask = rng.random((h, w)) < draw(st.sampled_from([0.2, 0.5, 0.8]))
    elif kind == "holes":  # a solid block with pixels knocked out of it
        mask = np.zeros((h, w), bool)
        mask[rng.integers(0, h // 3 + 1):, rng.integers(0, w // 3 + 1):] = True
        mask &= rng.random((h, w)) > 0.15
    elif kind == "corners":  # pixels that touch only at corners
        rows, cols = np.indices((h, w))
        mask = ((rows + cols) % 2 == 0) & (rng.random((h, w)) < 0.8)
    elif kind == "line":
        mask = np.zeros((h, w), bool)
        if draw(st.booleans()):
            mask[rng.integers(0, h), rng.integers(0, w):] = True
        else:
            mask[rng.integers(0, h):, rng.integers(0, w)] = True
    elif kind == "pixel":
        mask = np.zeros((h, w), bool)
        mask[rng.integers(0, h), rng.integers(0, w)] = True
    else:  # a blob flush with one window edge, or filling the window
        mask = rng.random((h, w)) < 0.7
        edge = draw(st.sampled_from(["top", "bottom", "left", "right", "all"]))
        index = {"top": np.s_[0, :], "bottom": np.s_[-1, :], "left": np.s_[:, 0],
                 "right": np.s_[:, -1], "all": np.s_[:, :]}[edge]
        mask[index] = True
    if not mask.any():
        mask[0, 0] = True
    x0, y0 = draw(st.sampled_from([(0, 0), (3, 0), (0, 7)]) | st.tuples(
        st.integers(0, 5000), st.integers(0, 5000)))
    return mask, x0, y0


class TestTraceOracle:
    @settings(max_examples=500, derandomize=True, database=None, deadline=None)
    @given(_tracer_case())
    def test_matches_unit_edge_walk(self, case):
        mask, x0, y0 = case
        assert _trace_outer_ring(mask, x0, y0) == ref.trace_outer_ring(mask, x0, y0)


@st.composite
def _rdp_case(draw):
    """A chain of reals in +-600, or of lattice points in 0-30 (exact
    distance ties), with repeated points (zero-length segments)."""
    n = draw(st.integers(2, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        pts = rng.uniform(-600, 600, (n, 2))
    else:
        pts = rng.integers(0, 31, (n, 2)).astype(float)
    pts = [(float(x), float(y)) for x, y in pts]
    for _ in range(draw(st.integers(0, 4))):
        i, j = rng.integers(0, n, 2)
        pts[i] = pts[j]
    if draw(st.booleans()):
        pts[-1] = pts[0]
    return pts, draw(st.sampled_from([0.0, 0.5, 2.0, 25.0, 1e9]) | st.floats(0, 100))


class TestRdpOracle:
    @settings(max_examples=500, derandomize=True, database=None, deadline=None)
    @given(_rdp_case())
    def test_keeps_what_the_scalar_chain_keeps(self, case):
        pts, eps = case
        assert _rdp_chain(pts, eps) == ref.rdp_chain(pts, eps)
        back = pts[::-1]
        assert _rdp_chain(back, eps) == ref.rdp_chain(back, eps)

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(_rdp_case(), st.sampled_from([0.0, 0.001, 0.01, 0.1, 10.0]))
    def test_simplify_polygon_matches(self, case, ratio):
        pts, _ = case
        if len(pts) < 3:
            pts = pts + [(pts[0][0] + 1.0, pts[0][1] + 2.0)]
        for chain in (pts, pts[::-1]):
            ring = tuple(v for p in chain for v in p)
            expected = ref.simplify_polygon(ring, ratio)
            if expected is None:
                with pytest.raises(DegenerateRingError):
                    simplify_polygon(ring, ratio)
            else:
                assert simplify_polygon(ring, ratio) == expected


class TestSimplifyPolygon:
    def test_zero_epsilon_verbatim(self):
        ring = (0.0, 0.0, 5.0, 0.1, 10.0, 0.0, 10.0, 10.0, 0.0, 10.0)
        assert simplify_polygon(ring, 0) == ring

    def test_collinear_midpoint_removed(self):
        ring = [0, 0, 5, 0, 10, 0, 10, 10, 0, 10]
        out = simplify_polygon(ring, 0.001)
        assert len(out) == 8
        assert (5.0, 0.0) not in list(zip(out[0::2], out[1::2]))

    def test_output_vertices_subset_of_input(self):
        rng = random.Random(29)
        for _ in range(20):
            ring = random_ring(rng, max_verts=16)
            out = simplify_polygon(ring, 0.02)
            in_pts = set(zip(ring[0::2], ring[1::2]))
            out_pts = set(zip(out[0::2], out[1::2]))
            assert out_pts <= in_pts

    def test_deviation_bound_on_circle(self):
        n = 64
        ring = []
        for k in range(n):
            a = 2 * math.pi * k / n
            ring.extend((32 + 20 * math.cos(a), 32 + 20 * math.sin(a)))
        eps = 0.05 * ring_perimeter(ring)
        out = simplify_polygon(ring, 0.05)
        out_pts = list(zip(out[0::2], out[1::2]))
        kept = set(out_pts)
        for px, py in zip(ring[0::2], ring[1::2]):
            if (px, py) in kept:
                continue
            d = min(
                _seg_dist(px, py, out_pts[i], out_pts[(i + 1) % len(out_pts)])
                for i in range(len(out_pts))
            )
            assert d <= eps + 1e-9

    def test_negative_ratio_rejected(self):
        with pytest.raises(ValueError, match="epsilon_ratio must be >= 0"):
            simplify_polygon([0, 0, 4, 0, 4, 4], -0.01)

    def test_collapse_raises(self):
        # near-degenerate sliver collapses below 3 vertices at huge epsilon
        ring = [0, 0, 10, 0.001, 20, 0, 10, -0.001]
        with pytest.raises(DegenerateRingError):
            simplify_polygon(ring, 10.0)


def _seg_dist(px, py, a, b):
    ax, ay = a
    bx, by = b
    dx, dy = bx - ax, by - ay
    l2 = dx * dx + dy * dy
    if l2 == 0:
        return math.hypot(px - ax, py - ay)
    t = max(0.0, min(1.0, ((px - ax) * dx + (py - ay) * dy) / l2))
    return math.hypot(px - (ax + t * dx), py - (ay + t * dy))


class TestMaskToBBox:
    """The pixel box of a mask, read from its components' windows."""

    def test_single_pixel(self):
        m = np.zeros((10, 10), bool)
        m[3, 7] = True
        assert connected_components(m)[0].bbox == BBox(7, 3, 1, 1)

    def test_block(self):
        m = np.zeros((10, 10), bool)
        m[2:6, 2:6] = True
        assert connected_components(m)[0].bbox == BBox(2, 2, 4, 4)

    def test_full(self):
        m = np.ones((6, 9), bool)
        assert connected_components(m)[0].bbox == BBox(0, 0, 9, 6)

    def test_polygon_hull_contains_raster_hull_within_1px(self):
        rng = random.Random(31)
        for _ in range(30):
            ring = random_ring(rng)
            p = poly(ring)
            m = rasterize(p, 64, 64)
            if not m.any():
                continue
            pb = polygon_to_bbox(p)
            # the raster hull is the union of the component boxes
            boxes = [c.bbox for c in connected_components(m)]
            x, y = min(b.x for b in boxes), min(b.y for b in boxes)
            x2, y2 = max(b.x2 for b in boxes), max(b.y2 for b in boxes)
            assert x >= pb.x - 1 and y >= pb.y - 1
            assert x2 <= pb.x2 + 1 and y2 <= pb.y2 + 1
