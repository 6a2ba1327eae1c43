"""Planar and raster primitives: polygon math, rasterization, overlap
measures, connected components, binary morphology, contour tracing and
polygon simplification.

Conventions used throughout:

* Boxes follow the COCO convention ``[x, y, w, h]`` with the origin at the
  top-left corner of the image.
* Masks are ``numpy`` boolean arrays of shape ``(height, width)``; pixel
  ``(row i, col j)`` covers the unit square ``[j, j+1] x [i, i+1]`` and its
  center sits at ``(j + 0.5, i + 0.5)``.
* A pixel is inside a polygon iff its center is inside under the even-odd
  rule; a center exactly on a boundary crossing counts edges strictly to
  its left.  This rule is the single source of truth for every
  polygon-based overlap measure in the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from bisect import bisect_right
from itertools import accumulate, chain
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import (
    CoordinateBoundError,
    DegenerateRingError,
    DimensionMismatchError,
    EmptyMaskError,
)

Ring = Sequence[float]  # flat vertex list [x1, y1, x2, y2, ...]

_STRUCT_8 = np.ones((3, 3), dtype=bool)


class BBox(NamedTuple):
    """Axis-aligned box, COCO ``[x, y, w, h]`` convention."""

    x: float
    y: float
    w: float
    h: float

    @property
    def x2(self) -> float:
        return self.x + self.w

    @property
    def y2(self) -> float:
        return self.y + self.h

    @property
    def area(self) -> float:
        return self.w * self.h

    def as_list(self) -> list[float]:
        return list(self)


class PolygonSet(NamedTuple):
    """One or more polygon rings; the region is the union of the rings."""

    rings: tuple[tuple[float, ...], ...]

    def as_lists(self) -> list[list[float]]:
        return [list(ring) for ring in self.rings]


def _check_ring(ring: Ring) -> Ring:
    if len(ring) < 6 or len(ring) % 2 != 0:
        raise DegenerateRingError(
            f"ring needs at least 3 (x, y) vertices, got {len(ring)} coordinates"
        )
    return ring


def _ring_points(ring: Ring) -> list[tuple[float, float]]:
    _check_ring(ring)
    return [(float(ring[i]), float(ring[i + 1])) for i in range(0, len(ring), 2)]


def polygon_area(ring: Ring) -> float:
    """Unsigned shoelace area of one ring (orientation independent).  It
    is taken about the first vertex, so a small ring far from the origin
    keeps its area instead of cancelling to zero."""
    pts = _ring_points(ring)
    x0, y0 = pts[0]
    acc = 0.0
    for (x1, y1), (x2, y2) in zip(pts, pts[1:] + pts[:1]):
        acc += (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)
    return abs(acc) / 2.0


def ring_perimeter(ring: Ring) -> float:
    pts = _ring_points(ring)
    return sum(
        math.hypot(x2 - x1, y2 - y1)
        for (x1, y1), (x2, y2) in zip(pts, pts[1:] + pts[:1])
    )


def polygon_to_bbox(poly: PolygonSet) -> BBox:
    """Tight axis-aligned hull over the vertices of all rings."""
    xs: list[float] = []
    ys: list[float] = []
    for ring in poly.rings:
        for x, y in _ring_points(ring):
            xs.append(x)
            ys.append(y)
    if not xs:
        raise DegenerateRingError("polygon has no rings")
    w = max(xs) - min(xs)
    h = max(ys) - min(ys)
    if w <= 0 or h <= 0:
        raise DegenerateRingError("polygon hull has zero extent")
    return BBox(min(xs), min(ys), w, h)


@dataclass(frozen=True, eq=False)
class RunMask:
    """A ``height x width`` mask stored as row runs: pixel ``(rows[k], c)``
    is set for ``starts[k] <= c < ends[k]``.  Runs are sorted by
    ``(row, start)`` and disjoint.  Rows and columns are kept apart rather
    than folded into one flat index, which could overflow int64 on the
    large frames the ground truth may declare."""

    width: int
    height: int
    rows: np.ndarray
    starts: np.ndarray
    ends: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return (self.height, self.width)

    @property
    def area(self) -> int:
        return int((self.ends - self.starts).sum())

    def to_array(self) -> np.ndarray:
        return paint_runs([self], self.height, self.width)


def paint_runs(masks: Sequence[RunMask], height: int, width: int,
               y0: int = 0, x0: int = 0) -> np.ndarray:
    """The union of ``masks`` as a bool ``height x width`` window of their
    frame whose top-left pixel is ``(x0, y0)``; every run must lie inside
    the window.  The flattened window alternates gaps and runs, so one
    ``repeat`` of a False/True pattern paints it, with no array larger
    than the window (a flat index of the pixels would take 8 bytes each)."""
    if not masks:
        return np.zeros((height, width), dtype=bool)
    rows, starts, ends = (np.concatenate([getattr(m, name) for m in masks])
                          for name in ("rows", "starts", "ends"))
    if len(masks) > 1:  # runs of different masks may overlap
        rows, starts, ends = _union(rows, starts, ends, masks[0].shape)
    first = (rows - y0) * width + (starts - x0)
    bounds = np.empty(2 * len(first) + 2, dtype=np.int64)
    bounds[0], bounds[-1] = 0, height * width
    bounds[1:-1:2], bounds[2:-1:2] = first, first + (ends - starts)
    pattern = np.arange(len(bounds) - 1) % 2 == 1
    return pattern.repeat(np.diff(bounds)).reshape(height, width)


# Pixel centres i + 0.5 stay exact in float64 up to this side length.
MAX_IMAGE_SIDE = 2 ** 52
# No vertex lies farther from the origin than this, so no difference,
# product or area of two coordinates overflows a float64.
MAX_COORDINATE = 2.0 ** 64
# The most edge-row crossings one numpy pass of the rasterizer holds, a
# few MB of working arrays; a polygon with more crossings runs alone.
_PASS_CROSSINGS = 1 << 16
# The most vertices the rasterizer reads ahead of a yield, a few MB of
# per-edge arrays; a polygon with more is read alone.
_CHUNK_VERTICES = 1 << 14


def rasterize_runs_many(items: Iterable[tuple[PolygonSet, int, int]]) -> Iterator[RunMask]:
    """Yield :func:`rasterize_runs` of each ``(polygon, width, height)``,
    in order.

    ``items`` is read in chunks of at most ``_CHUNK_VERTICES`` vertices
    (a polygon with more is read alone), and a chunk's polygons share
    numpy passes of at most ``_PASS_CROSSINGS`` edge-row crossings each
    (a polygon with more runs alone), so working memory stays bounded
    however many are given.  Raises :class:`CoordinateBoundError` for a
    vertex that is not finite or lies beyond ``MAX_COORDINATE``, and
    ``ValueError`` for a frame side outside ``[1, MAX_IMAGE_SIDE]``, when
    the chunk holding it is read.
    """
    chunk, vertices = [], 0
    for item in items:
        size = sum(map(len, item[0].rings)) // 2
        if chunk and vertices + size > _CHUNK_VERTICES:
            yield from _rasterize_chunk(chunk)
            chunk, vertices = [], 0
        chunk.append(item)
        vertices += size
    if chunk:
        yield from _rasterize_chunk(chunk)


def _rasterize_chunk(items: list[tuple[PolygonSet, int, int]]) -> Iterator[RunMask]:
    """The run masks of a non-empty list of items, in passes of at most
    ``_PASS_CROSSINGS`` crossings."""
    frames = [(w, h) for _, w, h in items]
    if not all(1 <= w <= MAX_IMAGE_SIDE and 1 <= h <= MAX_IMAGE_SIDE for w, h in frames):
        raise ValueError(f"grid dimensions must be between 1 and {MAX_IMAGE_SIDE}")
    ring_counts = [len(poly.rings) for poly, _, _ in items]
    rings = [ring for poly, _, _ in items for ring in poly.rings]
    sizes = list(map(len, rings))
    if not all(size >= 6 and size % 2 == 0 for size in sizes):
        for ring in rings:
            _check_ring(ring)
    try:
        xy = np.fromiter(chain.from_iterable(rings), np.float64, sum(sizes)).reshape(-1, 2)
    except OverflowError as exc:  # an integer too large for a float
        raise CoordinateBoundError(f"a vertex lies beyond {MAX_COORDINATE:.0f}") from exc
    if not np.abs(xy).max(initial=0.0) <= MAX_COORDINATE:  # NaN fails too
        raise CoordinateBoundError(f"a vertex is not finite or lies beyond {MAX_COORDINATE:.0f}")

    # One edge per vertex, to its successor along its own ring.
    n = np.array(sizes, dtype=np.int64) // 2
    last = n.cumsum() - 1
    nxt = np.arange(1, len(xy) + 1)
    nxt[last] = last - n + 1
    x1, y1 = xy.T
    if len(set(frames)) == 1:
        width, height = frames[0]
    else:
        width, height = (np.array(frames, dtype=np.int64).repeat(ring_counts, axis=0)
                         .repeat(n, axis=0).T)
    # Edge e crosses the centres of rows i0..i1: those with ymin <= i + 0.5
    # < ymax.  y -> ceil(y - 0.5) is monotone, so it is taken per vertex.
    # A horizontal edge has i0 > i1 and is dropped with the clipped ones.
    row = np.ceil(y1 - 0.5)
    row_next = row[nxt]
    i0, i1 = np.minimum(row, row_next), np.maximum(row, row_next) - 1
    np.maximum(i0, 0, out=i0)
    np.minimum(i1, height - 1, out=i1)
    kept = (i0 <= i1).nonzero()[0]
    i0 = i0[kept].astype(np.int64)
    counts = i1[kept].astype(np.int64) - i0 + 1
    kept_next = nxt[kept]
    x1, y1, dx, dy = x1[kept], y1[kept], x1[kept_next], y1[kept_next]
    dx -= x1
    dy -= y1
    top = width - 0.5 if np.isscalar(width) else width[kept] - 0.5
    ring = last.searchsorted(kept)
    through = counts.cumsum()  # crossings of each edge and of all before it
    # Crossing c, counted over all edges, lies on row c + shift[its edge].
    shift = i0 - (through - counts)
    # One int64 key, (ring * h_max + row) * cols_max + col, orders the
    # crossings unless the frames are too large for it.
    h_max, cols_max = max(h for _, h in frames), max(w for w, _ in frames) + 1
    fits = len(rings) * h_max * cols_max < 2 ** 63
    base = ring * (h_max * cols_max) if fits else None
    # Polygon k's edges end at edge_end[k] and its crossings at cross_end[k].
    edge_end = ring.searchsorted(list(accumulate(ring_counts))).tolist()
    cross_end = np.concatenate(([0], through))[edge_end].tolist()

    k0 = e0 = c0 = 0
    while k0 < len(items):
        k1 = max(k0 + 1, bisect_right(cross_end, c0 + _PASS_CROSSINGS))
        e1, c1 = edge_end[k1 - 1], cross_end[k1 - 1]
        repeats = counts[e0:e1]
        rows = np.arange(c0, c1) + shift[e0:e1].repeat(repeats)
        # x1 + (row + 0.5 - y1) * dx / dy, in that order of operations
        xc = rows + 0.5
        xc -= y1[e0:e1].repeat(repeats)
        xc *= dx[e0:e1].repeat(repeats)
        xc /= dy[e0:e1].repeat(repeats)
        xc += x1[e0:e1].repeat(repeats)
        # A crossing at x flips every pixel whose centre lies strictly to
        # its right, from column floor(x - 0.5) + 1 on, clamped to
        # [0, width].  Clamping x to [-0.5, width - 0.5] first gives the
        # same columns and keeps the int conversion from overflowing.
        np.clip(xc, -0.5, top if np.isscalar(top) else top[e0:e1].repeat(repeats), out=xc)
        xc -= 0.5
        cols = np.floor(xc, out=xc).astype(np.int64)
        cols += 1
        if fits:
            key = rows * cols_max
            key += cols
            key += base[e0:e1].repeat(repeats)
            order = key.argsort(kind="stable")
        else:
            order = np.lexsort((cols, rows, ring[e0:e1].repeat(repeats)))
        # Each ring crosses each row centre an even number of times, so
        # consecutive flips pair up into that ring's runs; empty runs go.
        cols = cols[order]
        starts, ends = cols[0::2], cols[1::2]
        runs = (starts < ends).nonzero()[0]
        rows, starts, ends = rows[order[0::2][runs]], starts[runs], ends[runs]
        bounds = runs.searchsorted([(c - c0) // 2 for c in cross_end[k0:k1]]).tolist()
        a = 0
        for (_, w, h), n_rings, b in zip(items[k0:k1], ring_counts[k0:k1], bounds):
            mask = rows[a:b], starts[a:b], ends[a:b]
            yield RunMask(w, h, *(_union(*mask, (h, w)) if n_rings > 1 else mask))
            a = b
        k0, e0, c0 = k1, e1, c1


def _sweep(rows: np.ndarray, starts: np.ndarray, ends: np.ndarray, shape: tuple[int, int]
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The run ends of ``(rows, starts, ends)`` on a ``shape`` frame in
    (row, col) order, as ``(row, col, delta, cover)``: ``delta`` is +1 at
    a start and -1 at an end, and ``cover`` counts the runs open just
    after each end.  The sort is stable and the starts come first, so at
    a tie a start precedes an end."""
    height, width = shape
    rows, cols = np.concatenate((rows, rows)), np.concatenate((starts, ends))
    if height * (width + 1) < 2 ** 63:
        # One int64 key, row * (width + 1) + col; the halves are sorted
        # runs of it, which the stable sort merges.
        key = rows * np.int64(width + 1)
        key += cols
        order = key.argsort(kind="stable")
    else:
        order = np.lexsort((cols, rows))
    delta = np.repeat(np.array([1, -1], dtype=np.int64), len(starts))[order]
    return rows[order], cols[order], delta, np.cumsum(delta)


def _union(rows: np.ndarray, starts: np.ndarray, ends: np.ndarray, shape: tuple[int, int]
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The union of possibly overlapping runs on a ``shape`` frame: a run
    opens where the count rises to 1 and closes where it falls to 0."""
    rows, cols, delta, cover = _sweep(rows, starts, ends, shape)
    opens = (delta == 1) & (cover == 1)
    return rows[opens], cols[opens], cols[(delta == -1) & (cover == 0)]


def rasterize_runs(poly: PolygonSet, width: int, height: int) -> RunMask:
    """Rasterize a polygon set onto a ``height x width`` grid as row runs.

    A pixel is set iff its center is inside at least one ring under the
    even-odd rule; geometry outside the grid is clipped.  Memory grows
    with the rows the polygon spans, not with the frame.  This is the
    one-polygon case of :func:`rasterize_runs_many`.
    """
    return next(rasterize_runs_many([(poly, width, height)]))


def rasterize(poly: PolygonSet, width: int, height: int) -> np.ndarray:
    """Rasterize a polygon set onto a ``height x width`` boolean frame;
    the pixels are those of :func:`rasterize_runs`."""
    return rasterize_runs(poly, width, height).to_array()


def _run_intersection(a: RunMask, b: RunMask) -> int:
    if (not (a.rows.size and b.rows.size) or a.rows[-1] < b.rows[0] or b.rows[-1] < a.rows[0]
            or a.ends.max() <= b.starts.min() or b.ends.max() <= a.starts.min()):
        return 0
    # Both masks cover the span up to the next end wherever the count is
    # 2.  The count is 0 at every row's last end, so no span reaches into
    # the next row.
    _, cols, _, cover = _sweep(np.concatenate((a.rows, b.rows)),
                               np.concatenate((a.starts, b.starts)),
                               np.concatenate((a.ends, b.ends)), a.shape)
    return int(np.diff(cols)[cover[:-1] == 2].sum())


def mask_iou(a: RunMask, b: RunMask) -> float:
    """Pixel-count IoU of two equally shaped run masks; 0.0 when both are
    empty."""
    if a.shape != b.shape:
        raise DimensionMismatchError(f"mask shapes differ: {a.shape} vs {b.shape}")
    inter = _run_intersection(a, b)
    if inter == 0:  # so 0.0 also when both are empty
        return 0.0
    return inter / (a.area + b.area - inter)


def box_iou(a: BBox, b: BBox) -> float:
    """Analytic IoU on real coordinates.  ``x + w - x`` can round above
    ``w``, so the ratio is capped at 1."""
    iw = min(a.x2, b.x2) - max(a.x, b.x)
    ih = min(a.y2, b.y2) - max(a.y, b.y)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    union = a.area + b.area - inter
    if union <= 0:
        return 0.0
    return min(inter / union, 1.0)


def box_iou_columns(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise :func:`box_iou` of two ``(M, 4)`` float64 arrays of
    ``[x, y, w, h]`` rows.  The operations and their order are those of
    :func:`box_iou`, so each value equals it bit for bit."""
    ax, ay, aw, ah = a.T
    bx, by, bw, bh = b.T
    iw = np.minimum(ax + aw, bx + bw) - np.maximum(ax, bx)
    ih = np.minimum(ay + ah, by + bh) - np.maximum(ay, by)
    inter = iw * ih
    union = (aw * ah + bw * bh) - inter
    keep = (iw > 0) & (ih > 0) & (union > 0)
    return np.minimum(np.divide(inter, union, out=np.zeros_like(inter), where=keep), 1.0)


def box_ioa_columns(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise intersection over the area of ``b``, the share of box b
    inside box a, ``(iw * ih) / (bw * bh)``, of two ``(M, 4)`` float64
    arrays of ``[x, y, w, h]`` rows.  A pair is 0 unless the
    intersection's sides ``iw`` and ``ih`` and the area ``bw * bh`` are
    all positive."""
    ax, ay, aw, ah = a.T
    bx, by, bw, bh = b.T
    iw = np.minimum(ax + aw, bx + bw) - np.maximum(ax, bx)
    ih = np.minimum(ay + ah, by + bh) - np.maximum(ay, by)
    area = bw * bh
    keep = (iw > 0) & (ih > 0) & (area > 0)
    return np.divide(iw * ih, area, out=np.zeros_like(area), where=keep)


def box_columns(boxes: Iterable[BBox]) -> np.ndarray:
    """Boxes as the ``(M, 4)`` float64 rows the column measures take."""
    return np.array(list(boxes), dtype=np.float64).reshape(-1, 4)


def box_pair_rows(sizes_a: Sequence[int], boxes_a: np.ndarray,
                  sizes_b: Sequence[int], boxes_b: np.ndarray, measure) -> Iterator[list[list]]:
    """``measure`` of every same-group pair of boxes, from one columnar
    pass.  Group k holds the next ``sizes_a[k]`` rows of the
    :func:`box_columns` array ``boxes_a`` and the next ``sizes_b[k]`` of
    ``boxes_b``; its item is ``rows[i][j] = measure(a_i, b_j)`` for a
    column measure such as :func:`box_iou_columns`."""
    n_a = np.array(sizes_a, dtype=np.int64)
    n_b = np.array(sizes_b, dtype=np.int64)
    n_pair = n_a * n_b
    pair_start = np.cumsum(n_pair) - n_pair
    # Pair p of group k is (row r, col c) with p - pair_start[k] = r * n_b[k] + c.
    local = np.arange(int(n_pair.sum())) - np.repeat(pair_start, n_pair)
    width = np.repeat(n_b, n_pair)
    rows = np.repeat(np.cumsum(n_a) - n_a, n_pair) + local // width
    cols = np.repeat(np.cumsum(n_b) - n_b, n_pair) + local % width
    flat = measure(boxes_a[rows], boxes_b[cols]).tolist()
    # Each group's rows are built as they are read, so a run's rows are
    # never all alive at once.
    for start, n, w in zip(pair_start.tolist(), n_a.tolist(), n_b.tolist()):
        yield [flat[start + i * w:start + (i + 1) * w] for i in range(n)]


@dataclass(frozen=True, eq=False)
class Component:
    """One 8-connected component.  ``window`` is its tight ``(rows, cols)``
    slice pair in the frame, and ``mask`` is that window with exactly the
    component's own pixels set."""

    window: tuple[slice, slice]
    mask: np.ndarray
    area: int

    @property
    def bbox(self) -> BBox:
        """Tight box over the pixels, inclusive extents (1 px per pixel)."""
        rows, cols = self.window
        return BBox(float(cols.start), float(rows.start),
                    float(cols.stop - cols.start), float(rows.stop - rows.start))

    def outer_ring(self) -> tuple[float, ...]:
        """Outer boundary in frame coordinates, as :func:`_trace_outer_ring`."""
        rows, cols = self.window
        return _trace_outer_ring(self.mask, cols.start, rows.start)


def _foreground_window(mask: np.ndarray) -> tuple[slice, slice] | None:
    """Tight ``(rows, cols)`` slice pair around the set pixels, or None
    when no pixel is set."""
    rows = np.flatnonzero(mask.any(axis=1))
    if not rows.size:
        return None
    band = slice(int(rows[0]), int(rows[-1]) + 1)
    cols = np.flatnonzero(mask[band].any(axis=0))
    return band, slice(int(cols[0]), int(cols[-1]) + 1)


def connected_components(mask: np.ndarray) -> list[Component]:
    """Split the foreground into 8-connected components, sorted by
    descending pixel area; ties are broken by the (row, col) of the first
    set pixel in row-major scan order, which lies in the top row of the
    component's window, so the output order is fully deterministic."""
    from scipy import ndimage  # imported here: detection runs never load it

    fg = _foreground_window(mask)
    if fg is None:
        return []
    labels, _ = ndimage.label(mask[fg], structure=_STRUCT_8)
    r0, c0 = fg[0].start, fg[1].start
    comps = []
    for lab, (rows, cols) in enumerate(ndimage.find_objects(labels), start=1):
        sub = labels[rows, cols] == lab
        window = (slice(rows.start + r0, rows.stop + r0), slice(cols.start + c0, cols.stop + c0))
        comps.append(Component(window, sub, int(np.count_nonzero(sub))))
    comps.sort(key=lambda c: (-c.area, c.window[0].start,
                              c.window[1].start + int(np.argmax(c.mask[0]))))
    return comps


def _runs_along_rows(a: np.ndarray, b: np.ndarray, side: int, op, off: int,
                     out: np.ndarray | None = None) -> np.ndarray:
    """``op`` over every ``side`` consecutive rows of ``a``, for each of
    its first ``n = len(a) - side + 1`` rows, written to ``out`` or else
    to rows ``off`` to ``off + n`` of the returned buffer, ``a`` or ``b``;
    both buffers, of one shape, are overwritten.  Combining the runs of
    width ``k`` at ``i`` and at ``i + k`` gives those of width ``2k``; one
    last combine of the widest runs, at ``i`` and ``i + side - k``, brings
    the width to ``side``."""
    n = len(a) - side + 1
    width, length = 1, len(a)
    while 2 * width <= side:
        length -= width
        op(a[:length], a[width:width + length], out=b[:length])
        a, b = b, a
        width *= 2
    op(a[:n], a[side - width:side - width + n], out=b[off:off + n] if out is None else out)
    return b


def morphology(mask: np.ndarray, op: str, size: int = 5, iterations: int = 1) -> np.ndarray:
    """Binary opening or closing with a square ``size x size`` element.

    Out-of-grid pixels are background for both erosion and dilation
    (no border replication).  ``iterations`` repeats the first stage
    ``n`` times and then the second stage ``n`` times, matching the
    usual image-library semantics.
    """
    if op not in ("open", "close"):
        raise ValueError(f"op must be 'open' or 'close', got {op!r}")
    if size < 1 or size % 2 == 0:
        raise ValueError("structuring element size must be odd and >= 1")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")

    mask = np.asarray(mask, dtype=bool)
    out = np.zeros(mask.shape, dtype=bool)
    # With background outside the grid, n passes of a k x k square are one
    # square of side n*(k-1)+1, and that square is separable into row and
    # column AND (erosion) or OR (dilation) passes (van Herk 1992; Gil &
    # Werman 1993).  A side past the frame's shorter side reaches out of
    # the grid from every pixel, so the erosion, and with it either op, is
    # empty.
    half = (size // 2) * iterations
    side = 2 * half + 1
    fg = _foreground_window(mask)
    if fg is None or side > min(mask.shape):
        return out
    # Every pixel more than `half` from the foreground's window is
    # background in the input, between the two stages and in the output,
    # so the passes run on that window grown by `half`, clipped to the
    # frame, inside a border of `half` False cells for the out-of-grid
    # and far background.  Two buffers of that padded shape hold every
    # pass; each stage leaves its result inside the border of one.
    (rows, cols), (h, w) = fg, mask.shape
    win = (slice(max(rows.start - half, 0), min(rows.stop + half, h)),
           slice(max(cols.start - half, 0), min(cols.stop + half, w)))
    sub = mask[win]
    h, w = sub.shape
    a = np.zeros((h + 2 * half, w + 2 * half), dtype=bool)
    b = np.empty_like(a)
    a[half:half + h, half:half + w] = sub
    stages = (np.logical_and, np.logical_or) if op == "open" else (np.logical_or, np.logical_and)
    for fn, dest in zip(stages, (None, out[win])):
        # Rows first, over every column: the border columns of `a` are
        # False, and so are the results on them, which the column pass
        # reads as its border.  The column pass runs along the rows of
        # the transposed buffers.
        r = _runs_along_rows(a, b, side, fn, half)
        spare = b if r is a else a
        lines = r[half:half + h].T
        done = _runs_along_rows(lines, spare[half:half + h].T, side, fn, half,
                                None if dest is None else dest.T)
        a, b = (r, spare) if done is lines else (spare, r)
        a[:half] = a[half + h:] = a[:, :half] = a[:, half + w:] = False
    return out


def _trace_outer_ring(comp: np.ndarray, x0: int, y0: int) -> tuple[float, ...]:
    """Trace the outer boundary of one component along pixel corners;
    ``comp`` is a window whose top-left pixel sits at ``(x0, y0)``.

    Starts at the top-left corner of the first set pixel in scan order
    and walks with the foreground on the right-hand side, emitting a
    vertex at every turn.  Rasterizing the resulting ring reproduces
    the component's hole-filled silhouette exactly.
    """
    h, w = comp.shape
    # One zero pixel of padding on every side, so the pixels around any
    # corner the walk reaches are in the buffer.  Corner (x, y) is
    # position p = (y + 1) * W + x + 1, the index of the pixel below and
    # to its right; the other three pixels around it are p - 1, p - W
    # and p - W - 1.
    W = w + 2
    padded = np.zeros((h + 2, W), dtype=np.uint8)
    padded[1:-1, 1:-1] = comp
    buf = padded.tobytes()
    # Headings clockwise from "right": the step between corners, and the
    # pixels ahead-left and ahead-right of the corner reached.
    steps = (1, W, -1, -W)
    lefts = (-W, 0, -1, -W - 1)
    rights = (0, -1, -W - 1, -W)
    start = p = buf.index(1)  # top-left corner of the first set pixel
    d = 0
    step, left, right = steps[d], lefts[d], rights[d]
    verts = [start]
    while True:
        p += step
        if p == start:
            break
        if buf[p + left]:
            d = (d - 1) & 3
        elif buf[p + right]:
            continue
        else:
            d = (d + 1) & 3
        step, left, right = steps[d], lefts[d], rights[d]
        verts.append(p)
    flat: list[float] = []
    for p in verts:
        y, x = divmod(p, W)
        flat.extend((float(x - 1 + x0), float(y - 1 + y0)))
    return tuple(flat)


def trace_largest_contour(mask: np.ndarray) -> PolygonSet:
    """Outer boundary polygon of the largest connected component.

    Interior holes are enclosed by the ring, so re-rasterizing yields
    the filled silhouette of that component.
    """
    comps = connected_components(mask)
    if not comps:
        raise EmptyMaskError("cannot trace an empty mask")
    return PolygonSet((comps[0].outer_ring(),))


def _rdp_chain(pts: list[tuple[float, float]], eps: float) -> list[tuple[float, float]]:
    """Iterative Ramer-Douglas-Peucker on an open chain (keeps endpoints).

    The distance from a point to segment ``a``-``b`` is to its closest
    point ``a + t * (b - a)``, with ``t`` clamped to [0, 1]; for a
    zero-length segment it is the distance to ``a``.  The first farthest
    point of a segment is kept when it lies farther than ``eps``."""
    n = len(pts)
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    hypot = math.hypot
    keep = [False] * n
    keep[0] = keep[-1] = True
    stack = [(0, n - 1)]
    while stack:
        lo, hi = stack.pop()
        if hi - lo < 2:
            continue
        ax, ay = xs[lo], ys[lo]
        dx, dy = xs[hi] - ax, ys[hi] - ay
        seg_len2 = dx * dx + dy * dy
        dmax, imax = -1.0, lo
        if seg_len2 == 0:
            for i in range(lo + 1, hi):
                d = hypot(xs[i] - ax, ys[i] - ay)
                if d > dmax:
                    dmax, imax = d, i
        else:
            for i in range(lo + 1, hi):
                px, py = xs[i], ys[i]
                t = ((px - ax) * dx + (py - ay) * dy) / seg_len2
                # min(1.0, max(0.0, t)), which maps -0.0 and NaN to 0.0
                if t > 1.0:
                    t = 1.0
                elif not t > 0.0:
                    t = 0.0
                d = hypot(px - (ax + t * dx), py - (ay + t * dy))
                if d > dmax:
                    dmax, imax = d, i
        if dmax > eps:
            keep[imax] = True
            stack.append((lo, imax))
            stack.append((imax, hi))
    return [p for p, k in zip(pts, keep) if k]


def simplify_polygon(ring: Ring, epsilon_ratio: float) -> tuple[float, ...]:
    """Douglas-Peucker simplification of a closed ring.

    The tolerance is ``epsilon_ratio * perimeter``; every dropped vertex
    stays within that distance of the simplified ring, and the output
    vertices are a subset of the input's.  ``epsilon_ratio == 0`` returns
    the ring verbatim.
    """
    if epsilon_ratio < 0:
        raise ValueError("epsilon_ratio must be >= 0")
    pts = _ring_points(ring)
    if epsilon_ratio == 0:
        return tuple(float(v) for v in ring)
    eps = epsilon_ratio * ring_perimeter(ring)
    # Split the ring at vertex 0 and the vertex farthest from it, then
    # simplify the two open chains independently.
    x0, y0 = pts[0]
    far = max(range(1, len(pts)), key=lambda i: (pts[i][0] - x0) ** 2 + (pts[i][1] - y0) ** 2)
    chain1 = _rdp_chain(pts[: far + 1], eps)
    chain2 = _rdp_chain(pts[far:] + [pts[0]], eps)
    merged = chain1[:-1] + chain2[:-1]
    if len(merged) < 3:
        raise DegenerateRingError("simplification collapsed ring below 3 vertices")
    flat: list[float] = []
    for x, y in merged:
        flat.extend((x, y))
    return tuple(flat)
