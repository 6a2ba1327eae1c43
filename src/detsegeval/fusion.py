"""Deterministic inference-time post-processing and ensemble fusion:
confidence filtering, weighted box fusion, detection/segmentation
score fusion, averaged-mask ensembling, segmentation refinement, IoU/IoA
merging, cross-detector merging, detection-guided filtering and soft mask
merging.

The low-level operations are pure functions: scored boxes are
``(BBox, score)`` pairs, scored polygons are ``(PolygonSet, score)``
pairs, probability masks are float arrays in ``[0, 1]``.  Most take one
image's inputs; ``merge_boxes_iou_ioa`` and ``cross_model_merge`` take a
run of per-image box lists and measure all its same-image pairs in one
columnar pass.

The named pipeline presets compose these operations over whole
prediction sets; the table ``_PRESETS`` defines each of them.  A
pipeline sees the whole run at once, each model's scored pairs on every
image, and gives every image's fused pairs; ``run_preset`` alone converts
prediction instances to pairs and back.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields, replace
from itertools import islice
from typing import Optional, Sequence

import numpy as np

from .coco import (
    DETECTION,
    Dataset,
    PredictionInstance,
    PredictionSet,
    SEGMENTATION,
)
from .errors import (
    DegenerateRingError,
    DimensionMismatchError,
    UnknownPresetError,
)
from .geometry import (
    BBox,
    PolygonSet,
    box_columns,
    box_ioa_columns,
    box_iou,
    box_iou_columns,
    box_pair_rows,
    connected_components,
    morphology,
    paint_runs,
    polygon_to_bbox,
    rasterize,
    rasterize_runs_many,
    simplify_polygon,
    trace_largest_contour,
)

ScoredBox = tuple[BBox, float]
ScoredPoly = tuple[PolygonSet, float]

@dataclass(frozen=True)
class FusionParams:
    """All pipeline constants, overridable per run.

    The first block holds published values; the second block holds
    documented defaults for stages whose exact constants were never
    published (cross-detector merging, detection-guided filtering, soft
    merging and its refinement).
    """

    w_seg: float = 0.85              # segmentation weight in score fusion
    w_det: float = 0.15              # detection weight in score fusion
    iou_gate: float = 0.20           # min box overlap to fuse scores
    penalty: float = 0.95            # score multiplier when unmatched
    wbf_iou: float = 0.45            # weighted-box-fusion cluster threshold
    close_kernel: int = 5            # closing kernel in segmentation refinement
    min_region_area: int = 24        # area floor in segmentation refinement
    eps_ratio: float = 0.001         # contour simplification ratio
    ensemble_threshold: float = 0.5  # averaged-mask binarization level
    ensemble_min_area: int = 100     # area floor for ensemble instances
    seg_conf: float = 0.16           # final segmentation confidence filter
    det_conf: float = 0.18           # final detection confidence filter
    open_kernel: int = 5             # opening kernel for mask post-processing
    open_iterations: int = 3         # opening repetitions

    # unpublished constants, documented defaults
    merge_iou: float = 0.5           # same-detector IoU merge threshold
    merge_ioa: float = 0.8           # same-detector IoA absorption threshold
    cross_iou: float = 0.5           # cross-detector match threshold
    keep_conf: float = 0.5           # retention floor for unmatched boxes
    guide_iou: float = 0.2           # detection-guided filter threshold
    overlap_gate: float = 0.5        # soft-merge cluster threshold
    refine_kernel: int = 3           # opening kernel after soft merging

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            # An int field takes an int, a float field an int or a float;
            # bool is an int subclass but is neither.
            kinds = (int,) if f.type == "int" else (int, float)
            if isinstance(v, bool) or not isinstance(v, kinds):
                raise ValueError(f"{f.name} must be of type {f.type}, got {v!r}")
            # An exact comparison with the largest float rejects NaN, the
            # infinities and ints too large to convert to a float.
            if f.type == "float" and not abs(v) <= sys.float_info.max:
                raise ValueError(f"{f.name} must be a finite number, got {v!r}")
        if not math.isclose(self.w_seg + self.w_det, 1.0, abs_tol=1e-9):
            raise ValueError("w_seg + w_det must equal 1")
        for name in ("iou_gate", "penalty", "wbf_iou", "seg_conf", "det_conf",
                     "keep_conf", "guide_iou", "overlap_gate"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        # The merge stages take (0, 1].  At ensemble_threshold 0 every pixel
        # passes, so uno would emit a frame-sized instance per image.
        for name in ("merge_iou", "merge_ioa", "cross_iou", "ensemble_threshold"):
            v = getattr(self, name)
            if not (0.0 < v <= 1.0):
                raise ValueError(f"{name} must lie in (0, 1], got {v}")
        if self.min_region_area < 0 or self.ensemble_min_area < 0:
            raise ValueError("area floors must be >= 0")
        if self.eps_ratio < 0:
            raise ValueError(f"eps_ratio must be >= 0, got {self.eps_ratio}")
        for name in ("close_kernel", "open_kernel", "refine_kernel"):
            v = getattr(self, name)
            if v < 1 or v % 2 == 0:
                raise ValueError(f"{name} must be odd and >= 1, got {v}")
        if self.open_iterations < 1:
            raise ValueError(f"open_iterations must be >= 1, got {self.open_iterations}")

    def with_overrides(self, **overrides) -> "FusionParams":
        known = {f.name for f in fields(self)}
        unknown = set(overrides) - known
        if unknown:
            raise ValueError(f"unknown fusion parameters: {sorted(unknown)}")
        return replace(self, **overrides)


# --- per-image operations -----------------------------------------------------

def confidence_filter(items: Sequence[tuple], threshold: float) -> list:
    """Keep items whose score (second tuple element) is >= threshold."""
    if not (0.0 <= threshold <= 1.0):
        raise ValueError("threshold must lie in [0, 1]")
    return [item for item in items if item[1] >= threshold]


def _box_sort_key(box: BBox, score: float):
    return (-score, box.x, box.y, box.w, box.h)


def weighted_box_fusion(model_outputs: Sequence[Sequence[ScoredBox]],
                        iou_threshold: float) -> list[ScoredBox]:
    """Weighted box fusion across equally weighted model outputs.

    Boxes are visited in global descending-score order (ties broken by
    coordinates, so fusion is invariant under permutation of the model
    list).  Each box joins the first cluster whose running fused box
    overlaps it at or above the threshold, else starts a new cluster.
    Fused coordinates are the score-weighted means of the members; the
    fused score is the mean of member scores; a cluster whose scores sum
    to 0 keeps its first box.  No model-count rescaling is applied.
    """
    # The sort is stable, so exact ties keep model-list order.
    entries = sorted((pair for boxes in model_outputs for pair in boxes),
                     key=lambda e: _box_sort_key(*e))

    # A cluster is [fused box, score-weighted x, y, w and h sums, score
    # sum, members] in plain floats, so each step is one IEEE operation.
    clusters: list[list] = []
    for box, score in entries:
        for cluster in clusters:
            if box_iou(box, cluster[0]) >= iou_threshold:
                break
        else:
            cluster = [box, 0.0, 0.0, 0.0, 0.0, 0.0, 0]
            clusters.append(cluster)
        fused, nx, ny, nw, nh, score_sum, members = cluster
        nx += score * box.x
        ny += score * box.y
        nw += score * box.w
        nh += score * box.h
        score_sum += score
        if score_sum != 0:
            fused = BBox(nx / score_sum, ny / score_sum, nw / score_sum, nh / score_sum)
        cluster[:] = fused, nx, ny, nw, nh, score_sum, members + 1

    fused = [(c[0], c[5] / c[6]) for c in clusters]
    fused.sort(key=lambda e: _box_sort_key(e[0], e[1]))
    return fused


def fuse_seg_det_scores(segs: Sequence[ScoredPoly], dets: Sequence[ScoredBox],
                        params: FusionParams) -> list[ScoredPoly]:
    """Rescore segmentation instances against detection boxes.

    Every segmentation is matched to its single best-IoU detection (no
    one-to-one assignment); if the overlap exceeds the gate the score
    becomes the convex combination w_seg*s_seg + w_det*s_det, otherwise
    the segmentation score is multiplied by the penalty.  Geometry is
    unchanged.
    """
    out: list[ScoredPoly] = []
    for poly, s_seg in segs:
        seg_box = polygon_to_bbox(poly)
        best_iou, best_det = 0.0, 0.0
        for det_box, s_det in dets:
            iou = box_iou(seg_box, det_box)
            if iou > best_iou:
                best_iou, best_det = iou, s_det
        if best_iou > params.iou_gate:
            new_score = params.w_seg * s_seg + params.w_det * best_det
        else:
            new_score = params.penalty * s_seg
        out.append((poly, new_score))
    return out


def refine_segmentation(poly: PolygonSet, width: int, height: int,
                        params: FusionParams) -> Optional[PolygonSet]:
    """Clean one segmentation polygon: rasterize, close, drop small
    regions, keep the largest external contour, simplify.

    Returns None when nothing survives the area floor or simplification
    collapses the contour below 3 vertices."""
    mask = morphology(rasterize(poly, width, height), "close", params.close_kernel, 1)
    comps = connected_components(mask)
    if not comps or comps[0].area < params.min_region_area:
        return None
    try:
        ring = simplify_polygon(comps[0].outer_ring(), params.eps_ratio)
    except DegenerateRingError:
        return None
    return PolygonSet((ring,))


def _scored_regions(binary: np.ndarray, values: np.ndarray, min_area: int):
    """Each 8-connected component of ``binary`` with at least ``min_area``
    pixels, in :func:`connected_components` order, with the mean of
    ``values`` over its pixels."""
    for comp in connected_components(binary):
        if comp.area >= min_area:
            yield comp, float(values[comp.window][comp.mask].mean())


def average_mask_ensemble(prob_masks: Sequence[np.ndarray],
                          params: FusionParams) -> list[ScoredPoly]:
    """Pixel-wise average an ensemble of probability masks, binarize at
    the threshold (inclusive), split into 8-connected regions, drop small
    ones and emit each survivor as a polygon.

    The instance score is the mean ensemble probability over the region's
    pixels, so unanimous masks score 1.0.
    """
    _check_same_shape(prob_masks)
    mean = np.mean(np.stack([np.asarray(m, dtype=np.float64) for m in prob_masks]), axis=0)
    binary = mean >= params.ensemble_threshold
    return [(PolygonSet((comp.outer_ring(),)), score)
            for comp, score in _scored_regions(binary, mean, params.ensemble_min_area)]


def _run_columns(run: Sequence[Sequence[ScoredBox]]) -> tuple[list[int], np.ndarray]:
    """Each image's box count and all the run's boxes as columns."""
    return list(map(len, run)), box_columns(box for boxes in run for box, _ in boxes)


def merge_boxes_iou_ioa(run: Sequence[Sequence[ScoredBox]], iou_thr: float,
                        ioa_thr: float) -> list[list[ScoredBox]]:
    """Suppress redundant detections on each image of a run: walking down
    by score, a box is absorbed when it overlaps a kept box at IoU >=
    iou_thr or lies mostly inside one (IoA >= ioa_thr).

    Every same-image pair is measured in one columnar pass: ``rows[j][i]``
    tells whether box j, once kept, absorbs box i."""
    if not (0.0 < iou_thr <= 1.0 and 0.0 < ioa_thr <= 1.0):
        raise ValueError("thresholds must lie in (0, 1]")
    boxes_of_run = _run_columns(run)

    def absorbs(kept, cand):
        return (box_iou_columns(kept, cand) >= iou_thr) | (box_ioa_columns(kept, cand) >= ioa_thr)

    out = []
    for boxes, rows in zip(run, box_pair_rows(*boxes_of_run, *boxes_of_run, absorbs)):
        kept: list[int] = []
        for i in sorted(range(len(boxes)), key=lambda i: (-boxes[i][1], i)):
            if not any(rows[j][i] for j in kept):
                kept.append(i)
        out.append([boxes[i] for i in kept])
    return out


def cross_model_merge(run_a: Sequence[Sequence[ScoredBox]],
                      run_b: Sequence[Sequence[ScoredBox]],
                      iou_thr: float, keep_conf: float) -> list[list[ScoredBox]]:
    """Ensemble two detectors on each image of a run: greedily match boxes
    one-to-one by best IoU at or above the threshold (ties to the lowest
    indices); matched pairs are replaced by the coordinate-wise mean box
    with the mean score, unmatched boxes survive only at or above
    keep_conf.  Every same-image IoU comes from one columnar pass."""
    if not (0.0 < iou_thr <= 1.0):
        raise ValueError("iou_thr must lie in (0, 1]")
    iou_rows = box_pair_rows(*_run_columns(run_a), *_run_columns(run_b), box_iou_columns)
    out = []
    for dets_a, dets_b, rows in zip(run_a, run_b, iou_rows):
        candidates = sorted((-iou, i, j) for i, row in enumerate(rows)
                            for j, iou in enumerate(row) if iou >= iou_thr)
        used_a: set[int] = set()
        used_b: set[int] = set()
        merged: list[ScoredBox] = []
        for _, i, j in candidates:
            if i in used_a or j in used_b:
                continue
            used_a.add(i)
            used_b.add(j)
            ba, sa = dets_a[i]
            bb, sb = dets_b[j]
            box = BBox((ba.x + bb.x) / 2, (ba.y + bb.y) / 2,
                       (ba.w + bb.w) / 2, (ba.h + bb.h) / 2)
            merged.append((box, (sa + sb) / 2))
        for i, (box, score) in enumerate(dets_a):
            if i not in used_a and score >= keep_conf:
                merged.append((box, score))
        for j, (box, score) in enumerate(dets_b):
            if j not in used_b and score >= keep_conf:
                merged.append((box, score))
        merged.sort(key=lambda e: _box_sort_key(e[0], e[1]))
        out.append(merged)
    return out


def detection_guided_filter(segs: Sequence[ScoredPoly], dets: Sequence[ScoredBox],
                            iou_thr: float) -> list[ScoredPoly]:
    """Keep a segmentation only when some detection box overlaps its
    polygon-derived box at IoU >= iou_thr."""
    out = []
    for poly, score in segs:
        seg_box = polygon_to_bbox(poly)
        if any(box_iou(seg_box, det_box) >= iou_thr for det_box, _ in dets):
            out.append((poly, score))
    return out


def soft_mask_merge(prob_masks: Sequence[np.ndarray],
                    overlap_gate: float) -> np.ndarray:
    """Overlap-based soft merging of probability masks from augmented
    views.

    Masks whose binarized (>= 0.5) versions overlap at IoU >= gate form
    connected clusters; each cluster is averaged per pixel and the cluster
    maps are combined by pixel-wise maximum, so non-overlapping masks pass
    through unchanged.  This is one defined reading of an informally
    described procedure.
    """
    _check_same_shape(prob_masks)
    masks = [np.asarray(m, dtype=np.float64) for m in prob_masks]
    n = len(masks)
    binary = [m >= 0.5 for m in masks]
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            union = np.logical_or(binary[i], binary[j]).sum()
            if union == 0:
                continue
            inter = np.logical_and(binary[i], binary[j]).sum()
            if inter / union >= overlap_gate:
                parent[find(i)] = find(j)

    clusters: dict[int, list[int]] = {}
    for i in range(n):
        clusters.setdefault(find(i), []).append(i)
    out = np.zeros_like(masks[0])
    for members in clusters.values():
        cluster_mean = np.mean(np.stack([masks[i] for i in members]), axis=0)
        np.maximum(out, cluster_mean, out=out)
    return out


def _check_same_shape(masks: Sequence[np.ndarray]) -> None:
    if not masks:
        raise DimensionMismatchError("need at least one mask")
    shape = np.asarray(masks[0]).shape
    for m in masks[1:]:
        if np.asarray(m).shape != shape:
            raise DimensionMismatchError(f"mask shapes differ: {shape} vs {np.asarray(m).shape}")


# --- pipeline presets ----------------------------------------------------------

def _derived_boxes(polys: Sequence[ScoredPoly]) -> list[ScoredBox]:
    return [(polygon_to_bbox(poly), score) for poly, score in polys]


def _semantic_maps(models: Sequence[Sequence[ScoredPoly]], width: int, height: int
                   ) -> Optional[tuple[list[np.ndarray], int, int]]:
    """Each model's union of polygon masks as a bool map, all on one
    window of the ``height x width`` frame, with the window's top-left
    pixel ``(x0, y0)``; None when no model sets a pixel.

    The window is the union of every model's foreground windows, so each
    pixel outside it is 0 in every map and in every mean and maximum of
    the maps, below every threshold ``FusionParams`` accepts."""
    masks = rasterize_runs_many((poly, width, height) for polys in models for poly, _ in polys)
    runs = [list(islice(masks, len(polys))) for polys in models]
    hit = [r for rs in runs for r in rs if r.rows.size]
    if not hit:
        return None
    y0, y1 = min(int(r.rows[0]) for r in hit), max(int(r.rows[-1]) for r in hit) + 1
    x0, x1 = min(int(r.starts.min()) for r in hit), max(int(r.ends.max()) for r in hit)
    return [paint_runs(rs, y1 - y0, x1 - x0, y0, x0) for rs in runs], x0, y0


def _to_frame(payload: PolygonSet | BBox, x0: int, y0: int) -> PolygonSet | BBox:
    """Move a window's polygon or box to frame coordinates.  Every
    coordinate and offset is an integer, so the sums are exact."""
    if isinstance(payload, BBox):
        return BBox(payload.x + x0, payload.y + y0, payload.w, payload.h)
    return PolygonSet(tuple(tuple((np.reshape(ring, (-1, 2)) + (x0, y0)).ravel().tolist())
                            for ring in payload.rings))


# Each pipeline takes a whole run: ``dets[k][i]`` holds detection input
# k's ``(BBox, score)`` pairs on ``images[i]``, ``segs[k][i]`` segmentation
# input k's ``(PolygonSet, score)`` pairs, and it gives each image's fused
# ``(payload, score)`` pairs in image order.  kmg batches its box merging
# across the run; the other pipelines run one image at a time.

def _by_image(models, n: int) -> list[tuple]:
    """``models[k][i]`` regrouped by image: entry i holds every model's
    pairs on image i."""
    return list(zip(*models)) if models else [()] * n


def _each_image(per_image):
    """The run-level pipeline that calls ``per_image(image, dets, segs,
    task, params)`` on each image with every model's pairs on it.
    Images are fused as the caller reads them, so no image's
    intermediate results outlive it."""
    def pipeline(images, dets, segs, task, params):
        n = len(images)
        return (per_image(image, image_dets, image_segs, task, params)
                for image, image_dets, image_segs
                in zip(images, _by_image(dets, n), _by_image(segs, n)))
    return pipeline


@_each_image
def _identity(image, dets, segs, task, params):
    return [pair for pairs in (dets if task == DETECTION else segs) for pair in pairs]


@_each_image
def _uno(image, dets, segs, task, params):
    maps = _semantic_maps(segs, image.width, image.height)
    if maps is None:
        return []
    prob, x0, y0 = maps
    fused = average_mask_ensemble(prob, params)
    if task == DETECTION:
        fused = _derived_boxes(fused)
    return [(_to_frame(payload, x0, y0), score) for payload, score in fused]


@_each_image
def _sigmoid(image, dets, segs, task, params):
    refined: list[ScoredPoly] = []
    for polys in segs:
        for poly, score in polys:
            cleaned = refine_segmentation(poly, image.width, image.height, params)
            if cleaned is not None:
                refined.append((cleaned, score))
    rescored = fuse_seg_det_scores(refined, [pair for boxes in dets for pair in boxes], params)
    if task == SEGMENTATION:
        return confidence_filter(rescored, params.seg_conf)
    branches = [*dets, _derived_boxes(rescored)]
    return confidence_filter(weighted_box_fusion(branches, params.wbf_iou), params.det_conf)


def _kmg(images, dets, segs, task, params):
    merged = [merge_boxes_iou_ioa(model, params.merge_iou, params.merge_ioa) for model in dets]
    final = merged[0]
    for other in merged[1:]:
        final = cross_model_merge(final, other, params.cross_iou, params.keep_conf)
    if task == DETECTION:
        return final
    return [detection_guided_filter([pair for polys in models for pair in polys],
                                    boxes, params.guide_iou)
            for boxes, models in zip(final, _by_image(segs, len(images)))]


@_each_image
def _ntr(image, dets, segs, task, params):
    if task == DETECTION:
        return weighted_box_fusion([*dets, *map(_derived_boxes, segs)], params.wbf_iou)
    pairs = [pair for polys in segs for pair in polys]
    masks = rasterize_runs_many((poly, image.width, image.height) for poly, _ in pairs)
    out = []
    for (_, score), runs in zip(pairs, masks):
        if not runs.rows.size:
            continue
        # The opening is exact on the polygon's tight window, as in
        # _visionx.
        y0, x0 = int(runs.rows[0]), int(runs.starts.min())
        y1, x1 = int(runs.rows[-1]) + 1, int(runs.ends.max())
        window = paint_runs([runs], y1 - y0, x1 - x0, y0, x0)
        opened = morphology(window, "open", params.open_kernel, params.open_iterations)
        if opened.any():
            out.append((_to_frame(trace_largest_contour(opened), x0, y0), score))
    return out


@_each_image
def _visionx(image, dets, segs, task, params):
    maps = _semantic_maps(segs, image.width, image.height)
    if maps is None:
        return []
    prob, x0, y0 = maps
    merged_map = soft_mask_merge(prob, params.overlap_gate)
    # An opening is exact on the window: its erosion needs a full side x
    # side square of foreground, which a window shorter than the side
    # cannot hold.  A closing would not be.
    binary = morphology(merged_map >= 0.5, "open", params.refine_kernel, 1)
    out = []
    for comp, score in _scored_regions(binary, merged_map, params.min_region_area):
        payload = PolygonSet((comp.outer_ring(),)) if task == SEGMENTATION else comp.bbox
        out.append((_to_frame(payload, x0, y0), score))
    return out


# name -> (run-level pipeline, input tasks of which at least one must be
# given, where none means the output task, preset parameter values over
# the FusionParams defaults)
_PRESETS = {
    "identity": (_identity, (), {}),
    "uno": (_uno, (SEGMENTATION,), {}),
    "sigmoid": (_sigmoid, (SEGMENTATION,), {}),
    "kmg": (_kmg, (DETECTION,), {}),
    "ntr": (_ntr, (DETECTION, SEGMENTATION), {"wbf_iou": 0.5}),
    "visionx": (_visionx, (SEGMENTATION,), {}),
}
PRESETS = tuple(_PRESETS)


def _preset(name: str) -> tuple:
    if not isinstance(name, str) or name not in _PRESETS:
        raise UnknownPresetError(f"unknown preset {name!r}; choose from {PRESETS}")
    return _PRESETS[name]


def preset_params(preset: str, overrides: Optional[dict] = None) -> FusionParams:
    """Resolve parameters: built-in defaults < preset values < overrides."""
    return FusionParams().with_overrides(**{**_preset(preset)[2], **(overrides or {})})


def run_preset(preset: str, dataset: Dataset, inputs: Sequence[PredictionSet],
               task: str, params: Optional[FusionParams] = None) -> PredictionSet:
    """Run a named pipeline over loaded prediction sets and return a fused
    prediction set for the requested task."""
    pipeline, needs, _ = _preset(preset)
    needs = needs or (task,)
    if not any(s.task in needs for s in inputs):
        raise ValueError(f"preset {preset!r} requires {' or '.join(needs)} inputs")
    if task == SEGMENTATION and not any(s.task == SEGMENTATION for s in inputs):
        raise ValueError(f"preset {preset!r} needs segmentation inputs "
                         "for a segmentation output")
    if params is None:
        params = preset_params(preset)
    images = dataset.images
    dets = [[[(p.bbox, p.score) for p in s.instances_for(image.id)] for image in images]
            for s in inputs if s.task == DETECTION]
    segs = [[[(p.segmentation, p.score) for p in s.instances_for(image.id)] for image in images]
            for s in inputs if s.task == SEGMENTATION]
    instances: list[PredictionInstance] = []
    for image, pairs in zip(images, pipeline(images, dets, segs, task, params)):
        for payload, score in pairs:
            instances.append(PredictionInstance(
                image_id=image.id,
                score=float(score),
                category_id=dataset.category_id,
                source_index=len(instances),
                bbox=payload if isinstance(payload, BBox) else None,
                segmentation=payload if isinstance(payload, PolygonSet) else None,
            ))
    return PredictionSet(task, instances)
