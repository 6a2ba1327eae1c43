import math
import random
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from detsegeval.coco import (
    DETECTION,
    SEGMENTATION,
    Dataset,
    ImageRecord,
    PredictionInstance,
    PredictionSet,
    load_ground_truth,
    load_predictions,
)
from detsegeval.errors import (
    DimensionMismatchError,
    UnknownPresetError,
)
from detsegeval.fusion import (
    PRESETS,
    FusionParams,
    average_mask_ensemble,
    confidence_filter,
    cross_model_merge,
    detection_guided_filter,
    fuse_seg_det_scores,
    merge_boxes_iou_ioa,
    preset_params,
    refine_segmentation,
    run_preset,
    soft_mask_merge,
    weighted_box_fusion,
)
from detsegeval.geometry import (
    BBox,
    PolygonSet,
    box_iou,
    connected_components,
    morphology,
    polygon_to_bbox,
    rasterize,
    trace_largest_contour,
)
from conftest import (
    annotation,
    det_pred,
    image,
    make_gt,
    polygon_set,
    predictions_to_list,
    seg_pred,
    traced_peak_bytes,
    write_json_file,
)
import reference_impl as ref

P = FusionParams()


def rect(x, y, w, h):
    return polygon_set([[x, y, x + w, y, x + w, y + h, x, y + h]])


class TestFusionParams:
    def test_defaults_are_published_constants(self):
        assert (P.w_seg, P.w_det) == (0.85, 0.15)
        assert P.iou_gate == 0.20 and P.penalty == 0.95
        assert P.wbf_iou == 0.45 and P.close_kernel == 5
        assert P.min_region_area == 24 and P.eps_ratio == 0.001
        assert P.ensemble_threshold == 0.5 and P.ensemble_min_area == 100
        assert (P.seg_conf, P.det_conf) == (0.16, 0.18)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            FusionParams(w_seg=0.9, w_det=0.2)

    @pytest.mark.parametrize("override", [
        {"eps_ratio": math.nan}, {"eps_ratio": -0.1}, {"open_kernel": 4},
        {"close_kernel": 0}, {"refine_kernel": -3}, {"open_iterations": 0},
        {"iou_gate": 1.5}, {"seg_conf": -0.1},
        {"min_region_area": -1}, {"ensemble_min_area": -1},
    ])
    def test_unusable_values_rejected_up_front(self, override):
        with pytest.raises(ValueError):
            P.with_overrides(**override)

    def test_unknown_override_rejected(self):
        with pytest.raises(ValueError):
            P.with_overrides(bogus=1)

    def test_preset_override_chain(self):
        params = preset_params("ntr", {"det_conf": 0.5})
        assert params.wbf_iou == 0.5 and params.det_conf == 0.5
        with pytest.raises(UnknownPresetError):
            preset_params("nope")

    @pytest.mark.parametrize("name", [[], {}, 5, None])
    def test_non_string_preset_name_rejected(self, name):
        with pytest.raises(UnknownPresetError):
            preset_params(name)


class TestConfidenceFilter:
    def test_zero_threshold_keeps_all(self):
        items = [(rect(0, 0, 5, 5), 0.0), (rect(0, 0, 5, 5), 0.9)]
        assert confidence_filter(items, 0.0) == items

    def test_threshold_is_inclusive(self):
        items = [(None, 0.05), (None, 0.075), (None, 0.9)]
        assert len(confidence_filter(items, 0.075)) == 2

    def test_all_below_one(self):
        items = [(None, 0.3), (None, 0.99)]
        assert confidence_filter(items, 1.0) == []

    @pytest.mark.parametrize("threshold", [-0.1, 1.1, math.nan])
    def test_threshold_outside_unit_interval_rejected(self, threshold):
        with pytest.raises(ValueError, match="threshold"):
            confidence_filter([(None, 0.5)], threshold)

    def test_idempotent(self):
        rng = random.Random(1)
        items = [(None, round(rng.random(), 3)) for _ in range(50)]
        once = confidence_filter(items, 0.4)
        assert confidence_filter(once, 0.4) == once


class TestWeightedBoxFusion:
    def test_single_model_identity(self):
        boxes = [(BBox(0, 0, 10, 10), 0.9), (BBox(30, 30, 10, 10), 0.5)]
        fused = weighted_box_fusion([boxes], 0.45)
        assert fused == boxes

    def test_identical_boxes_average_scores(self):
        box = BBox(10, 10, 20, 20)
        fused = weighted_box_fusion([[(box, 0.6)], [(box, 0.8)]], 0.45)
        assert len(fused) == 1
        assert fused[0][0] == box
        assert fused[0][1] == pytest.approx(0.7)

    def test_score_weighted_coordinates(self):
        a = (BBox(0, 0, 10, 10), 0.8)
        b = (BBox(2, 0, 10, 10), 0.4)
        assert box_iou(a[0], b[0]) >= 0.45
        fused = weighted_box_fusion([[a], [b]], 0.45)
        assert len(fused) == 1
        assert fused[0][0].x == pytest.approx((0.8 * 0 + 0.4 * 2) / 1.2)
        assert fused[0][1] == pytest.approx(0.6)

    def test_no_model_outputs_gives_empty(self):
        assert weighted_box_fusion([], 0.5) == []

    def test_fused_box_inside_cluster_envelope(self):
        rng = random.Random(3)
        outputs = []
        for _ in range(3):
            outputs.append([(BBox(rng.uniform(0, 30), rng.uniform(0, 30),
                                  rng.uniform(5, 20), rng.uniform(5, 20)),
                             round(rng.uniform(0.1, 1.0), 3)) for _ in range(8)])
        all_boxes = [b for out in outputs for b, _ in out]
        lo_x = min(b.x for b in all_boxes)
        hi_x = max(b.x2 for b in all_boxes)
        for fused_box, score in weighted_box_fusion(outputs, 0.5):
            assert lo_x - 1e-9 <= fused_box.x and fused_box.x2 <= hi_x + 1e-9
            assert 0.0 <= score <= 1.0

    def test_permutation_invariant_with_equal_weights(self):
        rng = random.Random(4)
        outputs = []
        for _ in range(3):
            outputs.append([(BBox(rng.uniform(0, 30), rng.uniform(0, 30),
                                  rng.uniform(5, 20), rng.uniform(5, 20)),
                             round(rng.uniform(0.1, 1.0), 3)) for _ in range(6)])
        base = weighted_box_fusion(outputs, 0.5)
        for perm in ((1, 0, 2), (2, 1, 0), (1, 2, 0)):
            permuted = weighted_box_fusion([outputs[i] for i in perm], 0.5)
            assert permuted == base


class TestFuseSegDetScores:
    def test_matched_convex_combination(self):
        segs = [(rect(0, 0, 10, 10), 0.5)]
        dets = [(BBox(0, 0, 10, 30), 0.9)]  # IoU 1/3 > gate
        out = fuse_seg_det_scores(segs, dets, P)
        assert out[0][1] == pytest.approx(0.56)

    def test_unmatched_penalty(self):
        segs = [(rect(0, 0, 10, 10), 0.4)]
        dets = [(BBox(8, 8, 30, 30), 0.9)]  # IoU well below the gate
        assert box_iou(polygon_to_bbox(segs[0][0]), dets[0][0]) <= 0.2
        out = fuse_seg_det_scores(segs, dets, P)
        assert out[0][1] == pytest.approx(0.38)

    def test_perfect_alignment_keeps_score(self):
        segs = [(rect(0, 0, 10, 10), 1.0)]
        dets = [(BBox(0, 0, 10, 10), 1.0)]
        out = fuse_seg_det_scores(segs, dets, P)
        assert out[0][1] == pytest.approx(1.0)

    def test_no_detections_all_penalized(self):
        segs = [(rect(0, 0, 10, 10), 0.6)]
        out = fuse_seg_det_scores(segs, [], P)
        assert out[0][1] == pytest.approx(0.57)

    def test_geometry_unchanged(self):
        segs = [(rect(3, 3, 8, 8), 0.6)]
        out = fuse_seg_det_scores(segs, [(BBox(3, 3, 8, 8), 0.8)], P)
        assert out[0][0] is segs[0][0]


class TestRefineSegmentation:
    def test_solid_square_unchanged(self):
        poly = rect(10, 10, 30, 30)
        out = refine_segmentation(poly, 60, 60, P)
        assert out is not None
        assert len(out.rings[0]) == 8
        assert np.array_equal(rasterize(out, 60, 60), rasterize(poly, 60, 60))

    def test_small_blob_removed_large_kept(self):
        # 23 px blob is below the floor; 600 px blob survives
        poly = polygon_set([
            [2, 2, 25, 2, 25, 3, 2, 3],       # 23 x 1 = 23 px
            [10, 20, 40, 20, 40, 40, 10, 40],  # 600 px
        ])
        out = refine_segmentation(poly, 64, 64, P)
        assert out is not None
        box = polygon_to_bbox(out)
        assert box.y >= 19  # the surviving contour is the big blob

    def test_everything_below_floor_rejected(self):
        poly = rect(5, 5, 5, 2)  # 10 px < 24
        assert refine_segmentation(poly, 32, 32, P) is None

    def test_idempotent_on_own_output(self):
        rng = random.Random(5)
        for _ in range(10):
            x = rng.randint(4, 20)
            y = rng.randint(4, 20)
            w = rng.randint(8, 25)
            h = rng.randint(8, 25)
            first = refine_segmentation(rect(x, y, w, h), 64, 64, P)
            assert first is not None
            second = refine_segmentation(first, 64, 64, P)
            assert second is not None
            assert np.array_equal(rasterize(first, 64, 64),
                                  rasterize(second, 64, 64))

    def test_many_ring_polygon_memory_is_bounded(self):
        # 27 x 27 disjoint 5 x 5 squares: one valid prediction with 729 rings
        poly = polygon_set([[x, y, x + 5, y, x + 5, y + 5, x, y + 5]
                                      for x in range(0, 297, 11) for y in range(0, 297, 11)])
        out = []
        peak = traced_peak_bytes(lambda: out.append(refine_segmentation(poly, 300, 300, P)))
        # closing erodes the squares on the frame edge, so the first
        # interior square is the largest region
        assert out == [rect(11, 11, 5, 5)]
        assert peak < 16 * 2**20


class TestAverageMaskEnsemble:
    def test_identical_binary_masks(self):
        m = np.zeros((32, 32))
        m[4:20, 4:20] = 1.0  # 256 px >= 100
        out = average_mask_ensemble([m, m, m], P)
        assert len(out) == 1
        assert out[0][1] == 1.0

    def test_half_agreement_survives_inclusive_threshold(self):
        blob = np.zeros((32, 32))
        blob[2:17, 2:12] = 1.0  # 150 px
        empty = np.zeros((32, 32))
        out = average_mask_ensemble([blob, empty], P)
        assert len(out) == 1
        assert out[0][1] == pytest.approx(0.5)

    def test_area_floor_99_removed_100_kept(self):
        small = np.zeros((32, 32))
        small[1:10, 1:12] = 1.0  # 99 px
        assert average_mask_ensemble([small], P) == []
        big = np.zeros((32, 32))
        big[1:11, 1:11] = 1.0  # 100 px
        assert len(average_mask_ensemble([big], P)) == 1

    def test_matches_component_extraction(self):
        rng = random.Random(6)
        m = np.zeros((48, 48))
        m[2:20, 2:20] = 1.0
        m[30:45, 25:45] = 1.0
        out = average_mask_ensemble([m] * 4, P)
        assert len(out) == 2
        assert all(score == 1.0 for _, score in out)
        union = np.zeros((48, 48), bool)
        for poly, _ in out:
            union |= rasterize(poly, 48, 48)
        assert np.array_equal(union, m >= 0.5)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            average_mask_ensemble([np.zeros((4, 4)), np.zeros((5, 4))], P)

    def test_no_masks(self):
        with pytest.raises(DimensionMismatchError, match="need at least one mask"):
            average_mask_ensemble([], P)


class TestMergeBoxesIouIoa:
    def test_contained_box_absorbed_by_ioa(self):
        big = (BBox(0, 0, 40, 40), 0.9)
        small = (BBox(10, 10, 5, 5), 0.8)  # IoU tiny, IoA(kept, cand) = 1.0
        assert box_iou(big[0], small[0]) < 0.1
        out = merge_boxes_iou_ioa([[big, small]], 0.5, 0.9)
        assert out == [[big]]

    def test_disjoint_all_kept(self):
        boxes = [(BBox(0, 0, 5, 5), 0.9), (BBox(20, 20, 5, 5), 0.8)]
        assert merge_boxes_iou_ioa([boxes], 0.5, 0.9) == [boxes]

    def test_duplicates_collapse(self):
        boxes = [(BBox(0, 0, 5, 5), 0.9), (BBox(0, 0, 5, 5), 0.7)]
        assert merge_boxes_iou_ioa([boxes], 0.5, 0.9) == [[boxes[0]]]

    @pytest.mark.parametrize("iou_thr,ioa_thr", [(0.0, 0.8), (0.5, 0.0), (1.5, 0.8), (0.5, 1.1)])
    def test_thresholds_outside_half_open_interval_rejected(self, iou_thr, ioa_thr):
        with pytest.raises(ValueError, match="thresholds"):
            merge_boxes_iou_ioa([[(BBox(0, 0, 5, 5), 0.9)]], iou_thr, ioa_thr)

    def test_every_dropped_box_overlapped_a_kept_one(self):
        rng = random.Random(7)
        boxes = [(BBox(rng.uniform(0, 40), rng.uniform(0, 40),
                       rng.uniform(4, 25), rng.uniform(4, 25)),
                  round(rng.random(), 3)) for _ in range(40)]
        [kept] = merge_boxes_iou_ioa([boxes], 0.5, 0.8)
        assert len(kept) <= len(boxes)
        kept_set = set(id(b) for b, _ in kept)
        for box, _ in boxes:
            if id(box) in kept_set:
                continue
            assert any(box_iou(kb, box) >= 0.5
                       or ref.box_ioa(kb.as_list(), box.as_list()) >= 0.8
                       for kb, _ in kept)


class TestCrossModelMerge:
    def test_identical_lists_self_merge(self):
        boxes = [(BBox(0, 0, 10, 10), 0.9), (BBox(30, 30, 8, 8), 0.6)]
        [out] = cross_model_merge([boxes], [boxes], 0.5, 0.3)
        assert sorted(out, key=lambda e: -e[1]) == boxes

    def test_matched_pair_averaged(self):
        a = [(BBox(0, 0, 10, 10), 0.6)]
        b = [(BBox(2, 0, 10, 10), 0.8)]
        [out] = cross_model_merge([a], [b], 0.5, 0.3)
        assert len(out) == 1
        assert out[0][0] == BBox(1, 0, 10, 10)
        assert out[0][1] == pytest.approx(0.7)

    def test_low_confidence_unmatched_dropped(self):
        a = [(BBox(0, 0, 10, 10), 0.1)]
        assert cross_model_merge([a], [[]], 0.5, keep_conf=0.3) == [[]]

    def test_high_confidence_unmatched_kept(self):
        a = [(BBox(0, 0, 10, 10), 0.7)]
        assert cross_model_merge([a], [[]], 0.5, keep_conf=0.3) == [a]

    @pytest.mark.parametrize("score_b2,kept", [(0.6, True), (0.4, False)])
    def test_matching_is_one_to_one(self, score_b2, kept):
        # Both boxes of b overlap a's box above the threshold (IoU 0.82
        # and 0.67); only the best pair merges, and the other box of b is
        # then unmatched, so it survives only at or above keep_conf.
        a = [(BBox(0, 0, 10, 10), 0.9)]
        b = [(BBox(1, 0, 10, 10), 0.7), (BBox(2, 0, 10, 10), score_b2)]
        [out] = cross_model_merge([a], [b], 0.5, keep_conf=0.5)
        assert out[0][0] == BBox(0.5, 0, 10, 10)
        assert out[0][1] == pytest.approx(0.8)
        assert out[1:] == ([b[1]] if kept else [])

    @pytest.mark.parametrize("iou_thr", [0.0, -0.5, 1.5])
    def test_threshold_outside_half_open_interval_rejected(self, iou_thr):
        with pytest.raises(ValueError, match="iou_thr"):
            cross_model_merge([[(BBox(0, 0, 5, 5), 0.9)]], [[]], iou_thr, 0.5)


# Small integer boxes make IoU and IoA land exactly on the thresholds
# below (1/3, 1/2, 4/5, 1) and repeat boxes; real-valued and tiny sides
# exercise rounding and areas that underflow to 0.
_coord = st.integers(0, 6) | st.floats(0, 20)
_side = st.integers(1, 4) | st.floats(0.25, 10) | st.just(1e-200)
_score = st.sampled_from([0.0, 0.3, 0.5, 0.9, 1.0]) | st.floats(0, 1)
_threshold = st.sampled_from([1 / 3, 0.5, 0.8, 1.0]) | st.floats(0.01, 1)
_scored_box = st.tuples(st.tuples(_coord, _coord, _side, _side), _score)
_image = st.lists(_scored_box, max_size=6)
_oracle_settings = settings(max_examples=200, derandomize=True, database=None, deadline=None)


def _lib(image):
    return [(BBox(*box), score) for box, score in image]


def _plain(image):
    """repr of a library result in the oracles' tuple form: equal text
    means equal floats with equal signs."""
    return repr([((b.x, b.y, b.w, b.h), s) for b, s in image])


# Named runs: IoU exactly 1/2 with IoA 2/3, IoA exactly 4/5 with IoU
# below 0.1, IoU exactly 4/5, tied scores, an empty image and a model
# with no boxes.  The second model's boxes meet the first's at IoU
# exactly 1/2, 4/5 and 1, with tied IoUs and scores.
_AT_THRESHOLD = [
    [((0, 0, 3, 1), 0.9), ((1, 0, 3, 1), 0.8)],
    [((0, 0, 10, 10), 0.7), ((2, 0, 10, 1), 0.7)],
    [((0, 0, 5, 1), 0.5), ((1, 0, 4, 1), 0.5), ((0, 0, 5, 1), 0.5)],
    [],
    [((0, 0, 5, 1), 0.4)],
]
_AT_THRESHOLD_B = [
    [((1, 0, 3, 1), 0.4)],
    [((2, 0, 10, 10), 0.4), ((0, 0, 10, 10), 0.7)],
    [((1, 0, 4, 1), 0.5), ((0, 0, 4, 1), 0.5)],
    [((0, 0, 5, 1), 0.9)],
    [],
]


class TestBoxFusionOracles:
    """Run-level, columnar and plain-float box fusion against the scalar
    per-image code in ``reference_impl``."""

    @_oracle_settings
    @given(st.lists(_image, max_size=4), _threshold, _threshold)
    def test_merge_equals_scalar_oracle(self, run, iou_thr, ioa_thr):
        got = merge_boxes_iou_ioa([_lib(image) for image in run], iou_thr, ioa_thr)
        assert list(map(_plain, got)) == \
            [repr(ref.merge_boxes_iou_ioa(image, iou_thr, ioa_thr)) for image in run]

    @_oracle_settings
    @given(st.lists(st.tuples(_image, _image), max_size=4), _threshold,
           st.sampled_from([0.0, 0.3, 0.5, 1.0]))
    def test_cross_merge_equals_scalar_oracle(self, run, iou_thr, keep_conf):
        got = cross_model_merge([_lib(a) for a, _ in run], [_lib(b) for _, b in run],
                                iou_thr, keep_conf)
        assert list(map(_plain, got)) == \
            [repr(ref.cross_model_merge(a, b, iou_thr, keep_conf)) for a, b in run]

    @_oracle_settings
    @given(st.lists(_image, max_size=3), st.sampled_from([0.0, 0.45, 0.5, 1.0]) | _threshold)
    def test_wbf_equals_numpy_oracle(self, models, iou_thr):
        got = weighted_box_fusion([_lib(image) for image in models], iou_thr)
        assert _plain(got) == repr(ref.weighted_box_fusion(models, iou_thr))

    @pytest.mark.parametrize("thr", [0.5, 0.8])
    def test_named_runs_at_threshold(self, thr):
        run = [_lib(image) for image in _AT_THRESHOLD]
        assert list(map(_plain, merge_boxes_iou_ioa(run, thr, thr))) == \
            [repr(ref.merge_boxes_iou_ioa(image, thr, thr)) for image in _AT_THRESHOLD]
        run_b = [_lib(image) for image in _AT_THRESHOLD_B]
        assert list(map(_plain, cross_model_merge(run, run_b, thr, 0.6))) == \
            [repr(ref.cross_model_merge(a, b, thr, 0.6))
             for a, b in zip(_AT_THRESHOLD, _AT_THRESHOLD_B)]
        for image in _AT_THRESHOLD:
            assert _plain(weighted_box_fusion([_lib(image), []], thr)) == \
                repr(ref.weighted_box_fusion([image, []], thr))

    def test_zero_score_cluster_keeps_its_first_box(self):
        a, b = BBox(0, 0, 4, 4), BBox(1, 0, 4, 4)
        assert weighted_box_fusion([[(a, 0.0)], [(b, 0.0)]], 0.5) == [(a, 0.0)]


class TestDetectionGuidedFilter:
    def test_aligned_seg_kept(self):
        segs = [(rect(5, 5, 10, 10), 0.8)]
        dets = [(BBox(5, 5, 10, 10), 0.9)]
        assert detection_guided_filter(segs, dets, 0.2) == segs

    def test_no_detections_drops_all(self):
        segs = [(rect(5, 5, 10, 10), 0.8)]
        assert detection_guided_filter(segs, [], 0.2) == []

    def test_threshold_is_strict_at_boundary(self):
        segs = [(rect(0, 0, 10, 10), 0.8)]
        # overlap area 19: IoU = 19/(100+100-19) ~ 0.10497 < 0.2
        dets = [(BBox(8.1, 0, 10, 10), 0.9)]
        assert detection_guided_filter(segs, dets, 0.2) == []
        assert detection_guided_filter(segs, dets, 0.104) == segs


class TestSoftMaskMerge:
    def test_single_mask_unchanged(self):
        m = np.random.RandomState(8).rand(16, 16)
        out = soft_mask_merge([m], 0.5)
        assert np.array_equal(out, m)

    def test_identical_masks_unchanged(self):
        m = np.zeros((16, 16))
        m[2:10, 2:10] = 0.9
        out = soft_mask_merge([m, m], 0.5)
        assert np.allclose(out, m)

    def test_disjoint_blobs_pass_through(self):
        a = np.zeros((16, 16))
        a[1:5, 1:5] = 0.8
        b = np.zeros((16, 16))
        b[10:14, 10:14] = 0.6
        out = soft_mask_merge([a, b], 0.1)
        assert np.allclose(out, np.maximum(a, b))

    def test_overlapping_cluster_averaged(self):
        a = np.zeros((16, 16))
        a[2:10, 2:10] = 1.0
        b = np.zeros((16, 16))
        b[2:10, 2:10] = 0.6
        out = soft_mask_merge([a, b], 0.5)
        assert out[5, 5] == pytest.approx(0.8)


@pytest.fixture
def fusion_setup(tmp_path):
    gt = make_gt(
        [image(1, 64, 64), image(2, 64, 64)],
        [
            annotation(1, 1, [8, 8, 24, 24]),
            annotation(2, 1, [40, 36, 16, 20]),
            annotation(3, 2, [10, 12, 30, 30]),
        ],
    )
    ds = load_ground_truth(write_json_file(tmp_path / "gt.json", gt))
    seg_a = [
        seg_pred(1, 0.9, [[8, 8, 32, 8, 32, 32, 8, 32]]),
        seg_pred(1, 0.5, [[40, 36, 56, 36, 56, 56, 40, 56]]),
        seg_pred(2, 0.7, [[10, 12, 40, 12, 40, 42, 10, 42]]),
    ]
    seg_b = [
        seg_pred(1, 0.8, [[9, 9, 33, 9, 33, 33, 9, 33]]),
        seg_pred(2, 0.6, [[11, 13, 41, 13, 41, 43, 11, 43]]),
    ]
    det_a = [
        det_pred(1, 0.85, [8, 8, 24, 24]),
        det_pred(1, 0.45, [40, 36, 16, 20]),
        det_pred(2, 0.75, [10, 12, 30, 30]),
    ]
    sets = {
        "seg_a": load_predictions(write_json_file(tmp_path / "sa.json", seg_a),
                                  ds, "segmentation"),
        "seg_b": load_predictions(write_json_file(tmp_path / "sb.json", seg_b),
                                  ds, "segmentation"),
        "det_a": load_predictions(write_json_file(tmp_path / "da.json", det_a),
                                  ds, "detection"),
    }
    return ds, sets


class TestPresets:
    def test_identity_round_trips(self, fusion_setup):
        ds, sets = fusion_setup
        out = run_preset("identity", ds, [sets["det_a"]], "detection")
        assert [(p.image_id, p.score, p.bbox) for p in out.instances] == \
               [(p.image_id, p.score, p.bbox) for p in sets["det_a"].instances]

    def test_readme_table_lists_every_preset_in_order(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("### Fusion presets", 1)[1].split("\n#", 1)[0]
        names = re.findall(r"^\| `(\w+)` +\|", section, flags=re.MULTILINE)
        assert tuple(names) == PRESETS

    def test_unknown_preset(self, fusion_setup):
        ds, sets = fusion_setup
        with pytest.raises(UnknownPresetError):
            run_preset("mystery", ds, [sets["det_a"]], "detection")

    @pytest.mark.parametrize("preset,task", [
        ("identity", "detection"), ("identity", "segmentation"),
        ("uno", "segmentation"), ("uno", "detection"),
        ("sigmoid", "segmentation"), ("sigmoid", "detection"),
        ("kmg", "detection"), ("kmg", "segmentation"),
        ("ntr", "detection"), ("ntr", "segmentation"),
        ("visionx", "segmentation"), ("visionx", "detection"),
    ])
    def test_preset_outputs_validate(self, fusion_setup, preset, task):
        from detsegeval.coco import parse_predictions
        ds, sets = fusion_setup
        inputs = [sets["seg_a"], sets["seg_b"], sets["det_a"]]
        out = run_preset(preset, ds, inputs, task, preset_params(preset))
        retained, report = parse_predictions(predictions_to_list(out), ds, task)
        assert report.errors == []
        assert len(retained) == len(out)
        for inst in out.instances:
            assert 0.0 <= inst.score <= 1.0

    def test_uno_requires_segmentation_inputs(self, fusion_setup):
        ds, sets = fusion_setup
        with pytest.raises(ValueError):
            run_preset("uno", ds, [sets["det_a"]], "segmentation")

    def test_ntr_requires_an_input(self, fusion_setup):
        ds, _ = fusion_setup
        with pytest.raises(ValueError, match="preset 'ntr' requires"):
            run_preset("ntr", ds, [], "detection")

    def test_ntr_on_two_detection_inputs_is_wbf(self, fusion_setup, tmp_path):
        ds, sets = fusion_setup
        det_b_items = [det_pred(1, 0.65, [9, 9, 24, 24]),
                       det_pred(2, 0.55, [11, 13, 30, 30])]
        det_b = load_predictions(write_json_file(tmp_path / "db.json", det_b_items),
                                 ds, "detection")
        out = run_preset("ntr", ds, [sets["det_a"], det_b], "detection")
        expected = {}
        for img_id in (1, 2):
            pairs_a = [(p.bbox, p.score) for p in sets["det_a"].instances_for(img_id)]
            pairs_b = [(p.bbox, p.score) for p in det_b.instances_for(img_id)]
            expected[img_id] = weighted_box_fusion([pairs_a, pairs_b], 0.5)
        for img_id, exp in expected.items():
            got = [(p.bbox, p.score) for p in out.instances_for(img_id)]
            assert sorted(got, key=lambda e: -e[1]) == \
                   sorted(exp, key=lambda e: -e[1])


def _full_frame_fuse(preset, dataset, inputs, task, params):
    """uno and visionx on full frames: each model's semantic map is the
    union of its instances' full-frame masks, as a 0/1 float64 frame.
    Returns ``(image_id, payload, score)`` in the fused set's order."""
    seg_sets = [s for s in inputs if s.task == SEGMENTATION]
    out = []
    for image in dataset.images:
        w, h = image.width, image.height
        prob = []
        for s in seg_sets:
            mask = np.zeros((h, w), dtype=bool)
            for inst in s.instances_for(image.id):
                mask |= rasterize(inst.segmentation, w, h)
            prob.append(mask.astype(np.float64))
        if preset == "uno":
            for poly, score in average_mask_ensemble(prob, params):
                payload = poly if task == SEGMENTATION else polygon_to_bbox(poly)
                out.append((image.id, payload, score))
            continue
        merged_map = soft_mask_merge(prob, params.overlap_gate)
        binary = merged_map >= 0.5
        if binary.any():
            binary = morphology(binary, "open", params.refine_kernel, 1)
        for comp in connected_components(binary):
            if comp.area < params.min_region_area:
                continue
            score = float(merged_map[comp.window][comp.mask].mean())
            payload = PolygonSet((comp.outer_ring(),)) if task == SEGMENTATION else comp.bbox
            out.append((image.id, payload, score))
    order = sorted(range(len(out)), key=lambda k: (out[k][0], -out[k][2], k))
    return [out[k] for k in order]


def _scene(frames, models):
    """A dataset of ``frames`` ``(width, height)`` and one segmentation
    set per model; ``models[m][i]`` lists model m's polygons on image i."""
    ds = Dataset([ImageRecord(i + 1, w, h, f"{i + 1}.jpg") for i, (w, h) in enumerate(frames)],
                 [], 1, "rip_current")
    sets = []
    for per_image in models:
        insts = [PredictionInstance(i + 1, 0.5 + 0.01 * k, 1, k, segmentation=poly)
                 for i, polys in enumerate(per_image) for k, poly in enumerate(polys)]
        sets.append(PredictionSet(SEGMENTATION, insts))
    return ds, sets


def _check_against_full_frame(preset, ds, sets, params):
    for task in (SEGMENTATION, DETECTION):
        fused = run_preset(preset, ds, sets, task, params)
        got = [(p.image_id, p.segmentation if task == SEGMENTATION else p.bbox, p.score)
               for p in fused.instances]
        assert got == _full_frame_fuse(preset, ds, sets, task, params)


@st.composite
def _window_case(draw):
    """Frames of 6-40 px holding rectangles and random rings per model,
    some reaching past the frame edge and some models with nothing."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    frames = [(int(rng.integers(6, 41)), int(rng.integers(6, 41)))
              for _ in range(draw(st.integers(1, 3)))]
    models = []
    for _ in range(draw(st.integers(1, 3))):
        per_image = []
        for w, h in frames:
            polys = []
            for _ in range(int(rng.integers(0, 4))):
                if rng.random() < 0.6:
                    x0, x1 = sorted(rng.integers(-3, w + 4, 2))
                    y0, y1 = sorted(rng.integers(-3, h + 4, 2))
                    polys.append(rect(int(x0), int(y0), int(x1 - x0) + 1, int(y1 - y0) + 1))
                else:
                    n = int(rng.integers(3, 8))
                    xs = rng.integers(-2, w + 3, n) + rng.integers(0, 4, n) / 4
                    ys = rng.integers(-2, h + 3, n) + rng.integers(0, 4, n) / 4
                    polys.append(polygon_set(
                        [[float(v) for xy in zip(xs, ys) for v in xy]]))
            per_image.append(polys)
        models.append(per_image)
    params = P.with_overrides(
        ensemble_threshold=draw(st.sampled_from([1e-9, 0.3, 0.5, 1.0])),
        ensemble_min_area=draw(st.sampled_from([0, 4, 100])),
        min_region_area=draw(st.sampled_from([0, 4, 24])),
        overlap_gate=draw(st.sampled_from([0.0, 0.5, 1.0])),
        refine_kernel=draw(st.sampled_from([1, 3, 5, 9])),
    )
    return frames, models, params


class TestSemanticWindow:
    """uno and visionx paint the semantic maps on the union of the
    models' foreground windows; the fused output is that of full frames."""

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(_window_case(), st.sampled_from(["uno", "visionx"]))
    def test_matches_full_frame(self, case, preset):
        frames, models, params = case
        ds, sets = _scene(frames, models)
        _check_against_full_frame(preset, ds, sets, params)

    @pytest.mark.parametrize("preset", ["uno", "visionx"])
    @pytest.mark.parametrize("models,params", [
        # the second image has no seg instance in any model
        ([[[rect(4, 4, 20, 20)], []], [[rect(6, 5, 20, 20)], []]], {}),
        # ... and no pixel of it passes the least uno threshold above 0
        ([[[rect(4, 4, 20, 20)], []]], {"ensemble_threshold": 1e-9}),
        # blobs flush with the frame's corners
        ([[[rect(0, 0, 16, 12), rect(30, 28, 10, 12)], [rect(-5, 30, 20, 20)]]], {}),
        # models with disjoint windows
        ([[[rect(1, 2, 12, 12)]], [[rect(25, 24, 12, 14)]]], {"overlap_gate": 0.0}),
        # a 6 px tall window: a 9 px opening fits the frame, not the window
        ([[[rect(2, 10, 34, 6)]], [[rect(3, 10, 33, 6)]]],
         {"refine_kernel": 9, "min_region_area": 0}),
        ([[[rect(2, 10, 34, 6)]], [[rect(3, 10, 33, 6)]]],
         {"refine_kernel": 5, "min_region_area": 0}),
    ])
    def test_named_cases(self, preset, models, params):
        ds, sets = _scene([(40, 40), (40, 40)][:len(models[0])], models)
        _check_against_full_frame(preset, ds, sets, P.with_overrides(**params))

    def test_zero_threshold_rejected(self):
        # At 0 every pixel passes, so uno's window would have to be the
        # whole frame; no such threshold is accepted.
        with pytest.raises(ValueError, match="ensemble_threshold"):
            preset_params("uno", {"ensemble_threshold": 0.0})

    @pytest.mark.parametrize("preset", ["uno", "visionx"])
    def test_big_frame_memory_is_bounded(self, preset):
        # one full 3000 x 3000 float64 map alone would take 72 MB
        blobs = [[rect(100 + 40 * k, 200 + 30 * k, 24, 20) for k in range(5)]]
        ds, sets = _scene([(3000, 3000)], [blobs, blobs])
        out = []
        peak = traced_peak_bytes(lambda: out.append(
            run_preset(preset, ds, sets, SEGMENTATION, preset_params(preset))))
        assert len(out[0].instances) == 5
        assert peak < 8 * 2**20


@st.composite
def _ntr_case(draw):
    """Frames of 13-64 px, some 4-13 px short or narrow around ntr's
    13 px element, holding polygons of one to three rings: rectangles flush
    with or reaching past a chosen frame edge, free rectangles and
    random rings."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    frames = []
    for kind in draw(st.lists(st.sampled_from(["wide", "short", "narrow"]), min_size=1, max_size=3)):
        w, h = (int(v) for v in rng.integers(13, 65, 2))
        if kind != "wide":
            short = int(rng.integers(4, 14))  # 12 and 13 among them
            w, h = (w, short) if kind == "short" else (short, h)
        frames.append((w, h))
    per_image = []
    for w, h in frames:
        polys = []
        for _ in range(int(rng.integers(0, 4))):
            rings = []
            for _ in range(int(rng.integers(1, 4))):
                if rng.random() < 0.7:
                    x0, y0 = int(rng.integers(-3, w // 2 + 1)), int(rng.integers(-3, h // 2 + 1))
                    x1, y1 = int(rng.integers(x0, w + 4)), int(rng.integers(y0, h + 4))
                    edge = rng.choice(["top", "bottom", "left", "right", "none"])
                    y0, y1 = {"top": (-int(rng.integers(0, 3)), y1),
                              "bottom": (y0, h + int(rng.integers(0, 3)))}.get(edge, (y0, y1))
                    x0, x1 = {"left": (-int(rng.integers(0, 3)), x1),
                              "right": (x0, w + int(rng.integers(0, 3)))}.get(edge, (x0, x1))
                    rings.append([x0, y0, x1 + 1, y0, x1 + 1, y1 + 1, x0, y1 + 1])
                else:
                    n = int(rng.integers(3, 8))
                    xs = rng.integers(-2, w + 3, n) + rng.integers(0, 4, n) / 4
                    ys = rng.integers(-2, h + 3, n) + rng.integers(0, 4, n) / 4
                    rings.append([float(v) for xy in zip(xs, ys) for v in xy])
            polys.append(polygon_set(rings))
        per_image.append(polys)
    return frames, per_image


class TestNtrWindow:
    """ntr opens each polygon on its tight window; the fused output is
    that of the opening on the full frame."""

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(_ntr_case())
    def test_matches_full_frame_opening(self, case):
        frames, per_image = case
        ds, sets = _scene(frames, [per_image])
        params = preset_params("ntr")
        expected = []
        for image, inst in ((image, inst) for image in ds.images
                            for inst in sets[0].instances_for(image.id)):
            opened = morphology(rasterize(inst.segmentation, image.width, image.height),
                                "open", params.open_kernel, params.open_iterations)
            if opened.any():
                expected.append((image.id, trace_largest_contour(opened), inst.score))
        fused = run_preset("ntr", ds, sets, SEGMENTATION, params)
        assert repr([(p.image_id, p.segmentation, p.score) for p in fused.instances]) == \
               repr(expected)

