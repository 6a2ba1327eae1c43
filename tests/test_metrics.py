import csv
import io
import random
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from detsegeval import geometry
from detsegeval.coco import (
    DETECTION,
    SEGMENTATION,
    GroundTruthInstance,
    ImageRecord,
    PredictionInstance,
    PredictionSet,
    load_ground_truth,
    load_predictions,
    parse_predictions,
)
from detsegeval.errors import EmptyInputError
from detsegeval.geometry import BBox, box_iou, mask_iou, rasterize_runs
from detsegeval.metrics import (
    HEADLINE_THRESHOLD,
    THRESHOLDS,
    ConfusionCounts,
    MetricsReport,
    _greedy_pairs,
    _greedy_tp_by_threshold,
    _iou_rows,
    evaluate,
    f_beta,
    final_score,
    leaderboard,
    leaderboard_csv,
    match_image,
)
from conftest import (
    annotation,
    det_pred,
    image,
    make_gt,
    polygon_set,
    seg_pred,
    write_json_file,
)
import reference_impl as ref


def _counts_at(ds, preds, tau):
    """Dataset-wide confusion counts of ``evaluate`` at threshold ``tau``."""
    return next(tm.counts for tm in evaluate(ds, preds).per_threshold
                if tm.threshold == tau)


def _img(width=100, height=100):
    return ImageRecord(1, width, height, "img.jpg")


def _gt(gt_id, bbox):
    x, y, w, h = bbox
    return GroundTruthInstance(
        gt_id, 1, BBox(x, y, w, h),
        polygon_set([[x, y, x + w, y, x + w, y + h, x, y + h]]), 1)


def _pred(score, bbox, idx=0):
    return PredictionInstance(1, score, 1, idx, bbox=BBox(*bbox))


class TestThresholds:
    def test_default_range_has_12_values(self):
        assert len(THRESHOLDS) == 12
        assert THRESHOLDS[0] == 0.40 and THRESHOLDS[-1] == 0.95
        assert list(THRESHOLDS) == sorted(set(THRESHOLDS))
        assert HEADLINE_THRESHOLD in THRESHOLDS


class TestIouForTask:
    """The IoU ``match_image`` reports: analytic box IoU for detection,
    rasterized-mask IoU at image resolution for segmentation."""

    def test_detection_identical(self):
        m = match_image([_pred(0.9, [10, 10, 20, 20])], [_gt(1, [10, 10, 20, 20])],
                        0.5, "detection", _img())
        assert m.pairs == [(0, 1, 1.0)]

    def test_segmentation_identical(self):
        ring = [10, 10, 30, 10, 30, 30, 10, 30]
        p = PredictionInstance(1, 0.9, 1, 0,
                               segmentation=polygon_set([ring]))
        m = match_image([p], [_gt(1, [10, 10, 20, 20])], 0.5, "segmentation", _img())
        assert m.pairs == [(0, 1, 1.0)]

    def test_segmentation_half(self):
        p = PredictionInstance(1, 0.9, 1, 0,
                               segmentation=polygon_set(
                                   [[10, 10, 20, 10, 20, 30, 10, 30]]))
        m = match_image([p], [_gt(1, [10, 10, 20, 20])], 0.5, "segmentation", _img())
        assert m.pairs == [(0, 1, 0.5)]


class TestMatchImage:
    def test_higher_score_wins_single_gt(self):
        gts = [_gt(1, [10, 10, 20, 20])]
        preds = [_pred(0.9, [10, 10, 20, 20], 0), _pred(0.4, [11, 11, 20, 20], 1)]
        m = match_image(preds, gts, 0.5, "detection", _img())
        assert m.pairs == [(0, 1, 1.0)]
        assert m.unmatched_predictions == [1]
        assert m.unmatched_ground_truths == []

    def test_no_predictions(self):
        gts = [_gt(1, [10, 10, 20, 20]), _gt(2, [50, 50, 20, 20])]
        m = match_image([], gts, 0.5, "detection", _img())
        assert m.pairs == [] and m.unmatched_ground_truths == [1, 2]

    def test_disjoint_pairs_match_regardless_of_order(self):
        gts = [_gt(1, [10, 10, 20, 20]), _gt(2, [60, 60, 20, 20])]
        for scores in ((0.9, 0.8), (0.8, 0.9)):
            preds = sorted(
                [_pred(scores[0], [10, 10, 20, 20], 0),
                 _pred(scores[1], [60, 60, 20, 20], 1)],
                key=lambda p: -p.score)
            m = match_image(preds, gts, 0.5, "detection", _img())
            assert len(m.pairs) == 2

    def test_gt_id_tie_break(self):
        gts = [_gt(5, [10, 10, 20, 20]), _gt(2, [10, 10, 20, 20])]
        preds = [_pred(0.9, [10, 10, 20, 20], 0)]
        m = match_image(preds, gts, 0.5, "detection", _img())
        assert m.pairs == [(0, 2, 1.0)]

    def test_greedy_is_maximal(self):
        rng = random.Random(41)
        for _ in range(100):
            gts = [_gt(j + 1, [rng.randint(0, 60), rng.randint(0, 60),
                               rng.randint(5, 30), rng.randint(5, 30)])
                   for j in range(rng.randint(0, 5))]
            preds = sorted(
                [_pred(round(rng.random(), 3),
                       [rng.randint(0, 60), rng.randint(0, 60),
                        rng.randint(5, 30), rng.randint(5, 30)], i)
                 for i in range(rng.randint(0, 5))],
                key=lambda p: (-p.score, p.source_index))
            tau = rng.choice([0.3, 0.5, 0.7])
            m = match_image(preds, gts, tau, "detection", _img())
            gt_by_id = {g.id: g for g in gts}
            for i in m.unmatched_predictions:
                for gid in m.unmatched_ground_truths:
                    assert box_iou(preds[i].bbox, gt_by_id[gid].bbox) < tau

    def test_greedy_within_optimal_matching(self):
        gts = [_gt(1, [0, 0, 10, 10]), _gt(2, [6, 0, 10, 10])]
        preds = [_pred(0.9, [0, 0, 10, 10], 0), _pred(0.8, [6, 0, 10, 10], 1)]
        greedy = match_image(preds, gts, 0.3, "detection", _img())
        rows = [[ref.box_iou(p.bbox.as_list(), g.bbox.as_list()) for g in gts] for p in preds]
        assert len(greedy.pairs) <= ref.max_matching_size(rows, 0.3)


# Quarter-grid values make exact ties, shared edges and containment common;
# free floats exercise rounding.
_coord = st.one_of(st.integers(-8, 40).map(lambda v: v / 4),
                   st.floats(-10, 10, allow_nan=False, allow_infinity=False))
_size = st.one_of(st.integers(1, 24).map(lambda v: v / 4),
                  st.floats(1e-3, 6, allow_nan=False, allow_infinity=False))
_deterministic = settings(max_examples=200, derandomize=True, database=None, deadline=None)


@st.composite
def _box(draw):
    return BBox(draw(_coord), draw(_coord), draw(_size), draw(_size))


@st.composite
def _box_near(draw, a):
    """A box equal to, touching, nested in, disjoint from or free of ``a``."""
    kind = draw(st.sampled_from(("same", "touching", "corner", "nested", "disjoint", "free")))
    w, h = draw(_size), draw(_size)
    if kind == "same":
        return a
    if kind == "touching":
        return BBox(a.x2, a.y, w, h)
    if kind == "corner":
        return BBox(a.x - w, a.y2, w, h)
    if kind == "nested":
        fx, fy = draw(st.floats(0, 0.5)), draw(st.floats(0, 0.5))
        scale = draw(st.floats(0.05, 0.5))
        return BBox(a.x + fx * a.w, a.y + fy * a.h, scale * a.w, scale * a.h)
    if kind == "disjoint":
        return BBox(a.x2 + draw(_size), a.y, w, h)
    return draw(_box())


@st.composite
def _image_boxes(draw):
    preds = draw(st.lists(_box(), max_size=5))
    gts = [draw(_box_near(draw(st.sampled_from(preds)))) if preds and draw(st.booleans())
           else draw(_box())
           for _ in range(draw(st.integers(0, 5)))]
    return preds, gts


@st.composite
def _seg_run(draw):
    """Images of up to 12 x 12 px, each with 0-3 predictions and 0-3
    ground truths of 1-2 rings on a quarter-pixel grid that reaches past
    the frame; a crossing cap and a vertex budget small enough that
    passes and chunks end inside one image's group."""
    def polygon(width, height):
        def coord(side):
            return draw(st.integers(-8, 4 * side + 8)) / 4
        return polygon_set([[v for _ in range(draw(st.integers(3, 5)))
                             for v in (coord(width), coord(height))]
                            for _ in range(draw(st.integers(1, 2)))])

    images, pred_groups, gt_groups = [], [], []
    for k in range(draw(st.integers(1, 5))):
        width, height = draw(st.integers(1, 12)), draw(st.integers(1, 12))
        images.append(ImageRecord(k + 1, width, height, "img.jpg"))
        pred_groups.append([PredictionInstance(k + 1, 0.5, 1, i,
                                               segmentation=polygon(width, height))
                            for i in range(draw(st.integers(0, 3)))])
        gt_groups.append([GroundTruthInstance(j + 1, k + 1, BBox(0, 0, 1, 1),
                                              polygon(width, height), 1)
                          for j in range(draw(st.integers(0, 3)))])
    return (images, pred_groups, gt_groups, draw(st.sampled_from([1, 3, 40, 1 << 16])),
            draw(st.sampled_from([1, 4, 9, 1 << 14])))


class TestColumnarCore:
    @_deterministic
    @given(_seg_run())
    def test_mask_iou_rows_equal_pairwise_mask_iou(self, case):
        images, pred_groups, gt_groups, cap, budget = case
        with mock.patch.object(geometry, "_PASS_CROSSINGS", cap), \
                mock.patch.object(geometry, "_CHUNK_VERTICES", budget):
            rows = list(_iou_rows(SEGMENTATION, pred_groups, gt_groups, images))
        expected, oracle = [], []
        for image, ps, gs in zip(images, pred_groups, gt_groups):
            size = image.width, image.height
            expected.append([[mask_iou(rasterize_runs(p.segmentation, *size),
                                       rasterize_runs(g.segmentation, *size))
                              for g in gs] for p in ps])
            pixels = [[ref.polygon_pixels(inst.segmentation.rings, *size) for inst in group]
                      for group in (ps, gs)]
            oracle.append([[ref.pixel_iou(p, g) for g in pixels[1]] for p in pixels[0]])
        assert rows == expected == oracle


    @_deterministic
    @given(st.lists(_image_boxes(), max_size=4))
    def test_box_iou_rows_equal_pairwise_box_iou(self, images):
        pred_groups = [[_pred(0.5, b.as_list(), i) for i, b in enumerate(ps)]
                       for ps, _ in images]
        gt_groups = [[_gt(j + 1, b.as_list()) for j, b in enumerate(gs)] for _, gs in images]
        rows = list(_iou_rows(DETECTION, pred_groups, gt_groups, [_img()] * len(images)))
        assert rows == [[[box_iou(a, b) for b in gs] for a in ps] for ps, gs in images]

    @_deterministic
    @given(st.data())
    def test_threshold_reuse_equals_per_threshold_greedy(self, data):
        # Values drawn from the thresholds themselves give ties and IoUs
        # exactly equal to a threshold.
        value = st.one_of(st.sampled_from((0.0, 1.0) + THRESHOLDS), st.floats(0, 1))
        n_gt = data.draw(st.integers(0, 6))
        rows = data.draw(st.lists(st.lists(value, min_size=n_gt, max_size=n_gt), max_size=6))
        taus = data.draw(st.one_of(
            st.just(THRESHOLDS),
            st.lists(st.sampled_from(THRESHOLDS) | st.floats(0.01, 1), min_size=1,
                     max_size=8, unique=True).map(sorted)))
        expected = [len(_greedy_pairs(rows, tau)) for tau in taus]
        assert _greedy_tp_by_threshold(rows, taus) == expected
        assert expected == [ref.greedy_match_size_counts(rows, n_gt, tau)[0] for tau in taus]


class TestConfusion:
    def _dataset_and_preds(self, tmp_path, pred_items):
        gt = make_gt(
            [image(1), image(2), image(3)],
            [
                annotation(1, 1, [10, 10, 20, 20]),
                annotation(2, 2, [10, 10, 20, 20]),
                annotation(3, 3, [10, 10, 20, 20]),
                annotation(4, 3, [50, 50, 20, 20]),
            ],
        )
        gt_path = write_json_file(tmp_path / "gt.json", gt)
        pred_path = write_json_file(tmp_path / "p.json", pred_items)
        ds = load_ground_truth(gt_path)
        preds = load_predictions(pred_path, ds, "detection")
        return ds, preds

    def test_perfect_predictions(self, tmp_path):
        ds, preds = self._dataset_and_preds(tmp_path, [
            det_pred(1, 0.9, [10, 10, 20, 20]),
            det_pred(2, 0.9, [10, 10, 20, 20]),
            det_pred(3, 0.9, [10, 10, 20, 20]),
            det_pred(3, 0.9, [50, 50, 20, 20]),
        ])
        c = _counts_at(ds, preds, 0.95)
        assert (c.tp, c.fp, c.fn) == (4, 0, 0)

    def test_empty_predictions(self, tmp_path):
        ds, preds = self._dataset_and_preds(tmp_path, [])
        c = _counts_at(ds, preds, 0.5)
        assert (c.tp, c.fp, c.fn) == (0, 0, 4)

    def test_hand_summed_mixture(self, tmp_path):
        # per-image (tp, fp, fn): (1,0,0), (0,1,1), (1,1,0) -> totals (2,2,1)
        gt = make_gt(
            [image(1), image(2), image(3)],
            [
                annotation(1, 1, [10, 10, 20, 20]),
                annotation(2, 2, [10, 10, 20, 20]),
                annotation(3, 3, [10, 10, 20, 20]),
            ],
        )
        ds = load_ground_truth(write_json_file(tmp_path / "gt3.json", gt))
        pred_path = write_json_file(tmp_path / "p3.json", [
            det_pred(1, 0.9, [10, 10, 20, 20]),   # image 1: matched
            det_pred(2, 0.9, [70, 70, 10, 10]),   # image 2: FP, GT missed
            det_pred(3, 0.9, [10, 10, 20, 20]),   # image 3: matched
            det_pred(3, 0.8, [80, 10, 10, 10]),   # image 3: extra FP
        ])
        preds = load_predictions(pred_path, ds, "detection")
        c = _counts_at(ds, preds, 0.5)
        assert (c.tp, c.fp, c.fn) == (2, 2, 1)

    def test_totals_invariant(self, tmp_path):
        rng = random.Random(43)
        items = [det_pred(rng.randint(1, 3), round(rng.random(), 3),
                          [rng.randint(0, 70), rng.randint(0, 70),
                           rng.randint(5, 25), rng.randint(5, 25)])
                 for _ in range(15)]
        ds, preds = self._dataset_and_preds(tmp_path, items)
        for tau in (0.4, 0.5, 0.75, 0.95):
            c = _counts_at(ds, preds, tau)
            assert c.tp + c.fn == 4
            assert c.tp + c.fp == len(preds)


class TestFBeta:
    def test_zero_convention(self):
        assert f_beta(ConfusionCounts(0, 0, 0), 1.0) == 0.0
        assert f_beta(ConfusionCounts(0, 5, 3), 2.0) == 0.0

    def test_hand_computed(self):
        c = ConfusionCounts(3, 1, 2)
        assert f_beta(c, 1.0) == pytest.approx(0.666666666, abs=1e-6)
        assert f_beta(c, 2.0) == pytest.approx(0.625)

    def test_harmonic_collapse_when_p_equals_r(self):
        c = ConfusionCounts(2, 1, 1)
        assert f_beta(c, 1.0) == pytest.approx(2 / 3)
        assert f_beta(c, 2.0) == pytest.approx(2 / 3)

    def test_f2_between_f1_and_recall(self):
        rng = random.Random(47)
        for _ in range(1000):
            c = ConfusionCounts(rng.randint(0, 30), rng.randint(0, 30),
                                rng.randint(0, 30))
            f1 = f_beta(c, 1.0)
            f2 = f_beta(c, 2.0)
            recall = c.tp / (c.tp + c.fn) if c.tp else 0.0
            assert min(f1, recall) - 1e-12 <= f2 <= max(f1, recall) + 1e-12


class TestFinalScore:
    # published leaderboard rows: the composite is the mean of the four
    # component metrics; +/-0.005 is inclusive (a 2-decimal rounding bound),
    # the 1e-9 guard only absorbs float representation noise at the boundary
    def test_segmentation_winner_row(self):
        assert final_score(69.26, 41.25, 70.61, 42.06) == pytest.approx(55.79, abs=0.005 + 1e-9)

    def test_detection_winner_row(self):
        assert final_score(67.86, 46.65, 65.67, 45.15) == pytest.approx(56.33, abs=0.005 + 1e-9)

    def test_zero(self):
        assert final_score(0, 0, 0, 0) == 0.0

    def test_permutation_invariant(self):
        rng = random.Random(53)
        vals = [rng.uniform(0, 100) for _ in range(4)]
        base = final_score(*vals)
        for _ in range(8):
            rng.shuffle(vals)
            assert final_score(*vals) == pytest.approx(base, abs=1e-12)


class TestEvaluate:
    def test_perfect_scores_100(self, tmp_path):
        gt = make_gt([image(1)], [annotation(1, 1, [10, 10, 20, 20])])
        gt_path = write_json_file(tmp_path / "gt.json", gt)
        pred_path = write_json_file(tmp_path / "p.json",
                                    [det_pred(1, 1.0, [10, 10, 20, 20])])
        ds = load_ground_truth(gt_path)
        preds = load_predictions(pred_path, ds, "detection")
        report = evaluate(ds, preds)
        assert report.headline() == (100.0, 100.0, 100.0, 100.0)
        assert report.final == 100.0

    def test_empty_scores_0(self, tmp_path):
        gt = make_gt([image(1)], [annotation(1, 1, [10, 10, 20, 20])])
        ds = load_ground_truth(write_json_file(tmp_path / "gt.json", gt))
        preds = load_predictions(write_json_file(tmp_path / "p.json", []),
                                 ds, "detection")
        report = evaluate(ds, preds)
        assert report.final == 0.0

    def test_iou_062_threshold_counting(self, tmp_path):
        # one pred/GT pair at IoU 0.625: F nonzero at 5 of 12 thresholds
        gt = make_gt([image(1)], [annotation(1, 1, [10, 10, 16, 20])])
        ds = load_ground_truth(write_json_file(tmp_path / "gt.json", gt))
        preds = load_predictions(
            write_json_file(tmp_path / "p.json",
                            [det_pred(1, 0.9, [10, 10, 10, 20])]),
            ds, "detection")
        pair_iou = 10 * 20 / (16 * 20)
        assert pair_iou == 0.625
        report = evaluate(ds, preds)
        assert report.f1_range == pytest.approx(100.0 * 5 / 12)
        assert report.f1_headline == 100.0

    def test_ground_truths_kept_and_matched_in_id_order(self, tmp_path):
        # Ids 5 and 3, listed in that order, tie at IoU 90/110 with the
        # first prediction.  The tie goes to id 3, so the second
        # prediction is left with id 5 at IoU 80/120, which fails 0.70.
        gt = make_gt([image(1)], [annotation(5, 1, [2, 0, 10, 10]),
                                  annotation(3, 1, [0, 0, 10, 10])])
        ds = load_ground_truth(write_json_file(tmp_path / "gt.json", gt))
        preds = load_predictions(
            write_json_file(tmp_path / "p.json", [det_pred(1, 0.9, [1, 0, 10, 10]),
                                                  det_pred(1, 0.8, [0, 0, 10, 10])]),
            ds, "detection")
        assert [g.id for g in ds.instances_for(1)] == [3, 5]
        assert _counts_at(ds, preds, 0.70) == ConfusionCounts(1, 1, 1)
        assert _counts_at(ds, preds, 0.65) == ConfusionCounts(2, 0, 0)
        m = match_image(preds.instances_for(1), list(reversed(ds.instances_for(1))),
                        0.70, "detection", ds.images[0])
        assert m.pairs == [(0, 3, 90 / 110)]
        assert m.unmatched_predictions == [1] and m.unmatched_ground_truths == [5]

    def test_matches_reference_implementation(self, tmp_path):
        from detsegeval.fixtures import generate_fixture
        fx = generate_fixture(seed=99, n_images=6, max_instances=5)
        ds = load_ground_truth(write_json_file(tmp_path / "gt.json", fx["gt"]))
        preds = load_predictions(write_json_file(tmp_path / "p.json", fx["det"]),
                                 ds, "detection")
        mine = evaluate(ds, preds)
        theirs = ref.evaluate(fx["gt"], fx["det"], "detection")
        for tm in mine.per_threshold:
            tp, fp, fn, f1, f2 = theirs["per_threshold"][tm.threshold]
            assert (tm.counts.tp, tm.counts.fp, tm.counts.fn) == (tp, fp, fn)
            assert tm.scores[1.0] == pytest.approx(f1, abs=1e-12)
            assert tm.scores[2.0] == pytest.approx(f2, abs=1e-12)
        assert mine.final == pytest.approx(theirs["final"], abs=1e-9)

    def test_score_rescaling_invariance(self, tmp_path):
        from detsegeval.fixtures import generate_fixture
        fx = generate_fixture(seed=7, n_images=4, max_instances=4)
        ds = load_ground_truth(write_json_file(tmp_path / "gt.json", fx["gt"]))
        preds = load_predictions(write_json_file(tmp_path / "p.json", fx["det"]),
                                 ds, "detection")
        scaled_items = [dict(p, score=p["score"] * 0.5) for p in fx["det"]]
        scaled = load_predictions(write_json_file(tmp_path / "s.json", scaled_items),
                                  ds, "detection")
        assert evaluate(ds, preds).to_dict() == evaluate(ds, scaled).to_dict()

    def test_byte_identical_duplicates_scored_as_distinct(self, tmp_path):
        gt = make_gt([image(1)], [annotation(1, 1, [10, 10, 20, 20])])
        ds = load_ground_truth(write_json_file(tmp_path / "gt.json", gt))
        dup = det_pred(1, 0.9, [10, 10, 20, 20])
        preds = load_predictions(write_json_file(tmp_path / "p.json", [dup, dup]),
                                 ds, "detection")
        c = _counts_at(ds, preds, 0.5)
        assert (c.tp, c.fp, c.fn) == (1, 1, 0)

    def test_no_panic_on_leniently_loaded_garbage(self, tmp_path):
        # whatever survives lenient loading must score without exceptions
        gt = make_gt([image(1)], [annotation(1, 1, [10, 10, 20, 20])])
        ds = load_ground_truth(write_json_file(tmp_path / "gt.json", gt))
        junk = [
            det_pred(1, 0.9, [10, 10, 20, 20]),
            det_pred(1, 1.7, [10, 10, 20, 20]),     # bad score
            det_pred(99, 0.5, [10, 10, 20, 20]),    # unknown image
            det_pred(1, 0.4, [5, 5, 0, 5]),         # degenerate
            {"image_id": 1, "category_id": 1, "score": 0.3},  # no payload
            "not even an object",
        ]
        preds = load_predictions(write_json_file(tmp_path / "p.json", junk),
                                 ds, "detection", lenient=True)
        report = evaluate(ds, preds)
        assert report.final == 100.0  # only the one good prediction survived


def _square(x, y, side):
    return [[x, y, x + side, y, x + side, y + side, x, y + side]]


def _seg_report(tmp_path, width, height, x0, y0):
    """Segmentation report for squares offset by ``(x0, y0)`` on a
    ``width x height`` frame; the predictions overlap their ground truths
    by a range of IoUs."""
    gts = [annotation(k + 1, 1, [x0 + 20 * k, y0, 10, 10],
                      segmentation=_square(x0 + 20 * k, y0, 10)) for k in range(3)]
    ds = load_ground_truth(write_json_file(
        tmp_path / f"gt_{width}.json", make_gt([image(1, width, height)], gts)))
    items = [seg_pred(1, 0.9 - 0.1 * k, _square(x0 + 20 * k + k, y0 + k, 10))
             for k in range(3)]
    retained, report = parse_predictions(items, ds, "segmentation")
    assert not report.errors
    return evaluate(ds, PredictionSet("segmentation", retained))


class TestLargeFrames:
    def test_validate_and_score_memory_is_bounded(self, tmp_path):
        ring = [100, 50, 3900, 200, 3800, 3950, 300, 3700]
        gt = make_gt([image(1, 4000, 4000)],
                     [annotation(1, 1, [100, 50, 3800, 3900], segmentation=[ring])])
        ds = load_ground_truth(write_json_file(tmp_path / "gt.json", gt))
        items = [seg_pred(1, 0.9, [ring]), seg_pred(1, 0.8, [[v + 7 for v in ring]])]
        tracemalloc.start()
        try:
            retained, report = parse_predictions(items, ds, "segmentation")
            result = evaluate(ds, PredictionSet("segmentation", retained))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not report.errors and result.per_threshold[-1].counts.tp == 1
        assert peak < 16 * 2 ** 20

    def test_frames_past_int64_pixel_indices_score_exactly(self, tmp_path):
        far = _seg_report(tmp_path, 2 ** 33, 2 ** 33, 2 ** 32, 2 ** 32)
        near = _seg_report(tmp_path, 64, 64, 0, 0)
        assert [tm.counts for tm in far.per_threshold] == \
               [tm.counts for tm in near.per_threshold]
        assert far.to_dict() == near.to_dict()
        assert 0 < near.per_threshold[-1].counts.tp < near.per_threshold[0].counts.tp


class TestFOverRange:
    def test_perfect_is_1(self, tmp_path):
        gt = make_gt([image(1)], [annotation(1, 1, [10, 10, 20, 20])])
        ds = load_ground_truth(write_json_file(tmp_path / "gt.json", gt))
        preds = load_predictions(
            write_json_file(tmp_path / "p.json",
                            [det_pred(1, 1.0, [10, 10, 20, 20])]),
            ds, "detection")
        report = evaluate(ds, preds)
        assert report.f1_range == 100.0 and report.f2_range == 100.0

    def test_empty_is_0(self, tmp_path):
        gt = make_gt([image(1)], [annotation(1, 1, [10, 10, 20, 20])])
        ds = load_ground_truth(write_json_file(tmp_path / "gt.json", gt))
        preds = load_predictions(write_json_file(tmp_path / "p.json", []),
                                 ds, "detection")
        report = evaluate(ds, preds)
        assert report.f1_range == 0.0 and report.f2_range == 0.0


def _report(f1, f1r, f2, f2r):
    return MetricsReport(
        task="detection", per_threshold=[],
        f1_headline=f1, f1_range=f1r, f2_headline=f2, f2_range=f2r,
        final=final_score(f1, f1r, f2, f2r), per_image={},
    )


class TestLeaderboard:
    def test_single_row(self):
        solo = _report(50, 40, 50, 40)
        assert leaderboard([("solo", solo)]) == [("solo", solo)]

    def test_published_order(self):
        # top two segmentation rows keep their published order
        ranked = leaderboard([
            ("Riposte", _report(67.55, 41.92, 61.26, 38.02)),
            ("UNO Pixel Pros", _report(69.26, 41.25, 70.61, 42.06)),
        ])
        assert [name for name, _ in ranked] == ["UNO Pixel Pros", "Riposte"]
        assert ranked[0][1].final == pytest.approx(55.79, abs=0.005 + 1e-9)
        assert ranked[1][1].final == pytest.approx(52.19, abs=0.005 + 1e-9)

    def test_tie_broken_by_f2_range(self):
        ranked = leaderboard([
            ("low", _report(60, 40, 58, 38.0)),
            ("high", _report(60, 36, 58, 42.0)),
        ])
        assert [name for name, _ in ranked] == ["high", "low"]

    def test_empty_raises(self):
        with pytest.raises(EmptyInputError):
            leaderboard([])

    def test_csv_quotes_names_with_commas_and_quotes(self):
        names = ["team, inc", 'the "best"', "plain"]
        ranked = leaderboard([(n, _report(80 - 10 * k, 40, 70, 40))
                              for k, n in enumerate(names)])
        text = leaderboard_csv(ranked)
        assert text == (
            "rank,name,f1,f1_range,f2,f2_range,final_score\n"
            '1,"team, inc",80.00,40.00,70.00,40.00,57.50\n'
            '2,"the ""best""",70.00,40.00,70.00,40.00,55.00\n'
            "3,plain,60.00,40.00,70.00,40.00,52.50\n"
        )
        assert [r[1] for r in csv.reader(io.StringIO(text))][1:] == names
