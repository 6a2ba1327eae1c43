"""Acceptance suite: one test (or parametrized family) per criterion,
each printing a pass line and pinned to its stated tolerance.

Criterion 1 checks the composite-score formula against all 16 published
leaderboard rows, kept exactly as published.  Two detection rows
("Riposte" and "VisionX") are internally inconsistent: the mean of their
four published component metrics differs from their published final
score by ~0.05, ten times the 2-decimal rounding bound, and no weighting
of the four metrics plus an intercept fits all 16 rows within that
bound.  Those two rows are listed in ``FINAL_ERRATA`` with the exact
mean of their components; their cases check ``final_score`` against
that value and pin the published gap.  The other 14 rows are checked
against their published final within the rounding bound.
"""

import json
import random
import time

import numpy as np
import pytest

from detsegeval.cli import main
from detsegeval.coco import load_ground_truth, load_predictions
from detsegeval.fixtures import generate_fixture
from detsegeval.fusion import (
    FusionParams,
    average_mask_ensemble,
    fuse_seg_det_scores,
    refine_segmentation,
    weighted_box_fusion,
)
from detsegeval.geometry import BBox, box_iou, mask_iou, rasterize, rasterize_runs
from detsegeval.metrics import (
    ConfusionCounts,
    evaluate,
    f_beta,
    final_score,
    match_image,
)
from conftest import polygon_set, write_json_file
import reference_impl as ref

TOL = 0.005 + 1e-9  # inclusive 2-decimal rounding bound with float guard

SEG_ROWS = [
    ("UNO Pixel Pros", 69.26, 41.25, 70.61, 42.06, 55.79),
    ("Riposte", 67.55, 41.92, 61.26, 38.02, 52.19),
    ("SoloSeg", 67.50, 37.54, 65.78, 36.58, 51.85),
    ("KMG", 66.24, 36.62, 59.46, 32.87, 48.80),
    ("RIP_YuvatejaReddy", 59.80, 35.53, 60.35, 35.86, 47.88),
    ("SiGMoid", 53.04, 33.73, 57.88, 36.81, 45.36),
    ("NTR", 51.51, 32.37, 45.54, 28.62, 39.51),
    ("Amitabh", 44.37, 27.66, 47.41, 29.56, 37.25),
]
DET_ROWS = [
    ("SiGMoid", 67.86, 46.65, 65.67, 45.15, 56.33),
    ("SoloSeg", 68.45, 45.12, 66.72, 43.97, 56.06),
    ("KMG", 71.21, 44.64, 66.12, 41.44, 55.85),
    ("Riposte", 65.43, 45.72, 59.34, 41.66, 52.99),
    ("RIP_YuvatejaReddy", 63.56, 41.53, 64.14, 41.90, 52.78),
    ("VisionX", 59.60, 41.84, 61.76, 43.38, 51.60),
    ("NTR", 60.00, 38.93, 58.67, 38.07, 48.92),
    ("Amitabh", 48.52, 32.46, 51.84, 34.68, 41.87),
]

ALL_ROWS = [("seg", *row) for row in SEG_ROWS] + [("det", *row) for row in DET_ROWS]

# Published rows whose final score is not the mean of their own published
# components; each value is that exact mean.  Ranking by the mean still
# gives the published order, so the inconsistency changes no rank.
FINAL_ERRATA = {
    ("det", "Riposte"): 53.0375,  # published 52.99, gap 0.0475
    ("det", "VisionX"): 51.645,  # published 51.60, gap 0.045
}


@pytest.mark.parametrize(
    "task,name,f1,f1r,f2,f2r,published",
    ALL_ROWS,
    ids=[f"{task}-{row[0]}" for task, *row in ALL_ROWS],
)
def test_criterion_1_final_score_formula(task, name, f1, f1r, f2, f2r, published):
    computed = final_score(f1, f1r, f2, f2r)
    erratum = FINAL_ERRATA.get((task, name))
    if erratum is not None:
        assert computed == pytest.approx(erratum, abs=1e-9), (
            f"{name} ({task}): final is {computed:.4f}, "
            f"mean of published components is {erratum:.4f}"
        )
        assert abs(published - erratum) > TOL, (
            f"{name} ({task}): published final {published:.2f} is within "
            f"rounding of {erratum:.4f}; drop it from FINAL_ERRATA"
        )
        return
    assert computed == pytest.approx(published, abs=TOL), (
        f"{name} ({task}): mean of components is {computed:.4f}, "
        f"published final is {published:.2f}"
    )


def test_criterion_1_summary():
    mismatched = {
        (task, name)
        for task, name, f1, f1r, f2, f2r, published in ALL_ROWS
        if abs(final_score(f1, f1r, f2, f2r) - published) > TOL
    }
    assert mismatched == set(FINAL_ERRATA)
    for rows in (SEG_ROWS, DET_ROWS):
        by_published = sorted(rows, key=lambda row: row[5], reverse=True)
        by_score = sorted(rows, key=lambda row: final_score(*row[1:5]),
                          reverse=True)
        assert [row[0] for row in by_score] == [row[0] for row in by_published]
    errata = ", ".join(f"{name} ({task})" for task, name in sorted(FINAL_ERRATA))
    print(f"[acceptance] criterion 1 (final-score formula): "
          f"{len(ALL_ROWS) - len(mismatched)}/{len(ALL_ROWS)} published rows "
          f"reproduce within 0.005; errata rows: {errata}; "
          f"published ranking reproduced: PASS")


def _load_fixture(tmp_path, fx, task):
    gt_path = write_json_file(tmp_path / "gt.json", fx["gt"])
    key = "det" if task == "detection" else "seg"
    pred_path = write_json_file(tmp_path / "pred.json", fx[key])
    ds = load_ground_truth(gt_path)
    preds = load_predictions(pred_path, ds, task)
    return ds, preds


def _assert_matches_reference(mine, theirs):
    for tm in mine.per_threshold:
        tp, fp, fn, f1, f2 = theirs["per_threshold"][tm.threshold]
        assert (tm.counts.tp, tm.counts.fp, tm.counts.fn) == (tp, fp, fn), (
            f"counts diverge at threshold {tm.threshold}"
        )
        assert abs(tm.scores[1.0] - f1) <= 1e-9
        assert abs(tm.scores[2.0] - f2) <= 1e-9
    for a, b in zip(mine.headline(), theirs["headline"]):
        assert abs(a - b) <= 1e-9
    assert abs(mine.final - theirs["final"]) <= 1e-9


def test_criterion_2_scoring_matches_reference(tmp_path):
    started = time.monotonic()
    n_fixtures = 0
    for seed in range(150):  # detection fixtures
        fx = generate_fixture(seed=1000 + seed, n_images=2 + seed % 9,
                              max_instances=1 + seed % 8,
                              perturbation=(seed % 4) * 0.08)
        ds, preds = _load_fixture(tmp_path, fx, "detection")
        _assert_matches_reference(evaluate(ds, preds), ref.evaluate(fx["gt"], fx["det"], "detection"))
        n_fixtures += 1
    for seed in range(60):  # segmentation fixtures, smaller images
        fx = generate_fixture(seed=5000 + seed, n_images=2 + seed % 3,
                              max_instances=1 + seed % 4,
                              perturbation=(seed % 3) * 0.1,
                              min_size=40, max_size=56)
        ds, preds = _load_fixture(tmp_path, fx, "segmentation")
        _assert_matches_reference(evaluate(ds, preds), ref.evaluate(fx["gt"], fx["seg"], "segmentation"))
        n_fixtures += 1
    elapsed = time.monotonic() - started
    assert n_fixtures >= 200
    assert elapsed < 10.0, f"scoring oracle run took {elapsed:.1f}s"
    print(f"[acceptance] criterion 2 (scoring oracle, {n_fixtures} fixtures, "
          f"{elapsed:.1f}s): PASS")


def _star_ring(rng, lo=8, hi=56):
    cx = rng.uniform(lo + 10, hi - 10)
    cy = rng.uniform(lo + 10, hi - 10)
    n = rng.randint(3, 10)
    angles = sorted(rng.uniform(0, 2 * 3.14159265) for _ in range(n))
    ring = []
    for a in angles:
        r = rng.uniform(2, 12)
        ring.extend((cx + r * np.cos(a), cy + r * np.sin(a)))
    return ring


def test_criterion_3_geometry_matches_oracles():
    started = time.monotonic()
    rng = random.Random(314)
    for _ in range(100):  # rasterization vs exhaustive point-in-polygon
        ring = _star_ring(rng)
        mask = rasterize(polygon_set([ring]), 64, 64)
        for row in range(64):
            for col in range(64):
                assert bool(mask[row, col]) == ref.point_in_ring(col + 0.5, row + 0.5, ring)
    for _ in range(100):  # analytic box IoU vs fine-grid rasterized IoU
        a = BBox(rng.uniform(0, 30), rng.uniform(0, 30),
                 rng.uniform(2, 20), rng.uniform(2, 20))
        b = BBox(rng.uniform(0, 30), rng.uniform(0, 30),
                 rng.uniform(2, 20), rng.uniform(2, 20))
        scale = 8
        grid = 64 * scale
        ra = rasterize_runs(polygon_set(
            [[v * scale for v in (a.x, a.y, a.x2, a.y, a.x2, a.y2, a.x, a.y2)]]),
            grid, grid)
        rb = rasterize_runs(polygon_set(
            [[v * scale for v in (b.x, b.y, b.x2, b.y, b.x2, b.y2, b.x, b.y2)]]),
            grid, grid)
        assert abs(box_iou(a, b) - mask_iou(ra, rb)) <= 0.01
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"geometry oracle run took {elapsed:.1f}s"
    print(f"[acceptance] criterion 3 (geometry oracles, {elapsed:.1f}s): PASS")


def test_criterion_4_matching_properties():
    from detsegeval.coco import GroundTruthInstance, ImageRecord, PredictionInstance

    started = time.monotonic()
    rng = random.Random(271)
    image = ImageRecord(1, 100, 100, "img.jpg")
    n_cases = 500
    for _ in range(n_cases):
        n_gt = rng.randint(0, 8)
        n_pred = rng.randint(0, 8)
        gts = []
        for j in range(n_gt):
            x, y = rng.uniform(0, 60), rng.uniform(0, 60)
            w, h = rng.uniform(5, 30), rng.uniform(5, 30)
            gts.append(GroundTruthInstance(
                j + 1, 1, BBox(x, y, w, h),
                polygon_set([[x, y, x + w, y, x + w, y + h, x, y + h]]), 1))
        preds = []
        for i in range(n_pred):
            x, y = rng.uniform(0, 60), rng.uniform(0, 60)
            w, h = rng.uniform(5, 30), rng.uniform(5, 30)
            preds.append(PredictionInstance(1, round(rng.random(), 4), 1, i,
                                            bbox=BBox(x, y, w, h)))
        preds.sort(key=lambda p: (-p.score, p.source_index))
        tau = rng.choice((0.3, 0.5, 0.7))
        m = match_image(preds, gts, tau, "detection", image)

        pred_ids = [i for i, _, _ in m.pairs]
        gt_ids = [g for _, g, _ in m.pairs]
        assert len(set(pred_ids)) == len(pred_ids)       # one-to-one
        assert len(set(gt_ids)) == len(gt_ids)
        assert all(iou >= tau for _, _, iou in m.pairs)  # gated
        gt_by_id = {g.id: g for g in gts}
        for i in m.unmatched_predictions:                # maximal
            for gid in m.unmatched_ground_truths:
                assert box_iou(preds[i].bbox, gt_by_id[gid].bbox) < tau

        iou_rows = [[ref.box_iou(p.bbox.as_list(), g.bbox.as_list()) for g in gts]
                    for p in preds]
        optimal = ref.max_matching_size(iou_rows, tau)
        assert 2 * len(m.pairs) >= optimal               # >= half of optimal
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"matching property run took {elapsed:.1f}s"
    print(f"[acceptance] criterion 4 (matching properties, {n_cases} cases, "
          f"{elapsed:.1f}s): PASS")


def test_criterion_5_metric_properties(tmp_path):
    rng = random.Random(161)
    for _ in range(1000):  # F2 lies weakly between F1 and recall
        c = ConfusionCounts(rng.randint(0, 40), rng.randint(0, 40), rng.randint(0, 40))
        f1, f2 = f_beta(c, 1.0), f_beta(c, 2.0)
        recall = c.tp / (c.tp + c.fn) if c.tp else 0.0
        assert min(f1, recall) - 1e-12 <= f2 <= max(f1, recall) + 1e-12

    assert f_beta(ConfusionCounts(0, 0, 0), 1.0) == 0.0   # zero-denominator
    assert f_beta(ConfusionCounts(0, 9, 9), 2.0) == 0.0

    for seed in range(50):  # score-rescaling invariance of the full report
        fx = generate_fixture(seed=7000 + seed, n_images=3, max_instances=4)
        ds, preds = _load_fixture(tmp_path, fx, "detection")
        scaled_items = [dict(p, score=p["score"] * 0.25) for p in fx["det"]]
        scaled_path = write_json_file(tmp_path / "scaled.json", scaled_items)
        scaled = load_predictions(scaled_path, ds, "detection")
        assert evaluate(ds, preds).to_dict() == evaluate(ds, scaled).to_dict()
    print("[acceptance] criterion 5 (metric properties): PASS")


def test_criterion_6_fusion_constants():
    params = FusionParams()

    # score fusion: matched path and penalty path
    seg = polygon_set([[0, 0, 10, 0, 10, 10, 0, 10]])
    fused = fuse_seg_det_scores([(seg, 0.5)], [(BBox(0, 0, 10, 30), 0.9)], params)
    assert fused[0][1] == pytest.approx(0.85 * 0.5 + 0.15 * 0.9) == pytest.approx(0.56)
    penalized = fuse_seg_det_scores([(seg, 0.4)], [(BBox(30, 30, 20, 20), 0.9)], params)
    assert penalized[0][1] == pytest.approx(0.95 * 0.4) == pytest.approx(0.38)

    # averaged-mask ensemble area floor: 99 px removed, 100 px kept
    m99 = np.zeros((32, 32))
    m99[1:10, 1:12] = 1.0
    assert int((m99 > 0).sum()) == 99
    assert average_mask_ensemble([m99], params) == []
    m100 = np.zeros((32, 32))
    m100[1:11, 1:11] = 1.0
    assert int((m100 > 0).sum()) == 100
    assert len(average_mask_ensemble([m100], params)) == 1

    # refinement area floor: 23 px dropped, 24 px kept
    poly23 = polygon_set([[2, 2, 25, 2, 25, 3, 2, 3]])
    assert int(rasterize(poly23, 64, 64).sum()) == 23
    assert refine_segmentation(poly23, 64, 64, params) is None
    poly24 = polygon_set([[2, 2, 26, 2, 26, 3, 2, 3]])
    assert int(rasterize(poly24, 64, 64).sum()) == 24
    assert refine_segmentation(poly24, 64, 64, params) is not None

    # equal-weight WBF on identical boxes averages scores
    box = BBox(10, 10, 20, 20)
    fused_boxes = weighted_box_fusion([[(box, 0.6)], [(box, 0.8)]], 0.5)
    assert fused_boxes == [(box, pytest.approx(0.7))]
    print("[acceptance] criterion 6 (published fusion constants): PASS")


def test_criterion_7_idempotence_and_closure(tmp_path):
    # refine_segmentation re-applied changes zero pixels
    params = FusionParams()
    rng = random.Random(99)
    checked = 0
    for seed in range(20):
        fx = generate_fixture(seed=8000 + seed, n_images=2, max_instances=3)
        for ann in fx["gt"]["annotations"]:
            poly = polygon_set(ann["segmentation"])
            first = refine_segmentation(poly, 128, 128, params)
            if first is None:
                continue
            second = refine_segmentation(first, 128, 128, params)
            assert second is not None
            assert np.array_equal(rasterize(first, 128, 128),
                                  rasterize(second, 128, 128))
            checked += 1
    assert checked >= 20

    # cmd_fuse output re-validates with exit 0 on every preset
    presets = ("identity", "uno", "sigmoid", "kmg", "ntr", "visionx")
    n_runs = 0
    for seed in range(20):
        fx = generate_fixture(seed=8100 + seed, n_images=2, max_instances=3,
                              min_size=48, max_size=72)
        root = tmp_path / f"c7_{seed}"
        gt = write_json_file(root / "gt.json", fx["gt"])
        det = write_json_file(root / "det.json", fx["det"])
        seg = write_json_file(root / "seg.json", fx["seg"])
        task = "det" if seed % 2 == 0 else "seg"
        for preset in presets:
            out = root / f"fused_{preset}.json"
            code = main(["fuse", str(gt), str(seg), str(det),
                         "--preset", preset, "--task", task, "--out", str(out)])
            assert code == 0, f"fuse failed for preset {preset} (seed {seed})"
            assert main(["validate", str(gt), str(out), "--task", task]) == 0, (
                f"closure violated for preset {preset} (seed {seed})"
            )
            n_runs += 1
    print(f"[acceptance] criterion 7 (idempotence + closure, {checked} polygons, "
          f"{n_runs} fuse runs): PASS")


def test_criterion_8_parallel_determinism(tmp_path):
    started = time.monotonic()
    fixture_dir = tmp_path / "big"
    assert main(["gen-fixture", "--seed", "42", "--images", "1000",
                 "--out", str(fixture_dir)]) == 0
    gt = fixture_dir / "gt.json"
    preds = fixture_dir / "pred_det.json"
    reports = []
    for run in ("first", "second"):
        assert main(["score", str(gt), str(preds), "--task", "det",
                     "--out", str(tmp_path / run)]) == 0
        reports.append((tmp_path / run / "report.json").read_bytes())
    assert reports[0] == reports[1]
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"1000-image determinism run took {elapsed:.1f}s"
    print(f"[acceptance] criterion 8 (determinism, 1000 images, "
          f"{elapsed:.1f}s): PASS")
