"""Workload definitions: seeded fixtures, the CLI command sequence each
workload runs, and the checks that each command's outputs are correct.

Every workload calls ``generate_fixture`` with its own size range (the
``gen-fixture`` subcommand exposes no size flags).  Extra submissions and
"models" are the same seed at perturbation 0.15, 0.25 and 0.35, which
share one byte-identical ground truth and the same number of predictions
per image.

``generate_fixture`` draws 0-4 instances per image, so on a few large
frames the amount of work changes several-fold from seed to seed.  The
segmentation workloads therefore keep a fixed input size: they take, in
order, the first images of a seeded pool that hold exactly ``per_image``
ground truths and ``per_image`` predictions.  The seed still decides every
frame size, shape and score.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

PERTURBATIONS = {"a": 0.15, "b": 0.25, "c": 0.35}
FUSE_SEG_PRESETS = ("sigmoid", "ntr", "uno", "visionx")


@dataclass(frozen=True)
class Op:
    key: str                  # unique within a workload, e.g. "score:det_b"
    name: str                 # command the metrics group by, e.g. "score"
    argv: tuple[str, ...]     # arguments to ``detsegeval.cli.main``
    outputs: tuple[str, ...]  # files whose bytes form the op's digest
    images: int               # images processed (x submissions for leaderboard)


@dataclass(frozen=True)
class Workload:
    name: str
    n_images: int
    min_size: int
    max_size: int
    task: str                  # "det" or "seg"
    per_image: int | None      # fixed GT and prediction count per image
    why: str

    def ops(self, work: Path) -> list[Op]:
        return _OPS[self.name](self, work)


WORKLOADS = {w.name: w for w in (
    Workload("det-boxes", 2000, 64, 128, "det", None,
             "box-only path: JSON parse, GT lookup, per-pair box IoU, greedy passes "
             "and box fusion dominate; the raster layer does no work"),
    Workload("seg-score-fuse", 12, 480, 608, "seg", 2,
             "challenge-sized frames: full-frame rasterization read for IoU by "
             "validate/score/leaderboard and written by four mask-fusion presets"),
    # One fixed frame size: peak memory follows the largest frame, so a
    # size range would make peak_rss_mb depend on the seed.
    Workload("seg-bigframe", 4, 3000, 3000, "seg", 2,
             "3000x3000 frames: full-frame masks set peak memory and "
             "per-pixel cost with almost no matching work"),
)}


def write_fixture(workload: Workload, seed: int, work: Path) -> dict:
    """Write the workload's inputs under ``work``; return their sizes."""
    from detsegeval.fixtures import generate_fixture

    pool = workload.n_images if workload.per_image is None else 64 * workload.n_images
    fixtures = {key: generate_fixture(seed, pool, min_size=workload.min_size,
                                      max_size=workload.max_size, perturbation=p)
                for key, p in PERTURBATIONS.items()}
    gts = {json.dumps(f["gt"], sort_keys=True) for f in fixtures.values()}
    if len(gts) != 1:
        raise RuntimeError("ground truth differs across perturbations")
    if workload.per_image is not None:
        fixtures = _select_images(fixtures, workload.n_images, workload.per_image)
    _dump(fixtures["a"]["gt"], work / "gt.json")
    for key, fixture in fixtures.items():
        _dump(fixture["det"], work / "det" / f"det_{key}.json")
        _dump(fixture["seg"], work / "seg" / f"seg_{key}.json")
    return {"images": workload.n_images,
            "gt_instances": len(fixtures["a"]["gt"]["annotations"]),
            "predictions": len(fixtures["a"][workload.task])}


def _select_images(fixtures: dict, n: int, k: int) -> dict:
    """Keep the first ``n`` images with exactly ``k`` ground truths and ``k``
    predictions (the same in every perturbation), with their instances."""
    def per_image(items):
        counts: dict[int, int] = {}
        for item in items:
            counts[item["image_id"]] = counts.get(item["image_id"], 0) + 1
        return counts

    gt = fixtures["a"]["gt"]
    n_gt = per_image(gt["annotations"])
    n_pred = [per_image(f["seg"]) for f in fixtures.values()]
    keep = [im["id"] for im in gt["images"]
            if n_gt.get(im["id"]) == k and all(c.get(im["id"]) == k for c in n_pred)][:n]
    if len(keep) < n:
        raise RuntimeError(f"pool holds only {len(keep)} images with {k} instances each")
    wanted = set(keep)

    def only(items):
        return [item for item in items if item["image_id"] in wanted]

    gt = {**gt, "images": [im for im in gt["images"] if im["id"] in wanted],
          "annotations": only(gt["annotations"])}
    return {key: {"gt": gt, "det": only(f["det"]), "seg": only(f["seg"])}
            for key, f in fixtures.items()}


def _dump(obj, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj), encoding="utf-8")


def _validate(task: str, gt: Path, preds: Path, out: Path, n: int) -> Op:
    target = out / f"validate_{preds.stem}.json"
    return Op(f"validate:{preds.stem}", "validate",
              ("validate", str(gt), str(preds), "--task", task, "--out", str(target)),
              (str(target),), n)


def _score(task: str, gt: Path, preds: Path, out: Path, n: int) -> Op:
    target = out / f"score_{preds.stem}"
    return Op(f"score:{preds.stem}", "score",
              ("score", str(gt), str(preds), "--task", task, "--out", str(target)),
              (str(target / "report.json"), str(target / "report.md")), n)


def _leaderboard(task: str, gt: Path, subs: Path, out: Path, n: int) -> Op:
    return Op("leaderboard", "leaderboard",
              ("leaderboard", str(gt), str(subs), "--task", task,
               "--out", str(out / "leaderboard")),
              (str(out / "leaderboard" / "leaderboard.csv"),
               str(out / "leaderboard" / "leaderboard.md")),
              n * len(PERTURBATIONS))


def _fuse(preset: str, task: str, gt: Path, inputs: list[Path], out: Path, n: int) -> Op:
    target = out / f"fused_{preset}_{task}.json"
    return Op(f"fuse_{preset}", f"fuse_{preset}",
              ("fuse", str(gt), *map(str, inputs), "--task", task, "--preset", preset,
               "--out", str(target)),
              (str(target),), n)


def _submissions(w: Workload, work: Path, others: list[Op]) -> list[Op]:
    """Validate and score every submission, with the other commands in
    between, so each command's samples spread over the whole round."""
    gt, out, n = work / "gt.json", work / "out", w.n_images
    subs = [work / w.task / f"{w.task}_{key}.json" for key in PERTURBATIONS]
    ops: list[Op] = []
    for k, sub in enumerate(subs):
        ops += [_validate(w.task, gt, sub, out, n), _score(w.task, gt, sub, out, n)]
        ops += others[k::len(subs)]
    return ops


def _det_boxes(w: Workload, work: Path) -> list[Op]:
    gt, out, n = work / "gt.json", work / "out", w.n_images
    models = [work / "det" / "det_a.json", work / "det" / "det_b.json"]
    return _submissions(w, work, [_leaderboard("det", gt, work / "det", out, n),
                                  _fuse("kmg", "det", gt, models, out, n),
                                  _fuse("ntr", "det", gt, models, out, n)])


def _seg_score_fuse(w: Workload, work: Path) -> list[Op]:
    gt, out, n = work / "gt.json", work / "out", w.n_images
    models = [work / "seg" / "seg_a.json", work / "seg" / "seg_b.json",
              work / "det" / "det_a.json", work / "det" / "det_b.json"]
    return _submissions(w, work, [_leaderboard("seg", gt, work / "seg", out, n)]
                        + [_fuse(p, "seg", gt, models, out, n) for p in FUSE_SEG_PRESETS])


def _seg_bigframe(w: Workload, work: Path) -> list[Op]:
    gt, out, n = work / "gt.json", work / "out", w.n_images
    seg_a = work / "seg" / "seg_a.json"
    return [_validate("seg", gt, seg_a, out, n), _score("seg", gt, seg_a, out, n)]


_OPS = {"det-boxes": _det_boxes, "seg-score-fuse": _seg_score_fuse,
        "seg-bigframe": _seg_bigframe}


def digest(paths) -> str:
    """SHA-256 over the named files' names and bytes, in the given order."""
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).name.encode())
        h.update(b"\0")
        h.update(Path(p).read_bytes())
        h.update(b"\0")
    return h.hexdigest()


# --- output checks ---------------------------------------------------------------
#
# Each check returns a list of problems (empty when the output is correct).
# They hold for any seed, so they guard runs whose seed has no recorded digest.


def _load(path) -> object:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _box_iou(a, b) -> float:
    iw = min(a[0] + a[2], b[0] + b[2]) - max(a[0], b[0])
    ih = min(a[1] + a[3], b[1] + b[3]) - max(a[1], b[1])
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    union = a[2] * a[3] + b[2] * b[3] - inter
    return inter / union if union > 0 else 0.0


def _window_mask(rings, width: int, height: int):
    """Pixels of a polygon set inside its bounding window: ``(row0, col0, mask)``.

    A pixel is set when its center is inside a ring under the even-odd
    rule, counting crossings strictly left of the center; rings are united.
    """
    xs = [v for ring in rings for v in ring[0::2]]
    ys = [v for ring in rings for v in ring[1::2]]
    c0, c1 = max(0, math.floor(min(xs))), min(width, math.ceil(max(xs)) + 1)
    r0, r1 = max(0, math.floor(min(ys))), min(height, math.ceil(max(ys)) + 1)
    px = np.arange(c0, max(c0, c1)) + 0.5
    py = np.arange(r0, max(r0, r1)) + 0.5
    out = np.zeros((len(py), len(px)), dtype=bool)
    for ring in rings:
        inside = np.zeros_like(out)
        pts = list(zip(ring[0::2], ring[1::2]))
        for (x1, y1), (x2, y2) in zip(pts, pts[1:] + pts[:1]):
            if y1 == y2:
                continue
            rows = (py >= min(y1, y2)) & (py < max(y1, y2))
            x_cross = x1 + (py - y1) * (x2 - x1) / (y2 - y1)
            inside ^= rows[:, None] & (x_cross[:, None] < px[None, :])
        out |= inside
    return r0, c0, out


def _mask_iou(a, b) -> float:
    (ar, ac, am), (br, bc, bm) = a, b
    r0, r1 = max(ar, br), min(ar + am.shape[0], br + bm.shape[0])
    c0, c1 = max(ac, bc), min(ac + am.shape[1], bc + bm.shape[1])
    inter = 0
    if r0 < r1 and c0 < c1:
        inter = int(np.count_nonzero(am[r0 - ar:r1 - ar, c0 - ac:c1 - ac]
                                     & bm[r0 - br:r1 - br, c0 - bc:c1 - bc]))
    union = int(np.count_nonzero(am)) + int(np.count_nonzero(bm)) - inter
    return inter / union if union else 0.0


def oracle_counts(gt: dict, preds: list, taus: list[float], task: str) -> dict:
    """Independent greedy matching: {tau: (tp, fp, fn)} summed over images.

    IoU is analytic box IoU for "det" and pixel IoU of bounding-window
    masks for "seg".  Predictions are visited by descending score, ties by
    file position; each claims the unmatched ground truth of highest IoU
    >= tau, ties to the lowest id.
    """
    key = "bbox" if task == "det" else "segmentation"
    gts_by_image: dict[int, list] = {}
    for ann in sorted(gt["annotations"], key=lambda a: a["id"]):
        gts_by_image.setdefault(ann["image_id"], []).append(ann[key])
    preds_by_image: dict[int, list] = {}
    for k, p in enumerate(preds):
        preds_by_image.setdefault(p["image_id"], []).append((-p["score"], k, p[key]))
    totals = {t: [0, 0, 0] for t in taus}
    for image in gt["images"]:
        gts = gts_by_image.get(image["id"], [])
        ps = [payload for _, _, payload in sorted(preds_by_image.get(image["id"], []))]
        if task == "det":
            rows = [[_box_iou(p, g) for g in gts] for p in ps]
        else:
            size = image["width"], image["height"]
            gm = [_window_mask(g, *size) for g in gts]
            rows = [[_mask_iou(pm, g) for g in gm] for pm in (_window_mask(p, *size) for p in ps)]
        for tau in taus:
            taken = [False] * len(gts)
            tp = 0
            for row in rows:
                best, best_iou = -1, 0.0
                for j, iou in enumerate(row):
                    if not taken[j] and iou >= tau and iou > best_iou:
                        best, best_iou = j, iou
                if best >= 0:
                    taken[best] = True
                    tp += 1
            acc = totals[tau]
            acc[0] += tp
            acc[1] += len(ps) - tp
            acc[2] += len(gts) - tp
    return {t: tuple(v) for t, v in totals.items()}


def _f_beta(tp, fp, fn, beta) -> float:
    if tp == 0:
        return 0.0
    p, r = tp / (tp + fp), tp / (tp + fn)
    return (1 + beta * beta) * p * r / (beta * beta * p + r)


def _final_from_counts(counts: dict, headline: float, thresholds: list[float]) -> float:
    f1h = 100 * _f_beta(*counts[headline], 1.0)
    f2h = 100 * _f_beta(*counts[headline], 2.0)
    f1r = 100 * sum(_f_beta(*counts[t], 1.0) for t in thresholds) / len(thresholds)
    f2r = 100 * sum(_f_beta(*counts[t], 2.0) for t in thresholds) / len(thresholds)
    return (f1h + f1r + f2h + f2r) / 4


def check_validate(out_path, preds_path) -> list[str]:
    report = _load(out_path)
    n = len(_load(preds_path))
    problems = []
    if report["errors"]:
        problems.append(f"validate reported {len(report['errors'])} errors")
    if report["counts"]["instances_seen"] != n or report["counts"]["instances_dropped"]:
        problems.append(f"validate counts {report['counts']} for {n} predictions")
    return problems


def check_score(report_path, gt_path, preds_path, task: str) -> list[str]:
    report = _load(report_path)
    gt, preds = _load(gt_path), _load(preds_path)
    n_gt, n_pred = len(gt["annotations"]), len(preds)
    problems = []
    rows = report["per_threshold"]
    counts = {r["threshold"]: (r["tp"], r["fp"], r["fn"]) for r in rows}
    for tau, (tp, fp, fn) in counts.items():
        if tp + fp != n_pred or tp + fn != n_gt:
            problems.append(f"counts at {tau} do not add up to {n_pred}/{n_gt}")
    tps = [counts[t][0] for t in sorted(counts)]
    if any(a < b for a, b in zip(tps, tps[1:])):
        problems.append("true positives rise with the IoU threshold")
    head = report["headline"]
    mean = (head["f1"] + head["f1_range"] + head["f2"] + head["f2_range"]) / 4
    if not math.isclose(mean, head["final_score"], rel_tol=1e-12, abs_tol=1e-12):
        problems.append("final score is not the mean of the four headline scores")
    if oracle_counts(gt, preds, sorted(counts), task) != counts:
        problems.append("counts differ from the independent matcher")
    expected = _final_from_counts(counts, report["headline_threshold"], report["thresholds"])
    if not math.isclose(expected, head["final_score"], rel_tol=1e-9):
        problems.append("final score differs from the independent F-beta")
    return problems


def check_leaderboard(csv_path, gt_path, subs_dir, task: str) -> list[str]:
    rows = list(csv.DictReader(io.StringIO(Path(csv_path).read_text(encoding="utf-8"))))
    subs = sorted(Path(subs_dir).glob("*.json"))
    problems = []
    if [int(r["rank"]) for r in rows] != list(range(1, len(subs) + 1)):
        problems.append(f"leaderboard ranks {[r['rank'] for r in rows]} for {len(subs)} submissions")
    finals = [float(r["final_score"]) for r in rows]
    if finals != sorted(finals, reverse=True):
        problems.append("leaderboard is not ordered by final score")
    gt = _load(gt_path)
    thresholds = [round(0.40 + 0.05 * i, 2) for i in range(12)]
    by_name = {r["name"]: float(r["final_score"]) for r in rows}
    for sub in subs:
        counts = oracle_counts(gt, _load(sub), thresholds, task)
        expected = _final_from_counts(counts, 0.5, thresholds)
        if not math.isclose(by_name.get(sub.stem, math.nan), expected, abs_tol=0.0051):
            problems.append(f"{sub.stem}: leaderboard final differs from the independent scorer")
    return problems


def check_fused(fused_path, gt_path, task: str) -> list[str]:
    """A fused output must load back as a strictly valid, non-empty submission."""
    from detsegeval.coco import load_ground_truth, parse_predictions

    kind = "detection" if task == "det" else "segmentation"
    preds, report = parse_predictions(fused_path, load_ground_truth(gt_path), kind)
    problems = [f"fused output fails validation: {e.code} at {e.location}"
                for e in report.errors[:3]]
    if not preds:
        problems.append("fused output is empty")
    return problems


def check_op(op: Op, work: Path, task: str) -> list[str]:
    gt = work / "gt.json"
    if op.name == "validate":
        return check_validate(op.outputs[0], op.argv[2])
    if op.name == "score":
        return check_score(op.outputs[0], gt, op.argv[2], task)
    if op.name == "leaderboard":
        return check_leaderboard(op.outputs[0], gt, op.argv[2], task)
    fused_task = op.argv[op.argv.index("--task") + 1]
    return check_fused(op.outputs[0], gt, fused_task)
