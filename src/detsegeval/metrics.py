"""Instance matching, confusion counting, F-beta scoring over IoU
thresholds, the composite final score, and leaderboard assembly.

Matching protocol (documented choice, greedy COCO-style): predictions are
visited in descending-score order (ties by input index) and each one
claims the still-unmatched ground truth with the highest IoU, provided
that IoU reaches the threshold; IoU ties go to the lowest ground-truth
id.  Aggregation is micro: true/false positives and false negatives are
summed over the whole dataset before a single F-score is computed.
"""

from __future__ import annotations

import csv
import io
from bisect import bisect_left
from dataclasses import dataclass
from itertools import islice
from typing import Sequence

import numpy as np

from .coco import (
    DETECTION,
    Dataset,
    GroundTruthInstance,
    ImageRecord,
    JsonText,
    PredictionInstance,
    PredictionSet,
    to_json,
)
from .errors import EmptyInputError
from .geometry import box_columns, box_iou_columns, group_pairs, mask_iou, rasterize_runs_many

# The challenge's definition: the composite score is the mean of F1 and
# F2 at the headline threshold and over the 0.40:0.95 range.
BETAS = (1.0, 2.0)
HEADLINE_THRESHOLD = 0.50
# 0.40, 0.45, ..., 0.95; the headline threshold is one of them.
THRESHOLDS = tuple(round(0.40 + 0.05 * i, 2) for i in range(12))
# The report's key of each threshold, formatted once, not per image.
_THRESHOLD_KEYS = {tau: f"{tau:.2f}" for tau in THRESHOLDS}
_TAUS = np.array(THRESHOLDS, dtype=np.float64)


@dataclass
class Matching:
    pairs: list[tuple[int, int, float]]          # (prediction index, gt id, IoU)
    unmatched_predictions: list[int]
    unmatched_ground_truths: list[int]


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int = 0
    fp: int = 0
    fn: int = 0


def _iou_column(task: str, pred_groups: Sequence[Sequence[PredictionInstance]],
                gt_groups: Sequence[Sequence[GroundTruthInstance]],
                images: Sequence[ImageRecord]) -> np.ndarray:
    """The IoU of every same-image (prediction, ground truth) pair as one
    float64 array, image by image and, within an image, row-major: rows
    are its predictions in the given order, columns its ground truths.
    Box IoU comes from one columnar pass over all images.  Mask IoU
    reads two rasterizer streams, one of the run's predictions and one
    of its ground truths, image by image, so only one image's masks are
    alive beside the rasterizer's bounded chunk."""
    if task == DETECTION:
        rows, cols = group_pairs(list(map(len, pred_groups)), list(map(len, gt_groups)))
        pred_boxes = box_columns(p.bbox for ps in pred_groups for p in ps)
        gt_boxes = box_columns(g.bbox for gs in gt_groups for g in gs)
        return box_iou_columns(pred_boxes[rows], gt_boxes[cols])
    preds = rasterize_runs_many((p.segmentation, image.width, image.height)
                                for ps, image in zip(pred_groups, images) for p in ps)
    gts = rasterize_runs_many((g.segmentation, image.width, image.height)
                              for gs, image in zip(gt_groups, images) for g in gs)
    ious = []
    for ps, gs in zip(pred_groups, gt_groups):
        gm = list(islice(gts, len(gs)))
        ious.extend(mask_iou(p, g) for p in islice(preds, len(ps)) for g in gm)
    return np.array(ious, dtype=np.float64)


def _greedy_pairs(rows: Sequence[Sequence[float]], tau: float
                  ) -> list[tuple[int, int, float]]:
    """Greedy matching on prediction-by-gt IoU rows.

    Row order is the visiting order; within a row the first maximal
    column wins (columns are in ascending gt-id order, so ties resolve
    to the lowest id)."""
    taken: set[int] = set()
    pairs = []
    for i, row in enumerate(rows):
        best_j, best_iou = -1, 0.0
        for j, iou in enumerate(row):
            if iou >= tau and iou > best_iou and j not in taken:
                best_j, best_iou = j, iou
        if best_j >= 0:
            taken.add(best_j)
            pairs.append((i, best_j, best_iou))
    return pairs


def _greedy_tp_by_threshold(rows: Sequence[Sequence[float]],
                            taus: Sequence[float]) -> list[int]:
    """Greedy true-positive count at each threshold of ascending ``taus``.

    The greedy result depends only on which entries reach tau, and those
    sets shrink as tau rises; two thresholds with equally many passing
    entries therefore pass the same set and share one greedy run.  With
    fewer than two passing entries nothing can compete; :func:`_tp_table`
    widens that rule to whole images and calls this only for the rest."""
    values = sorted(v for row in rows for v in row)
    tps = []
    last_passing, tp = -1, 0
    for tau in taus:
        passing = len(values) - bisect_left(values, tau)
        if passing != last_passing:
            tp = passing if passing < 2 else len(_greedy_pairs(rows, tau))
            last_passing = passing
        tps.append(tp)
    return tps


def _tp_table(ious: np.ndarray, pred_counts: Sequence[int],
              gt_counts: Sequence[int]) -> np.ndarray:
    """The greedy true-positive count of each image (a row) at each of
    ``THRESHOLDS`` (a column), from the run's :func:`_iou_column`; image
    k has ``pred_counts[k]`` predictions and ``gt_counts[k]`` ground
    truths.

    One numpy pass counts, for each image and threshold, the IoUs that
    reach it (``v >= tau``, so a NaN reaches none).  An image is
    clash-free when no prediction and no ground truth holds two IoUs that
    reach ``THRESHOLDS[0]``.  There no claim competes at any threshold,
    and as every threshold is positive each reaching IoU is a match, so
    the count is the greedy count.  Only the other images are matched by
    :func:`_greedy_tp_by_threshold`."""
    n_pair = np.array(pred_counts, dtype=np.int64) * np.array(gt_counts, dtype=np.int64)
    pair_image = np.repeat(np.arange(len(n_pair)), n_pair)
    reached = ious[:, None] >= _TAUS
    # hist[k, m]: the pairs of image k that reach exactly m thresholds,
    # which are the lowest m as the thresholds ascend.
    levels = len(THRESHOLDS) + 1
    hist = np.bincount(pair_image * levels + np.count_nonzero(reached, axis=1),
                       minlength=len(n_pair) * levels).reshape(-1, levels)
    # tp[k, t] sums hist[k, t + 1:], the pairs that reach THRESHOLDS[t].
    tp = np.cumsum(hist[:, :0:-1], axis=1)[:, ::-1]

    rows, cols = group_pairs(pred_counts, gt_counts)
    first = reached[:, 0]
    rows, cols = rows[first], cols[first]
    clash = (np.bincount(rows)[rows] > 1) | (np.bincount(cols)[cols] > 1)
    ends = np.cumsum(n_pair)
    for k in set(pair_image[first][clash].tolist()):
        image_rows = ious[ends[k] - n_pair[k]:ends[k]].reshape(pred_counts[k], gt_counts[k])
        tp[k] = _greedy_tp_by_threshold(image_rows.tolist(), THRESHOLDS)
    return tp


def match_image(preds: Sequence[PredictionInstance],
                gts: Sequence[GroundTruthInstance],
                tau: float, task: str, image: ImageRecord) -> Matching:
    """Match one image's predictions to its ground truths at threshold tau.

    ``preds`` must already be in descending-score order.
    """
    gts = sorted(gts, key=lambda g: g.id)
    rows = _iou_column(task, [preds], [gts], [image]).reshape(len(preds), len(gts)).tolist()
    raw = _greedy_pairs(rows, tau)
    matched_preds = {i for i, _, _ in raw}
    matched_gts = {j for _, j, _ in raw}
    return Matching(
        pairs=[(i, gts[j].id, iou) for i, j, iou in raw],
        unmatched_predictions=[i for i in range(len(preds)) if i not in matched_preds],
        unmatched_ground_truths=[g.id for j, g in enumerate(gts) if j not in matched_gts],
    )


def f_beta(counts: ConfusionCounts, beta: float) -> float:
    """F-beta with the total-score convention: any zero denominator
    (in particular tp == 0) yields 0."""
    if counts.tp == 0:
        return 0.0
    precision = counts.tp / (counts.tp + counts.fp)
    recall = counts.tp / (counts.tp + counts.fn)
    b2 = beta * beta
    return (1 + b2) * precision * recall / (b2 * precision + recall)


def final_score(f1_headline: float, f1_range: float,
                f2_headline: float, f2_range: float) -> float:
    """Composite score: arithmetic mean of the four headline metrics
    (all on the 0-100 scale)."""
    return (f1_headline + f1_range + f2_headline + f2_range) / 4.0


def _markdown_cell(text: str) -> str:
    """``text`` as one markdown table cell: a bare ``|`` would end it."""
    return text.replace("|", "\\|")


def _score_cells(report: MetricsReport) -> list[str]:
    """The four headline metrics and the final score, as table cells."""
    return [f"{value:.2f}" for value in (*report.headline(), report.final)]


def _markdown_row(cells: Sequence) -> str:
    return "| " + " | ".join(map(str, cells)) + " |"


@dataclass
class ThresholdMetrics:
    threshold: float
    counts: ConfusionCounts
    scores: dict[float, float]  # beta -> F


# One image's [tp, fp, fn] at each threshold as to_json writes them in
# the per_image block, with slots for the counts in the keys' string order,
# which is the order of THRESHOLDS.
_IMAGE_ENTRY = to_json({key: ["%s"] * 3 for key in _THRESHOLD_KEYS.values()}
                       ).replace('"%s"', "%s").replace("\n", "\n    ")


@dataclass(eq=False)
class MetricsReport:
    task: str
    per_threshold: list[ThresholdMetrics]
    f1_headline: float     # 0-100 scale
    f1_range: float
    f2_headline: float
    f2_range: float
    final: float
    image_ids: Sequence[int]
    pred_counts: Sequence[int]     # image k's predictions
    gt_counts: Sequence[int]       # image k's ground truths
    tp_table: np.ndarray           # (images x 12): image k's TP count at each of THRESHOLDS

    def headline(self) -> tuple[float, float, float, float]:
        return (self.f1_headline, self.f1_range, self.f2_headline, self.f2_range)

    def _counts(self) -> np.ndarray:
        """(images x 12 x 3) int64: each image's (tp, fp, fn) at each of
        ``THRESHOLDS``."""
        tp = np.asarray(self.tp_table, dtype=np.int64)
        n_p, n_g = np.array([self.pred_counts, self.gt_counts], dtype=np.int64)[:, :, None]
        return np.stack((tp, n_p - tp, n_g - tp), axis=2)

    @property
    def per_image(self) -> dict[int, dict[float, tuple[int, int, int]]]:
        """image id -> threshold -> (tp, fp, fn) as exact ints, built from
        the table on each read."""
        return {image_id: dict(zip(THRESHOLDS, map(tuple, rows)))
                for image_id, rows in zip(self.image_ids, self._counts().tolist())}

    def to_dict(self) -> dict:
        return self._as_dict({
            str(image_id): {_THRESHOLD_KEYS[tau]: list(counts) for tau, counts in taus.items()}
            for image_id, taus in self.per_image.items()})

    def to_json(self) -> str:
        """``to_json(self.to_dict())``, byte for byte, with each image's
        entry written from the table: each distinct row of counts is
        formatted once from ``_IMAGE_ENTRY``."""
        counts = self._counts().reshape(-1, 3 * len(THRESHOLDS))
        rows = list(map(tuple, counts.tolist()))
        texts = {row: JsonText(_IMAGE_ENTRY % row) for row in set(rows)}
        return to_json(self._as_dict(dict(zip(map(str, self.image_ids),
                                              map(texts.__getitem__, rows)))))

    def _as_dict(self, per_image) -> dict:
        """The report with ``per_image`` as its per-image block."""
        return {
            "task": self.task,
            "headline_threshold": HEADLINE_THRESHOLD,
            "thresholds": list(THRESHOLDS),
            "per_threshold": [
                {
                    "threshold": tm.threshold,
                    "tp": tm.counts.tp,
                    "fp": tm.counts.fp,
                    "fn": tm.counts.fn,
                    "scores": {f"f{beta:g}": s for beta, s in sorted(tm.scores.items())},
                }
                for tm in self.per_threshold
            ],
            "headline": {
                "f1": self.f1_headline,
                "f1_range": self.f1_range,
                "f2": self.f2_headline,
                "f2_range": self.f2_range,
                "final_score": self.final,
            },
            "per_image": per_image,
        }

    def to_markdown(self, name: str = "submission") -> str:
        pct = HEADLINE_THRESHOLD * 100
        header = (f"| Name | F1[{pct:.0f}] | F1[range] | F2[{pct:.0f}] | F2[range] "
                  "| Final Score |")
        rule = "|---|---|---|---|---|---|"
        row = _markdown_row([_markdown_cell(name), *_score_cells(self)])
        return "\n".join([header, rule, row]) + "\n"


def evaluate(dataset: Dataset, preds: PredictionSet) -> MetricsReport:
    """Score a prediction set against a dataset at the challenge's
    thresholds: confusion counts and F-scores at each threshold, summed
    over the dataset and per image.

    The IoU of every same-image pair is computed once, as one flat
    column (:func:`_iou_column`), and serves every threshold.  The greedy
    match runs only on the images where two claims compete
    (:func:`_tp_table`); elsewhere the count of IoUs that reach a
    threshold is the true-positive count.  Counts are aggregated in
    dataset image order.
    """
    images = dataset.images
    pred_groups = [preds.instances_for(image.id) for image in images]
    # Dataset keeps each image's ground truths in id order, the column
    # order in which _greedy_pairs breaks ties.
    gt_groups = [dataset.instances_for(image.id) for image in images]
    pred_counts = list(map(len, pred_groups))
    gt_counts = list(map(len, gt_groups))
    table = _tp_table(_iou_column(preds.task, pred_groups, gt_groups, images),
                      pred_counts, gt_counts)
    tp_sums = table.sum(axis=0).tolist()
    n_pred = sum(pred_counts)
    n_gt = sum(gt_counts)
    per_threshold = []
    for tau, tp in zip(THRESHOLDS, tp_sums):
        counts = ConfusionCounts(tp, n_pred - tp, n_gt - tp)
        per_threshold.append(
            ThresholdMetrics(tau, counts, {b: f_beta(counts, b) for b in BETAS}))
    headline = per_threshold[THRESHOLDS.index(HEADLINE_THRESHOLD)].scores

    def range_mean(beta: float) -> float:
        return sum(tm.scores[beta] for tm in per_threshold) / len(THRESHOLDS)

    f1_h = 100.0 * headline[1.0]
    f2_h = 100.0 * headline[2.0]
    f1_r = 100.0 * range_mean(1.0)
    f2_r = 100.0 * range_mean(2.0)
    return MetricsReport(
        task=preds.task,
        per_threshold=per_threshold,
        f1_headline=f1_h,
        f1_range=f1_r,
        f2_headline=f2_h,
        f2_range=f2_r,
        final=final_score(f1_h, f1_r, f2_h, f2_r),
        image_ids=[image.id for image in images],
        pred_counts=pred_counts,
        gt_counts=gt_counts,
        tp_table=table,
    )


def leaderboard(entries: Sequence[tuple[str, MetricsReport]]
                ) -> list[tuple[str, MetricsReport]]:
    """The named reports ranked by final score, ties by F2 over the
    threshold range (recall emphasis), then by name; rank k is the pair
    at position k - 1."""
    if not entries:
        raise EmptyInputError("leaderboard needs at least one report")
    return sorted(entries, key=lambda e: (-e[1].final, -e[1].f2_range, e[0]))


def leaderboard_markdown(ranked: Sequence[tuple[str, MetricsReport]]) -> str:
    pct = HEADLINE_THRESHOLD * 100
    lines = [
        f"| Rank | Team Name | F1[{pct:.0f}] | F1[range] "
        f"| F2[{pct:.0f}] | F2[range] | Final Score |",
        "|---|---|---|---|---|---|---|",
    ]
    for rank, (name, report) in enumerate(ranked, start=1):
        lines.append(_markdown_row([rank, _markdown_cell(name), *_score_cells(report)]))
    return "\n".join(lines) + "\n"


def leaderboard_csv(ranked: Sequence[tuple[str, MetricsReport]]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["rank", "name", "f1", "f1_range", "f2", "f2_range", "final_score"])
    for rank, (name, report) in enumerate(ranked, start=1):
        writer.writerow([rank, name, *_score_cells(report)])
    return out.getvalue()
