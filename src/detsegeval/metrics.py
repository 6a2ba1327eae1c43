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
from itertools import chain, islice
from typing import Iterator, Sequence

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
from .geometry import box_columns, box_iou_columns, box_pair_rows, mask_iou, rasterize_runs_many

# The challenge's definition: the composite score is the mean of F1 and
# F2 at the headline threshold and over the 0.40:0.95 range.
BETAS = (1.0, 2.0)
HEADLINE_THRESHOLD = 0.50
# 0.40, 0.45, ..., 0.95; the headline threshold is one of them.
THRESHOLDS = tuple(round(0.40 + 0.05 * i, 2) for i in range(12))
# The report's key of each threshold, formatted once, not per image.
_THRESHOLD_KEYS = {tau: f"{tau:.2f}" for tau in THRESHOLDS}


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


def _mask_iou_rows(pred_groups: Sequence[Sequence[PredictionInstance]],
                   gt_groups: Sequence[Sequence[GroundTruthInstance]],
                   images: Sequence[ImageRecord]) -> Iterator[list[list[float]]]:
    preds = rasterize_runs_many((p.segmentation, image.width, image.height)
                                for ps, image in zip(pred_groups, images) for p in ps)
    gts = rasterize_runs_many((g.segmentation, image.width, image.height)
                              for gs, image in zip(gt_groups, images) for g in gs)
    for ps, gs in zip(pred_groups, gt_groups):
        gm = list(islice(gts, len(gs)))
        yield [[mask_iou(p, g) for g in gm] for p in islice(preds, len(ps))]


def _iou_rows(task: str, pred_groups: Sequence[Sequence[PredictionInstance]],
              gt_groups: Sequence[Sequence[GroundTruthInstance]],
              images: Sequence[ImageRecord]) -> Iterator[list[list[float]]]:
    """The IoU rows of each image in turn: image k's rows are its
    predictions in the given order, its columns its ground truths.  Box
    IoU comes from one columnar pass over all images.  Mask IoU reads
    two rasterizer streams, one of the run's predictions and one of its
    ground truths, image by image, so only one image's masks are alive
    beside the rasterizer's bounded chunk."""
    if task == DETECTION:
        return box_pair_rows(
            list(map(len, pred_groups)), box_columns(p.bbox for ps in pred_groups for p in ps),
            list(map(len, gt_groups)), box_columns(g.bbox for gs in gt_groups for g in gs),
            box_iou_columns)
    return _mask_iou_rows(pred_groups, gt_groups, images)


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
    entries therefore pass the same set and share one greedy run."""
    values = sorted(v for row in rows for v in row)
    tps = []
    last_passing, tp = -1, 0
    for tau in taus:
        passing = len(values) - bisect_left(values, tau)
        if passing != last_passing:
            # With fewer than two passing entries nothing can compete.
            tp = passing if passing < 2 else len(_greedy_pairs(rows, tau))
            last_passing = passing
        tps.append(tp)
    return tps


def match_image(preds: Sequence[PredictionInstance],
                gts: Sequence[GroundTruthInstance],
                tau: float, task: str, image: ImageRecord) -> Matching:
    """Match one image's predictions to its ground truths at threshold tau.

    ``preds`` must already be in descending-score order.
    """
    gts = sorted(gts, key=lambda g: g.id)
    rows = next(_iou_rows(task, [preds], [gts], [image]))
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


def _image_counts(taus: dict) -> dict:
    """One image's entry of the report's ``per_image`` block."""
    return {_THRESHOLD_KEYS.get(tau) or f"{tau:.2f}": list(counts)
            for tau, counts in sorted(taus.items())}


# One image's [tp, fp, fn] at each threshold as to_json writes them in
# the per_image block, with slots for the counts in the keys' string order.
_IMAGE_ENTRY = to_json({key: ["%s"] * 3 for key in _THRESHOLD_KEYS.values()}
                       ).replace('"%s"', "%s").replace("\n", "\n    ")
_KEY_ORDER = sorted(THRESHOLDS, key=_THRESHOLD_KEYS.get)


def _image_json(taus: dict):
    """``_image_counts(taus)``, from the template when it holds a triple of
    exact ints at each of ``THRESHOLDS`` and no other threshold."""
    if taus.keys() == _THRESHOLD_KEYS.keys():
        triples = list(map(taus.__getitem__, _KEY_ORDER))
        if set(map(len, triples)) == {3}:
            counts = tuple(chain.from_iterable(triples))
            if set(map(type, counts)) == {int}:
                return JsonText(_IMAGE_ENTRY % counts)
    return _image_counts(taus)


@dataclass
class MetricsReport:
    task: str
    per_threshold: list[ThresholdMetrics]
    f1_headline: float     # 0-100 scale
    f1_range: float
    f2_headline: float
    f2_range: float
    final: float
    per_image: dict[int, dict[float, tuple[int, int, int]]]

    def headline(self) -> tuple[float, float, float, float]:
        return (self.f1_headline, self.f1_range, self.f2_headline, self.f2_range)

    def to_dict(self) -> dict:
        return self._as_dict(_image_counts)

    def to_json(self) -> str:
        """``to_json(self.to_dict())``, byte for byte, with each image of
        the ``per_image`` block from one template where it fits."""
        return to_json(self._as_dict(_image_json))

    def _as_dict(self, image) -> dict:
        """The report with ``image(taus)`` as each image's entry."""
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
            "per_image": {
                str(image_id): image(taus) for image_id, taus in sorted(self.per_image.items())
            },
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

    Each image's IoU rows are computed once and serve every threshold.
    Counts are aggregated in dataset image order.
    """
    images = dataset.images
    pred_groups = [preds.instances_for(image.id) for image in images]
    # Dataset keeps each image's ground truths in id order, the column
    # order in which _greedy_pairs breaks ties.
    gt_groups = [dataset.instances_for(image.id) for image in images]
    image_rows = _iou_rows(preds.task, pred_groups, gt_groups, images)

    per_image: dict[int, dict[float, tuple[int, int, int]]] = {}
    tp_sums = [0] * len(THRESHOLDS)
    for image, ps, gs, rows in zip(images, pred_groups, gt_groups, image_rows):
        tps = _greedy_tp_by_threshold(rows, THRESHOLDS)
        per_image[image.id] = {tau: (tp, len(ps) - tp, len(gs) - tp)
                               for tau, tp in zip(THRESHOLDS, tps)}
        tp_sums = [a + b for a, b in zip(tp_sums, tps)]
    n_pred = sum(map(len, pred_groups))
    n_gt = sum(map(len, gt_groups))
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
        per_image=per_image,
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
