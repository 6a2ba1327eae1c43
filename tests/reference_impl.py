"""Independent straight-line reference scorer used as a test oracle.

This module deliberately imports nothing from the package under test and
favors naive nested loops over clever code.  It implements the same
documented contracts (pixel-center even-odd rasterization with crossings
counted strictly left of the center, greedy score-descending matching
with lowest-id tie-break, micro-aggregated F-beta) by direct per-pixel /
per-pair computation.  Its last section keeps the library's former
scalar box fusion (IoU/IoA merging, cross-model merging and numpy WBF)
as oracles for the run-level, columnar code.
"""

import math

import numpy as np

THRESHOLDS = [round(0.40 + 0.05 * i, 2) for i in range(12)]
HEADLINE = 0.50


def box_iou(a, b):
    """a, b: [x, y, w, h]."""
    ax, ay, aw, ah = a
    bx, by, bw, bh = b
    iw = min(ax + aw, bx + bw) - max(ax, bx)
    ih = min(ay + ah, by + bh) - max(ay, by)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    union = aw * ah + bw * bh - inter
    if union <= 0:
        return 0.0
    return inter / union


def point_in_ring(px, py, ring):
    n = len(ring) // 2
    crossings = 0
    for k in range(n):
        x1, y1 = ring[2 * k], ring[2 * k + 1]
        x2, y2 = ring[(2 * k + 2) % (2 * n)], ring[(2 * k + 3) % (2 * n)]
        if y1 == y2:
            continue
        lo, hi = (y1, y2) if y1 < y2 else (y2, y1)
        if lo <= py < hi:
            x_cross = x1 + (py - y1) * (x2 - x1) / (y2 - y1)
            if x_cross < px:
                crossings += 1
    return crossings % 2 == 1


def polygon_pixels(rings, width, height):
    """Set of (row, col) pixels whose centers fall inside any ring."""
    pixels = set()
    for ring in rings:
        xs = ring[0::2]
        ys = ring[1::2]
        col_lo = max(0, int(math.floor(min(xs) - 1)))
        col_hi = min(width - 1, int(math.ceil(max(xs) + 1)))
        row_lo = max(0, int(math.floor(min(ys) - 1)))
        row_hi = min(height - 1, int(math.ceil(max(ys) + 1)))
        for row in range(row_lo, row_hi + 1):
            for col in range(col_lo, col_hi + 1):
                if (row, col) in pixels:
                    continue
                if point_in_ring(col + 0.5, row + 0.5, ring):
                    pixels.add((row, col))
    return pixels


def pixel_iou(a, b):
    union = len(a | b)
    if union == 0:
        return 0.0
    return len(a & b) / union


def greedy_match_size_counts(iou_rows, n_gt, tau):
    """iou_rows: per-prediction list of IoUs against gts in id order."""
    taken = [False] * n_gt
    tp = 0
    for row in iou_rows:
        best_j = -1
        best = 0.0
        for j in range(n_gt):
            if taken[j]:
                continue
            if row[j] >= tau and row[j] > best:
                best = row[j]
                best_j = j
        if best_j >= 0:
            taken[best_j] = True
            tp += 1
    fp = len(iou_rows) - tp
    fn = n_gt - tp
    return tp, fp, fn


def fbeta(tp, fp, fn, beta):
    if tp == 0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    b2 = beta * beta
    return (1 + b2) * precision * recall / (b2 * precision + recall)


def evaluate(gt, pred_list, task):
    """Full reference scoring of a COCO ground-truth dict + result list.

    Returns {"per_threshold": {tau: (tp, fp, fn, f1, f2)},
             "headline": (f1_50, f1_range, f2_50, f2_range),
             "final": float}.
    """
    anns_by_image = {}
    for ann in gt["annotations"]:
        anns_by_image.setdefault(ann["image_id"], []).append(ann)
    preds_by_image = {}
    for idx, pred in enumerate(pred_list):
        preds_by_image.setdefault(pred["image_id"], []).append((idx, pred))

    taus = sorted(set(THRESHOLDS) | {HEADLINE})
    totals = {tau: [0, 0, 0] for tau in taus}
    for image in gt["images"]:
        gts = sorted(anns_by_image.get(image["id"], []), key=lambda a: a["id"])
        preds = sorted(preds_by_image.get(image["id"], []),
                       key=lambda item: (-item[1]["score"], item[0]))
        if task == "detection":
            iou_rows = [[box_iou(p["bbox"], g["bbox"]) for g in gts]
                        for _, p in preds]
        else:
            gt_px = [polygon_pixels(g["segmentation"], image["width"], image["height"])
                     for g in gts]
            pred_px = [polygon_pixels(p["segmentation"], image["width"], image["height"])
                       for _, p in preds]
            iou_rows = [[pixel_iou(pp, gp) for gp in gt_px] for pp in pred_px]
        for tau in taus:
            tp, fp, fn = greedy_match_size_counts(iou_rows, len(gts), tau)
            totals[tau][0] += tp
            totals[tau][1] += fp
            totals[tau][2] += fn

    per_threshold = {}
    for tau in taus:
        tp, fp, fn = totals[tau]
        per_threshold[tau] = (tp, fp, fn, fbeta(tp, fp, fn, 1.0), fbeta(tp, fp, fn, 2.0))

    f1_50 = 100.0 * per_threshold[HEADLINE][3]
    f2_50 = 100.0 * per_threshold[HEADLINE][4]
    f1_range = 100.0 * (sum(per_threshold[t][3] for t in THRESHOLDS) / len(THRESHOLDS))
    f2_range = 100.0 * (sum(per_threshold[t][4] for t in THRESHOLDS) / len(THRESHOLDS))
    final = (f1_50 + f1_range + f2_50 + f2_range) / 4.0
    return {
        "per_threshold": per_threshold,
        "headline": (f1_50, f1_range, f2_50, f2_range),
        "final": final,
    }


def max_matching_size(iou_rows, tau):
    """Maximum bipartite matching size by exhaustive search with
    memoization over (prediction index, used-gt bitmask)."""
    n_gt = len(iou_rows[0]) if iou_rows else 0
    memo = {}

    def best(i, used):
        if i == len(iou_rows):
            return 0
        key = (i, used)
        if key in memo:
            return memo[key]
        result = best(i + 1, used)  # leave prediction i unmatched
        for j in range(n_gt):
            if not used & (1 << j) and iou_rows[i][j] >= tau:
                result = max(result, 1 + best(i + 1, used | (1 << j)))
        memo[key] = result
        return result

    return best(0, 0)


def trace_outer_ring(comp, x0, y0):
    """Outer boundary of the component holding the first set pixel of the
    2-D array ``comp`` (top-left pixel at ``(x0, y0)``), walked one unit
    edge at a time along pixel corners with the foreground on the right;
    a vertex at every turn, as a flat float tuple."""
    h, w = comp.shape
    r0, c0 = next((r, c) for r in range(h) for c in range(w) if comp[r, c])

    def fg(r, c):
        return 0 <= r < h and 0 <= c < w and bool(comp[r, c])

    start = (c0, r0)
    x, y = start
    dx, dy = 1, 0  # heading right along the top edge of the start pixel
    verts = [start]
    while True:
        x += dx
        y += dy
        if (x, y) == start:
            break
        if (dx, dy) == (1, 0):
            left, right = fg(y - 1, x), fg(y, x)
        elif (dx, dy) == (0, 1):
            left, right = fg(y, x), fg(y, x - 1)
        elif (dx, dy) == (-1, 0):
            left, right = fg(y, x - 1), fg(y - 1, x - 1)
        else:
            left, right = fg(y - 1, x - 1), fg(y - 1, x)
        if left:
            ndx, ndy = dy, -dx
        elif right:
            ndx, ndy = dx, dy
        else:
            ndx, ndy = -dy, dx
        if (ndx, ndy) != (dx, dy):
            verts.append((x, y))
        dx, dy = ndx, ndy
    flat = []
    for vx, vy in verts:
        flat.extend((float(vx + x0), float(vy + y0)))
    return tuple(flat)


def point_segment_distance(px, py, ax, ay, bx, by):
    dx, dy = bx - ax, by - ay
    seg_len2 = dx * dx + dy * dy
    if seg_len2 == 0:
        return math.hypot(px - ax, py - ay)
    t = ((px - ax) * dx + (py - ay) * dy) / seg_len2
    t = min(1.0, max(0.0, t))
    return math.hypot(px - (ax + t * dx), py - (ay + t * dy))


def rdp_chain(pts, eps):
    """Iterative Ramer-Douglas-Peucker on an open chain of (x, y) tuples
    (keeps endpoints), one distance call per point and segment."""
    n = len(pts)
    keep = [False] * n
    keep[0] = keep[-1] = True
    stack = [(0, n - 1)]
    while stack:
        lo, hi = stack.pop()
        if hi - lo < 2:
            continue
        ax, ay = pts[lo]
        bx, by = pts[hi]
        dmax, imax = -1.0, lo
        for i in range(lo + 1, hi):
            d = point_segment_distance(pts[i][0], pts[i][1], ax, ay, bx, by)
            if d > dmax:
                dmax, imax = d, i
        if dmax > eps:
            keep[imax] = True
            stack.append((lo, imax))
            stack.append((imax, hi))
    return [p for p, k in zip(pts, keep) if k]


def simplify_polygon(ring, epsilon_ratio):
    """Closed-ring Douglas-Peucker with tolerance ``epsilon_ratio`` times
    the perimeter: split at vertex 0 and the first vertex farthest from
    it, simplify both chains with :func:`rdp_chain`, drop each chain's
    last point.  Returns None when fewer than 3 vertices survive."""
    pts = [(float(ring[i]), float(ring[i + 1])) for i in range(0, len(ring), 2)]
    if epsilon_ratio == 0:
        return tuple(float(v) for v in ring)
    perimeter = sum(math.hypot(x2 - x1, y2 - y1)
                    for (x1, y1), (x2, y2) in zip(pts, pts[1:] + pts[:1]))
    eps = epsilon_ratio * perimeter
    x0, y0 = pts[0]
    far = max(range(1, len(pts)), key=lambda i: (pts[i][0] - x0) ** 2 + (pts[i][1] - y0) ** 2)
    merged = rdp_chain(pts[: far + 1], eps)[:-1] + rdp_chain(pts[far:] + [pts[0]], eps)[:-1]
    if len(merged) < 3:
        return None
    return tuple(v for p in merged for v in p)


# --- box fusion oracles --------------------------------------------------------
#
# The scalar per-image box fusion the library ran before it took whole
# runs and plain floats, kept as it was.  Boxes are ``(x, y, w, h)``
# tuples and scored boxes ``(box, score)`` pairs.  Every arithmetic step
# is the library's, in its order, so results must agree bit for bit.

def _capped_box_iou(a, b):
    """IoU with the library's cap at 1 (``x + w - x`` can round above w)."""
    iou = box_iou(a, b)
    return min(iou, 1.0)


def box_ioa(a, b):
    """Intersection over the area of ``b``."""
    ax, ay, aw, ah = a
    bx, by, bw, bh = b
    iw = min(ax + aw, bx + bw) - max(ax, bx)
    ih = min(ay + ah, by + bh) - max(ay, by)
    if iw <= 0 or ih <= 0:
        return 0.0
    if bw * bh <= 0:
        return 0.0
    return (iw * ih) / (bw * bh)


def _box_sort_key(box, score):
    return (-score,) + tuple(box)


def merge_boxes_iou_ioa(scored_boxes, iou_thr, ioa_thr):
    """Walking down by score (ties by input index), drop a box that a kept
    box overlaps at IoU >= iou_thr or contains at IoA >= ioa_thr."""
    order = sorted(range(len(scored_boxes)), key=lambda i: (-scored_boxes[i][1], i))
    kept = []
    for i in order:
        box = scored_boxes[i][0]
        absorbed = any(
            _capped_box_iou(scored_boxes[j][0], box) >= iou_thr
            or box_ioa(scored_boxes[j][0], box) >= ioa_thr
            for j in kept
        )
        if not absorbed:
            kept.append(i)
    return [scored_boxes[i] for i in kept]


def cross_model_merge(dets_a, dets_b, iou_thr, keep_conf):
    """Greedy one-to-one match by IoU (ties to the lowest indices); matched
    pairs become their mean box and mean score, unmatched boxes stay at
    or above keep_conf."""
    candidates = []
    for i, (ba, _) in enumerate(dets_a):
        for j, (bb, _) in enumerate(dets_b):
            iou = _capped_box_iou(ba, bb)
            if iou >= iou_thr:
                candidates.append((iou, i, j))
    candidates.sort(key=lambda c: (-c[0], c[1], c[2]))
    used_a, used_b = set(), set()
    merged = []
    for _, i, j in candidates:
        if i in used_a or j in used_b:
            continue
        used_a.add(i)
        used_b.add(j)
        (ax, ay, aw, ah), sa = dets_a[i]
        (bx, by, bw, bh), sb = dets_b[j]
        merged.append((((ax + bx) / 2, (ay + by) / 2, (aw + bw) / 2, (ah + bh) / 2),
                       (sa + sb) / 2))
    for i, (box, score) in enumerate(dets_a):
        if i not in used_a and score >= keep_conf:
            merged.append((box, score))
    for j, (box, score) in enumerate(dets_b):
        if j not in used_b and score >= keep_conf:
            merged.append((box, score))
    merged.sort(key=lambda e: _box_sort_key(*e))
    return merged


def weighted_box_fusion(model_outputs, iou_threshold):
    """Weighted box fusion with numpy accumulators.  One change from the
    numpy code the library ran: a cluster whose scores sum to 0 keeps its
    first box, where that code divided by 0 and wrote NaN coordinates."""
    entries = sorted((pair for boxes in model_outputs for pair in boxes),
                     key=lambda e: _box_sort_key(*e))
    clusters = []
    for box, score in entries:
        target = None
        for cluster in clusters:
            if _capped_box_iou(box, cluster["fused"]) >= iou_threshold:
                target = cluster
                break
        if target is None:
            target = {"coord_num": np.zeros(4), "score_sum": 0.0, "members": 0,
                      "fused": box}
            clusters.append(target)
        target["coord_num"] += score * np.array(box)
        target["score_sum"] += score
        target["members"] += 1
        if target["score_sum"] != 0:
            coords = target["coord_num"] / target["score_sum"]
            target["fused"] = tuple(float(v) for v in coords)
    fused = [(c["fused"], float(c["score_sum"] / c["members"])) for c in clusters]
    fused.sort(key=lambda e: _box_sort_key(*e))
    return fused
