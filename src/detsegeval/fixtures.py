"""Deterministic synthetic fixtures: image metadata, grid-aligned and
rotated polygon ground truths, and perturbed predictions with a known
overlap structure.

All coordinates are snapped to a quarter-pixel grid so that every
geometric quantity downstream (areas, intersections, IoU ratios) is
exactly representable in binary floating point; independent scorers then
agree bit-for-bit instead of within an epsilon.  ``perturbation=0``
produces predictions identical to the ground truth with score 1.0.
"""

from __future__ import annotations

import math
import random


def _snap(v: float) -> float:
    return round(v * 4) / 4


def _rect_ring(x0: float, y0: float, w: float, h: float) -> list[float]:
    return [x0, y0, x0 + w, y0, x0 + w, y0 + h, x0, y0 + h]


def _rotated_rect_ring(cx: float, cy: float, a: float, b: float,
                       angle: float) -> list[float]:
    cos_t, sin_t = math.cos(angle), math.sin(angle)
    ring: list[float] = []
    for ux, uy in ((-a, -b), (a, -b), (a, b), (-a, b)):
        ring.append(_snap(cx + ux * cos_t - uy * sin_t))
        ring.append(_snap(cy + ux * sin_t + uy * cos_t))
    return ring


def _hull(ring: list[float]) -> list[float]:
    xs, ys = ring[0::2], ring[1::2]
    return [min(xs), min(ys), max(xs) - min(xs), max(ys) - min(ys)]


def _clamp_shift(values: list[float], side: int) -> float:
    """The grid shift that brings ``values`` within ``[0.5, side - 0.5]``,
    or, when they span more than that, brings their mean within it."""
    shift = 0.0
    if min(values) < 0.5:
        shift = _snap(0.5 - min(values))
    elif max(values) > side - 0.5:
        shift = _snap(side - 0.5 - max(values))
    mean = sum(values) / len(values) + shift
    return shift + _snap(min(max(mean, 0.5), side - 0.5) - mean)


def _clamp_ring(ring: list[float], width: int, height: int) -> list[float]:
    """Translate a ring so it lies inside the image with a small margin.
    A ring more than twice the image's size may not fit that way; its
    centre then stays over the image, so it still covers a pixel."""
    xs, ys = ring[0::2], ring[1::2]
    dx, dy = _clamp_shift(xs, width), _clamp_shift(ys, height)
    out = []
    for x, y in zip(xs, ys):
        out.extend((_snap(x + dx), _snap(y + dy)))
    return out


def _perturb_ring(ring: list[float], amount: float, rng: random.Random,
                  width: int, height: int) -> list[float]:
    xs, ys = ring[0::2], ring[1::2]
    cx, cy = sum(xs) / len(xs), sum(ys) / len(ys)
    span = max(max(xs) - min(xs), max(ys) - min(ys))
    dx = rng.uniform(-amount, amount) * span
    dy = rng.uniform(-amount, amount) * span
    # Sides of at least 2 px keep a pixel centre inside the snapped ring.
    points = list(zip(xs, ys))
    shortest = min(map(math.dist, points, points[1:] + points[:1]))
    scale = max(1.0 + rng.uniform(-amount, amount), 2.0 / shortest)
    out = []
    for x, y in zip(xs, ys):
        out.extend((_snap(cx + (x - cx) * scale + dx),
                    _snap(cy + (y - cy) * scale + dy)))
    return _clamp_ring(out, width, height)


def generate_fixture(seed: int, n_images: int = 8, max_instances: int = 4,
                     perturbation: float = 0.15, min_size: int = 64,
                     max_size: int = 128) -> dict:
    """Build one synthetic fixture.

    Returns a dict with keys ``gt`` (COCO ground-truth object), ``det``
    and ``seg`` (prediction result lists for the two tasks).  Output is a
    pure function of the arguments.  Its arguments need ``n_images >= 0``,
    ``max_instances >= 0``, a finite ``perturbation >= 0`` and
    ``8 <= min_size <= max_size``; within that domain both prediction
    lists pass strict validation against the ground truth.
    """
    for name, count in (("n_images", n_images), ("max_instances", max_instances)):
        if count < 0:
            raise ValueError(f"{name} must be >= 0, got {count}")
    if not (math.isfinite(perturbation) and perturbation >= 0):
        raise ValueError(f"perturbation must be a finite number >= 0, got {perturbation}")
    # Smaller images cannot hold the 8 px instances drawn below.
    if not 8 <= min_size <= max_size:
        raise ValueError(f"sizes must satisfy 8 <= min_size <= max_size, "
                         f"got {min_size} and {max_size}")
    rng = random.Random(seed)
    images = []
    annotations = []
    det_preds: list[dict] = []
    seg_preds: list[dict] = []

    def predict(image_id: int, score: float, ring: list[float]) -> None:
        seg_preds.append({"image_id": image_id, "category_id": 1, "score": score,
                          "segmentation": [ring]})
        det_preds.append({"image_id": image_id, "category_id": 1, "score": score,
                          "bbox": _hull(ring)})

    ann_id = 1
    for image_id in range(1, n_images + 1):
        width = rng.randrange(min_size, max_size + 1, 8)
        height = rng.randrange(min_size, max_size + 1, 8)
        images.append({
            "id": image_id,
            "width": width,
            "height": height,
            "file_name": f"img_{image_id:06d}.jpg",
        })
        for _ in range(rng.randint(0, max_instances)):
            span_w = _snap(rng.uniform(8, max(10, width // 3)))
            span_h = _snap(rng.uniform(8, max(10, height // 3)))
            if rng.random() < 0.5:
                x0 = _snap(rng.uniform(1, width - span_w - 1))
                y0 = _snap(rng.uniform(1, height - span_h - 1))
                ring = _rect_ring(x0, y0, span_w, span_h)
            else:
                cx = _snap(rng.uniform(span_w / 2 + 1, width - span_w / 2 - 1))
                cy = _snap(rng.uniform(span_h / 2 + 1, height - span_h / 2 - 1))
                ring = _rotated_rect_ring(cx, cy, span_w / 2, span_h / 2,
                                          rng.uniform(0, math.pi / 2))
            ring = _clamp_ring(ring, width, height)
            annotations.append({
                "id": ann_id,
                "image_id": image_id,
                "category_id": 1,
                "bbox": _hull(ring),
                "segmentation": [ring],
            })
            ann_id += 1

            if perturbation == 0:
                score = 1.0
                pred_ring = list(ring)
            else:
                if rng.random() < 0.15:
                    continue  # missed instance -> false negative
                score = round(rng.uniform(0.30, 0.99), 4)
                pred_ring = _perturb_ring(ring, perturbation, rng, width, height)
            predict(image_id, score, pred_ring)

        if perturbation > 0:
            for _ in range(rng.choice((0, 0, 1, 2))):
                fw = _snap(rng.uniform(6, 18))
                fh = _snap(rng.uniform(6, 18))
                fx = _snap(rng.uniform(1, width - fw - 1))
                fy = _snap(rng.uniform(1, height - fh - 1))
                score = round(rng.uniform(0.05, 0.6), 4)
                # On the quarter grid the hull of this ring is [fx, fy, fw, fh].
                predict(image_id, score, _rect_ring(fx, fy, fw, fh))

    gt = {
        "images": images,
        "annotations": annotations,
        "categories": [{"id": 1, "name": "rip_current"}],
    }
    return {"gt": gt, "det": det_preds, "seg": seg_preds}
