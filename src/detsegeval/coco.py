"""Loading, validation and serialization of COCO-style ground truth and
prediction files.

This is the trust boundary of the package: everything downstream assumes
the invariants enforced here (referential integrity, score ranges,
non-degenerate payloads, a single category).  Ground-truth loading is
always strict and raises on the first problem; prediction loading can run
in lenient mode, where offending instances are dropped and reported
instead of aborting the run.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import accumulate, chain, repeat, starmap
from operator import attrgetter
from pathlib import Path
from typing import Iterable, NamedTuple, Optional

import numpy as np

from .errors import (
    CategoryMismatchError,
    CocoFormatError,
    DegeneratePayloadError,
    DuplicateImageIdError,
    MalformedJsonError,
    MissingFieldError,
    MultipleCategoriesError,
    OutsideImageError,
    RleUnsupportedError,
    ScoreOutOfRangeError,
    SubmissionError,
    UnknownImageRefError,
    WrongPayloadKindError,
)
from .geometry import (
    MAX_COORDINATE,
    MAX_IMAGE_SIDE,
    BBox,
    PolygonSet,
    polygon_area,
    rasterize_runs,
    rasterize_runs_many,
)

DETECTION = "detection"
SEGMENTATION = "segmentation"
TASKS = (DETECTION, SEGMENTATION)


class ImageRecord(NamedTuple):
    id: int
    width: int
    height: int
    file_name: str


class GroundTruthInstance(NamedTuple):
    id: int
    image_id: int
    bbox: BBox
    segmentation: PolygonSet
    category_id: int


class PredictionInstance(NamedTuple):
    """One scored prediction; exactly one of bbox/segmentation is set.

    ``source_index`` records the instance's position in the input file and
    is the final tie-breaker of the documented sort order.
    """

    image_id: int
    score: float
    category_id: int
    source_index: int
    bbox: Optional[BBox] = None
    segmentation: Optional[PolygonSet] = None


@dataclass
class ValidationIssue:
    code: str
    message: str
    location: str

    def to_dict(self) -> dict:
        return {"code": self.code, "message": self.message, "location": self.location}

    def __str__(self) -> str:
        return f"{self.location}: {self.message}"


@dataclass
class ValidationReport:
    errors: list[ValidationIssue] = field(default_factory=list)
    warnings: list[ValidationIssue] = field(default_factory=list)
    images_seen: int = 0
    instances_seen: int = 0
    instances_dropped: int = 0

    def check(self, checker, *args):
        """``checker(*args)``, or None once the coded error it raises is
        recorded."""
        try:
            return checker(*args)
        except CocoFormatError as exc:
            self.errors.append(ValidationIssue(exc.code, exc.message, exc.location))
            return None

    def warn(self, code: str, message: str, location: str) -> None:
        self.warnings.append(ValidationIssue(code, message, location))

    def to_dict(self) -> dict:
        return {
            "errors": [e.to_dict() for e in self.errors],
            "warnings": [w.to_dict() for w in self.warnings],
            "counts": {
                "images_seen": self.images_seen,
                "instances_seen": self.instances_seen,
                "instances_dropped": self.instances_dropped,
            },
        }


class Dataset:
    """Immutable ground-truth container: image registry + instances.
    Each image's instances are kept in ascending id order, the order in
    which matching breaks IoU ties."""

    def __init__(self, images: Iterable[ImageRecord],
                 instances: Iterable[GroundTruthInstance],
                 category_id: int, category_name: str):
        self.images: tuple[ImageRecord, ...] = tuple(images)
        self.instances: tuple[GroundTruthInstance, ...] = tuple(instances)
        self.category_id = category_id
        self.category_name = category_name
        self.images_by_id: dict[int, ImageRecord] = {im.id: im for im in self.images}
        by_image: dict[int, list[GroundTruthInstance]] = {}
        for inst in sorted(self.instances, key=attrgetter("id")):
            by_image.setdefault(inst.image_id, []).append(inst)
        self._by_image = by_image

    def instances_for(self, image_id: int) -> list[GroundTruthInstance]:
        return list(self._by_image.get(image_id, []))


class PredictionSet:
    """Scored instances for one task, in the documented order:
    (image_id ascending, score descending, input index ascending)."""

    def __init__(self, task: str, instances: Iterable[PredictionInstance]):
        if task not in TASKS:
            raise ValueError(f"task must be one of {TASKS}, got {task!r}")
        self.task = task
        self.instances: tuple[PredictionInstance, ...] = tuple(
            sorted(instances, key=lambda p: (p.image_id, -p.score, p.source_index))
        )
        by_image: dict[int, list[PredictionInstance]] = {}
        for inst in self.instances:
            by_image.setdefault(inst.image_id, []).append(inst)
        self._by_image = by_image

    def __len__(self) -> int:
        return len(self.instances)

    def instances_for(self, image_id: int) -> list[PredictionInstance]:
        return list(self._by_image.get(image_id, []))

    def to_json(self) -> str:
        """``to_json`` of the set's entry list, as a prediction file."""
        return to_json([_entry(inst, self.task) for inst in self.instances])


def _read_json(path) -> object:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    # bad syntax, bad UTF-8, an over-long integer literal, nesting too deep to parse
    except (ValueError, RecursionError) as exc:
        raise MalformedJsonError(str(exc), str(path)) from exc


# One checker per rule, shared by the ground-truth and prediction loaders:
# each returns the checked value or raises one coded error at ``location``.
# A JSON null is a present value of the wrong type; only an absent key is
# a missing field.

def _require(obj: dict, key: str, location: str):
    if key not in obj:
        raise MissingFieldError(key, location)
    return obj[key]


def _require_object(obj, location: str) -> dict:
    if not isinstance(obj, dict):
        raise MalformedJsonError("entry is not a JSON object", location)
    return obj


def _number(value, cast):
    """``cast(value)``, or None unless the value is a JSON number of the
    right kind; an ``int`` field takes an integer or an integral float
    such as ``3.0``.  Numeric strings and ``true``/``false`` are not
    numbers, though ``bool`` subclasses ``int``."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return None
    if cast is int and isinstance(value, float) and not value.is_integer():
        return None
    try:
        return cast(value)
    except OverflowError:
        return None


def _json(value) -> str:
    """``value`` quoted as JSON for a message (``repr`` if JSON cannot)."""
    try:
        return json.dumps(value)
    except (TypeError, ValueError):
        return repr(value)


def _checked_number(key: str, value, location: str, cast=int):
    number = _number(value, cast)
    if number is None:
        kind = "an integer" if cast is int and isinstance(value, float) else "a number"
        raise MalformedJsonError(f"{key} {_json(value)} is not {kind}", location)
    return number


def _require_int(obj: dict, key: str, location: str) -> int:
    return _checked_number(key, _require(obj, key, location), location)


def _finite_floats(values) -> Optional[list[float]]:
    """``values`` as floats, or None unless each is a JSON number with a
    finite float value (an integer too large for a float is not)."""
    floats = [_number(v, float) for v in values]
    if all(f is not None and math.isfinite(f) for f in floats):
        return floats
    return None


def _beyond_bound(floats: list[float]) -> bool:
    return any(abs(f) > MAX_COORDINATE for f in floats)


_BOUND_TEXT = f"beyond the coordinate bound {MAX_COORDINATE:.0f}"


def _image_ref(images: dict[int, ImageRecord], image_id: int, location: str) -> ImageRecord:
    image = images.get(image_id)
    if image is None:
        raise UnknownImageRefError(f"unknown image id {image_id}", location)
    return image


def _check_category(value, category_id: int, location: str) -> int:
    cat = _checked_number("category_id", value, location)
    if cat != category_id:
        raise CategoryMismatchError(
            f"category_id {cat} does not match the dataset category {category_id}", location)
    return cat


def _check_box(raw_box, location: str) -> BBox:
    coords = (_finite_floats(raw_box)
              if isinstance(raw_box, list) and len(raw_box) == 4 else None)
    if coords is None:
        raise MalformedJsonError(f"bbox must be 4 finite numbers, got {_json(raw_box)}",
                                 location)
    if _beyond_bound(coords):
        raise MalformedJsonError(f"bbox {_json(raw_box)} has a value {_BOUND_TEXT}", location)
    if coords[2] <= 0 or coords[3] <= 0:
        raise DegeneratePayloadError(f"box {_json(raw_box)} has no area", location)
    return BBox(*coords)


def _check_inside(box: BBox, image: ImageRecord, location: str) -> bool:
    """Whether the box overhangs its image; a box lying fully outside it
    raises, as no part of it can be matched."""
    if (min(box.x2, image.width) <= max(box.x, 0.0)
            or min(box.y2, image.height) <= max(box.y, 0.0)):
        raise OutsideImageError(f"box {box.as_list()} lies fully outside the "
                                f"{image.width}x{image.height} image", location)
    return box.x < 0 or box.y < 0 or box.x2 > image.width or box.y2 > image.height


def _check_ring_list(raw_seg, location: str) -> PolygonSet:
    """Validate a COCO polygon segmentation payload (list of flat rings).

    Raises a :class:`MalformedJsonError` whose ``code`` names the fault:
    ``RleUnsupported``, ``DegeneratePayload`` for a list that holds no
    usable polygon, ``MalformedJson`` for a value of the wrong JSON type."""
    if isinstance(raw_seg, dict):
        raise RleUnsupportedError("RLE-encoded segmentation is not supported, "
                                  "only polygon encoding is accepted", location)
    if not isinstance(raw_seg, list) or not raw_seg:
        error = DegeneratePayloadError if isinstance(raw_seg, list) else MalformedJsonError
        raise error("segmentation must be a non-empty list of rings", location)
    rings = []
    for k, ring in enumerate(raw_seg):
        if not isinstance(ring, list) or len(ring) < 6 or len(ring) % 2 != 0:
            error = DegeneratePayloadError if isinstance(ring, list) else MalformedJsonError
            raise error(f"ring {k} must hold at least 3 (x, y) vertices", location)
        floats = _finite_floats(ring)
        if floats is None:
            raise MalformedJsonError(f"ring {k} has a coordinate that is not a finite number",
                                     location)
        if _beyond_bound(floats):
            raise MalformedJsonError(f"ring {k} has a coordinate {_BOUND_TEXT}", location)
        rings.append(tuple(floats))
    poly = PolygonSet(tuple(rings))
    if all(polygon_area(r) == 0 for r in poly.rings):
        raise DegeneratePayloadError("every ring has zero area", location)
    return poly


def load_ground_truth(path) -> Dataset:
    """Parse and validate a COCO ground-truth file (always strict)."""
    data = _read_json(path)
    if not isinstance(data, dict):
        raise MalformedJsonError("ground truth must be a JSON object", str(path))
    raw_images = _require(data, "images", str(path))
    raw_annotations = _require(data, "annotations", str(path))
    raw_categories = _require(data, "categories", str(path))
    if not all(isinstance(v, list) for v in (raw_images, raw_annotations, raw_categories)):
        raise MalformedJsonError("images, annotations and categories must be JSON arrays",
                                 str(path))

    if len(raw_categories) != 1:
        raise MultipleCategoriesError(
            f"expected exactly one category, found {len(raw_categories)}", str(path))
    category = _require_object(raw_categories[0], "categories[0]")
    category_id = _require_int(category, "id", "categories[0]")
    category_name = str(category.get("name", ""))
    columns = _ground_truth_columns(raw_images, raw_annotations, category_id)
    if columns is None:
        columns = _ground_truth_items(raw_images, raw_annotations, category_id)
    return Dataset(*columns, category_id, category_name)


def _ground_truth_items(raw_images: list, raw_annotations: list, category_id: int
                        ) -> tuple[list[ImageRecord], list[GroundTruthInstance]]:
    """Images and instances, checked one item at a time; the first fault
    propagates."""
    images: dict[int, ImageRecord] = {}
    for k, raw in enumerate(raw_images):
        loc = f"images[{k}]"
        raw = _require_object(raw, loc)
        image_id = _require_int(raw, "id", loc)
        width = _require_int(raw, "width", loc)
        height = _require_int(raw, "height", loc)
        file_name = _require(raw, "file_name", loc)
        if not isinstance(file_name, str):
            raise MalformedJsonError(f"file_name {_json(file_name)} is not a string", loc)
        if image_id in images:
            raise DuplicateImageIdError(f"duplicate image id {image_id}", loc)
        if not (1 <= width <= MAX_IMAGE_SIDE and 1 <= height <= MAX_IMAGE_SIDE):
            raise MalformedJsonError(f"image dimensions must be between 1 and {MAX_IMAGE_SIDE}, "
                                     f"got {width}x{height}", loc)
        images[image_id] = ImageRecord(image_id, width, height, file_name)

    instances: list[GroundTruthInstance] = []
    ann_ids: set[int] = set()
    for k, raw in enumerate(raw_annotations):
        raw = _require_object(raw, f"annotations[{k}]")
        loc = f"annotations[{k}] (id={raw.get('id', k)})"
        # An annotation without an id takes its index, which must not
        # collide with a real id either: ids break matching ties.
        ann_id = _require_int(raw, "id", loc) if "id" in raw else k
        if ann_id in ann_ids:
            raise MalformedJsonError(f"duplicate annotation id {ann_id}", loc)
        ann_ids.add(ann_id)
        image = _image_ref(images, _require_int(raw, "image_id", loc), loc)
        cat = _check_category(_require(raw, "category_id", loc), category_id, loc)
        box = _check_box(_require(raw, "bbox", loc), loc)
        poly = _check_ring_list(_require(raw, "segmentation", loc), loc)
        _check_inside(box, image, loc)
        instances.append(GroundTruthInstance(ann_id, image.id, box, poly, cat))
    return list(images.values()), instances


# The columnar passes below take a whole file at once and return exactly
# what the per-item code returns, or None when any check fails; the
# per-item code then runs on the same parsed object and names the fault.

_INT, _STR, _LIST, _DICT = (frozenset((kind,)) for kind in (int, str, list, dict))
_NUMBER = frozenset((int, float))


def _typed(column, types: frozenset) -> bool:
    """Whether every value's exact type is one of ``types``, so that a
    ``bool`` is never taken for an ``int``."""
    return set(map(type, column)) <= types


def _column(items: list[dict], key: str, default=None) -> list:
    """Each object's ``key``, or ``default`` where it has none; a missing
    required field reads as None, which no type check admits."""
    return list(map(dict.get, items, repeat(key), repeat(default)))


def _bounded_floats(values: list) -> Optional[list[float]]:
    """``values`` as floats, or None unless each is a JSON number within
    ``MAX_COORDINATE`` in magnitude."""
    if not _typed(values, _NUMBER):
        return None
    try:
        floats = list(map(float, values))
    except OverflowError:
        return None
    if not (np.abs(np.array(floats)) <= MAX_COORDINATE).all():  # NaN fails too
        return None
    return floats


def _referenced_images(image_ids: list, cats: list, images_by_id: dict[int, ImageRecord],
                       category_id: int) -> Optional[list[ImageRecord]]:
    """The image of each instance, or None unless each image id and
    category is an exact int, each category is ``category_id`` and each
    image id is known."""
    if not (_typed(image_ids + cats, _INT) and set(cats) <= {category_id}):
        return None
    try:
        return list(map(images_by_id.__getitem__, image_ids))
    except KeyError:
        return None


def _boxes_in_images(raw_boxes: list, images: list[ImageRecord]
                     ) -> Optional[tuple[list[BBox], list[int]]]:
    """The boxes and the indices of those that overhang their image, or
    None unless each box is a list of 4 bounded numbers with ``w > 0`` and
    ``h > 0`` that reaches into its image (:func:`_check_box` and
    :func:`_check_inside`, row by row)."""
    if not (_typed(raw_boxes, _LIST) and set(map(len, raw_boxes)) <= {4}):
        return None
    floats = _bounded_floats(list(chain.from_iterable(raw_boxes)))
    if floats is None:
        return None
    x, y, w, h = np.array(floats).reshape(-1, 4).T
    x2, y2 = x + w, y + h
    width = np.array(list(map(attrgetter("width"), images)))
    height = np.array(list(map(attrgetter("height"), images)))
    if not (((w > 0) & (h > 0)).all()
            and ((np.minimum(x2, width) > np.maximum(x, 0.0))
                 & (np.minimum(y2, height) > np.maximum(y, 0.0))).all()):
        return None
    overhangs = np.flatnonzero((x < 0) | (y < 0) | (x2 > width) | (y2 > height)).tolist()
    return list(starmap(BBox, zip(*[iter(floats)] * 4))), overhangs


def _has_zero_area_ring(rings: list[tuple[float, ...]], coords: list[float]) -> bool:
    """Whether :func:`polygon_area` is 0 for any ring.  The shoelace terms
    here are ``polygon_area``'s bit for bit; only the order of their sum
    differs, and either order errs by less than ``n * 2**-52`` times the
    sum of |terms|.  So a ring whose sum here exceeds ``n * 2**-40`` times
    that is not zero, and ``polygon_area`` decides the rest."""
    if not rings:
        return False
    n = np.array(list(map(len, rings))) // 2
    first = np.cumsum(n) - n
    xy = np.array(coords).reshape(-1, 2)
    d = xy - np.repeat(xy[first], n, axis=0)
    nxt = np.arange(1, len(d) + 1)
    nxt[first + n - 1] = first
    terms = d[:, 0] * d[nxt, 1] - d[nxt, 0] * d[:, 1]
    total = np.add.reduceat(terms, first)
    scale = np.add.reduceat(np.abs(terms), first)
    near_zero = np.flatnonzero(np.abs(total) <= scale * (n * 2.0 ** -40))
    return any(polygon_area(rings[r]) == 0 for r in near_zero)


def _ground_truth_columns(raw_images: list, raw_annotations: list, category_id: int
                          ) -> Optional[tuple[list[ImageRecord], list[GroundTruthInstance]]]:
    """:func:`_ground_truth_items`' result from whole-column checks, or
    None when any check fails."""
    if not (_typed(raw_images, _DICT) and _typed(raw_annotations, _DICT)):
        return None
    ids, widths, heights, names = (_column(raw_images, key)
                                   for key in ("id", "width", "height", "file_name"))
    sides = widths + heights
    if not (_typed(ids + sides, _INT) and _typed(names, _STR)
            and len(set(ids)) == len(ids)
            and (not sides or 1 <= min(sides) and max(sides) <= MAX_IMAGE_SIDE)):
        return None
    images = list(map(ImageRecord, ids, widths, heights, names))
    ann_ids, image_ids, cats = (_column(raw_annotations, key)
                                for key in ("id", "image_id", "category_id"))
    refs = _referenced_images(image_ids, cats, dict(zip(ids, images)), category_id)
    if refs is None or not (_typed(ann_ids, _INT) and len(set(ann_ids)) == len(ann_ids)):
        return None
    # Ground truth may overhang its image, so the overhang indices go unused.
    boxes = _boxes_in_images(_column(raw_annotations, "bbox"), refs)
    if boxes is None:
        return None
    polys = _polygon_columns(_column(raw_annotations, "segmentation"))
    if polys is None:
        return None
    return images, list(map(GroundTruthInstance, ann_ids, image_ids, boxes[0], polys, cats))


def _polygon_columns(raw_segs) -> Optional[list[PolygonSet]]:
    """The polygon of each segmentation, or None unless each is a
    non-empty list of rings of at least 3 bounded ``(x, y)`` vertices
    and no ring has zero area."""
    if not (_typed(raw_segs, _LIST) and all(raw_segs)):
        return None
    raw_rings = list(chain.from_iterable(raw_segs))
    if not _typed(raw_rings, _LIST):
        return None
    sizes = list(map(len, raw_rings))
    if not all(size >= 6 and size % 2 == 0 for size in sizes):
        return None
    coords = _bounded_floats(list(chain.from_iterable(raw_rings)))
    if coords is None:
        return None
    ends = list(accumulate(sizes))
    rings = [tuple(coords[end - size:end]) for size, end in zip(sizes, ends)]
    # The per-item code keeps a zero-area ring beside a ring with area;
    # such rare files take that path.
    if _has_zero_area_ring(rings, coords):
        return None
    ring_ends = list(accumulate(map(len, raw_segs)))
    return [PolygonSet(tuple(rings[end - len(seg):end]))
            for seg, end in zip(raw_segs, ring_ends)]


def _check_score(raw: dict, location: str) -> float:
    score = _checked_number("score", _require(raw, "score", location), location, float)
    if not (math.isfinite(score) and 0.0 <= score <= 1.0):
        raise ScoreOutOfRangeError(f"score {score} outside [0, 1]", location)
    return score


def _payload(raw: dict, key: str, check, location: str):
    """``check(raw[key])``; an entry without ``key`` carries the other
    task's payload or none."""
    if key not in raw:
        task, other = (DETECTION, "segmentation") if key == "bbox" else (SEGMENTATION, "bbox")
        raise WrongPayloadKindError(
            f"{task} task but entry carries {other if other in raw else 'nothing'}", location)
    return check(raw[key], location)


def payload_task(items: list, fallback: str) -> str:
    """Task of the first result's payload; ``fallback`` when the list is
    empty or its first entry carries neither payload."""
    if items and isinstance(items[0], dict):
        if "segmentation" in items[0]:
            return SEGMENTATION
        if "bbox" in items[0]:
            return DETECTION
    return fallback


def _warn_overhang(report: ValidationReport, box: BBox, image: ImageRecord,
                   location: str) -> None:
    report.warn("BoxOutsideImage", f"box {box.as_list()} extends past "
                f"the {image.width}x{image.height} image bounds", location)


def _check_pixels(poly: PolygonSet, image: ImageRecord, location: str) -> None:
    if rasterize_runs(poly, image.width, image.height).rows.size == 0:
        raise DegeneratePayloadError("polygon rasterizes to zero pixels at image resolution",
                                     location)


def _parse_prediction_items(data, dataset: Dataset, task: str,
                            report: ValidationReport) -> list[PredictionInstance]:
    """Build instances from raw result objects, recording each fault.

    A missing or non-integer ``image_id`` ends an item's checks; the other
    checks all run.  Only instances free of errors are returned; the rest
    are counted in ``instances_dropped`` (the lenient-mode behavior)."""
    retained: list[PredictionInstance] = []
    image_ids_seen: set[int] = set()
    for k, raw in enumerate(data):
        loc = f"predictions[{k}]"
        report.instances_seen += 1
        faults = len(report.errors)
        image_id = report.check(lambda: _require_int(_require_object(raw, loc), "image_id", loc))
        if image_id is None:
            report.instances_dropped += 1
            continue
        image_ids_seen.add(image_id)
        image = report.check(_image_ref, dataset.images_by_id, image_id, loc)
        score = report.check(_check_score, raw, loc)
        category_id = report.check(_check_category, raw.get("category_id", dataset.category_id),
                                   dataset.category_id, loc)
        box = poly = None
        if task == DETECTION:
            box = report.check(_payload, raw, "bbox", _check_box, loc)
            if box is not None and image is not None and report.check(
                    _check_inside, box, image, loc):
                _warn_overhang(report, box, image, loc)
        else:
            poly = report.check(_payload, raw, "segmentation", _check_ring_list, loc)
            if poly is not None and image is not None:
                report.check(_check_pixels, poly, image, loc)
        if len(report.errors) > faults:
            report.instances_dropped += 1
        else:
            retained.append(PredictionInstance(image_id, score, category_id, k,
                                               bbox=box, segmentation=poly))
    report.images_seen = len(image_ids_seen)
    return retained


def _prediction_columns(data: list, dataset: Dataset, task: str, report: ValidationReport
                        ) -> Optional[list[PredictionInstance]]:
    """:func:`_parse_prediction_items`' result for a file that holds no
    error, from whole-column checks; None, with ``report`` untouched, when
    any check fails."""
    if not _typed(data, _DICT):
        return None
    image_ids = _column(data, "image_id")
    images = _referenced_images(image_ids, _column(data, "category_id", dataset.category_id),
                                dataset.images_by_id, dataset.category_id)
    scores = _column(data, "score")
    if images is None or not _typed(scores, _NUMBER):
        return None
    try:
        scores = list(map(float, scores))
    except OverflowError:
        return None
    score = np.array(scores)
    if not ((score >= 0.0) & (score <= 1.0)).all():
        return None
    bboxes = polys = repeat(None)
    overhangs: list[int] = []
    if task == DETECTION:
        boxes = _boxes_in_images(_column(data, "bbox"), images)
        if boxes is None:
            return None
        bboxes, overhangs = boxes
    else:
        polys = _polygons_with_pixels(_column(data, "segmentation"), images)
        if polys is None:
            return None
    for k in overhangs:
        _warn_overhang(report, bboxes[k], images[k], f"predictions[{k}]")
    report.instances_seen = len(data)
    report.images_seen = len(set(image_ids))
    return list(map(PredictionInstance, image_ids, scores, repeat(dataset.category_id),
                    range(len(data)), bboxes, polys))


def _polygons_with_pixels(raw_segs: list, images: list[ImageRecord]
                          ) -> Optional[list[PolygonSet]]:
    """The polygons, or None unless each is valid and sets a pixel of its
    image; one rasterizer call covers them all."""
    polys = _polygon_columns(raw_segs)
    if polys is None:
        return None
    masks = rasterize_runs_many(zip(polys, map(attrgetter("width"), images),
                                    map(attrgetter("height"), images)))
    if any(mask.rows.size == 0 for mask in masks):
        return None
    return polys


def read_predictions(path) -> list:
    """Parse a prediction file, which must hold a JSON array."""
    data = _read_json(path)
    if not isinstance(data, list):
        raise MalformedJsonError("predictions must be a JSON array", str(path))
    return data


def load_predictions(source, dataset: Dataset, task: str,
                     lenient: bool = False) -> PredictionSet:
    """Load a prediction file, or the list :func:`read_predictions` parsed
    from one, for the given task.

    Strict mode (default) raises :class:`SubmissionError` if any instance
    violates an invariant; lenient mode drops the offenders and keeps the
    rest.
    """
    preds, report = parse_predictions(source, dataset, task)
    if report.errors and not lenient:
        raise SubmissionError(report)
    return PredictionSet(task, preds)


def parse_predictions(source, dataset: Dataset, task: str
                      ) -> tuple[list[PredictionInstance], ValidationReport]:
    """One-pass parse + validation of a prediction file or of the list
    :func:`read_predictions` parsed from one; returns surviving instances
    and the report."""
    if task not in TASKS:
        raise ValueError(f"task must be one of {TASKS}, got {task!r}")
    data = source if isinstance(source, list) else read_predictions(source)
    report = ValidationReport()
    retained = _prediction_columns(data, dataset, task, report)
    if retained is None:
        retained = _parse_prediction_items(data, dataset, task, report)
    return retained, report


class JsonText(str):
    """JSON text that ``to_json`` writes as it is, already indented for
    its depth in the document."""


_quote = json.encoder.encode_basestring_ascii
_NON_FINITE = frozenset(("nan", "inf", "-inf"))


def _numbers(values) -> Optional[list[str]]:
    """The JSON text of each value if all are exact ints or finite floats,
    whose ``repr`` is ``int.__repr__`` or ``float.__repr__``; else None."""
    if not _typed(values, _NUMBER):
        return None
    texts = list(map(repr, values))
    return texts if _NON_FINITE.isdisjoint(texts) else None


def _encode(obj, indent: str) -> str:
    kind = type(obj)
    if kind is str:
        return _quote(obj)
    if kind is int:
        return int.__repr__(obj)
    if kind is float and math.isfinite(obj):
        return float.__repr__(obj)
    if kind is JsonText:
        return obj
    inner = indent + "  "
    if (kind is list or kind is tuple) and obj:
        items = _numbers(obj) or [_encode(v, inner) for v in obj]
        return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}]"
    if kind is dict and obj and _typed(obj, _STR):
        items = [_quote(k) + ": " + _encode(v, inner) for k, v in sorted(obj.items())]
        return f"{{\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}}}"
    # JSON text holds no raw newline but the layout's own.
    return json.dumps(obj, indent=2, sort_keys=True).replace("\n", "\n" + indent)


def to_json(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, byte for byte.  Exact
    ``str``, ``int``, finite ``float``, ``list``, ``tuple`` and str-keyed
    ``dict`` values are written here, numeric lists with one join, and a
    ``JsonText`` as it is; the rest goes to ``json.dumps``."""
    return _encode(obj, "")


# A detection entry as to_json writes it in the entry list, with a slot
# in place of each value.
_DETECTION_ENTRY = to_json({"bbox": ["%s"] * 4, "category_id": "%s", "image_id": "%s",
                            "score": "%s"}).replace('"%s"', "%s").replace("\n", "\n  ")


def _entry(inst: PredictionInstance, task: str):
    """One instance as its entry of a prediction file: a detection whose
    values are all exact ints or finite floats from a template."""
    box = inst.bbox if task == DETECTION else None
    texts = box and _numbers((box.x, box.y, box.w, box.h,
                              inst.category_id, inst.image_id, inst.score))
    if texts:
        return JsonText(_DETECTION_ENTRY % tuple(texts))
    payload = ({"bbox": box.as_list()} if box
               else {"segmentation": inst.segmentation.as_lists()})
    return {"image_id": inst.image_id, "category_id": inst.category_id,
            "score": inst.score, **payload}


def write_json(obj, path) -> None:
    """Write ``obj.to_json()`` for a ``MetricsReport`` or a ``PredictionSet``,
    else ``to_json(obj)``, and a newline to ``path``.  The text is built
    before the file is opened, so an object that cannot be encoded leaves
    an existing file as it was."""
    from .metrics import MetricsReport  # metrics imports this module

    text = obj.to_json() if isinstance(obj, (MetricsReport, PredictionSet)) else to_json(obj)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
