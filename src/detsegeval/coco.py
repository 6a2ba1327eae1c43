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
from pathlib import Path
from typing import Iterable, Optional

from .errors import (
    DegeneratePayloadError,
    DuplicateImageIdError,
    MalformedJsonError,
    MissingFieldError,
    MultipleCategoriesError,
    RleUnsupportedError,
    SubmissionError,
    UnknownImageRefError,
)
from .geometry import BBox, PolygonSet, polygon_area, rasterize_runs

DETECTION = "detection"
SEGMENTATION = "segmentation"
TASKS = (DETECTION, SEGMENTATION)
# Pixel centres i + 0.5 stay exact in float64 up to this side length.
MAX_IMAGE_SIDE = 2 ** 52


@dataclass(frozen=True)
class ImageRecord:
    id: int
    width: int
    height: int
    file_name: str


@dataclass(frozen=True)
class GroundTruthInstance:
    id: int
    image_id: int
    bbox: BBox
    segmentation: PolygonSet
    category_id: int


@dataclass(frozen=True)
class PredictionInstance:
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


@dataclass
class ValidationReport:
    errors: list[ValidationIssue] = field(default_factory=list)
    warnings: list[ValidationIssue] = field(default_factory=list)
    images_seen: int = 0
    instances_seen: int = 0
    instances_dropped: int = 0

    @property
    def ok(self) -> bool:
        return not self.errors

    def error(self, code: str, message: str, location: str) -> None:
        self.errors.append(ValidationIssue(code, message, location))

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
    """Immutable ground-truth container: image registry + instances."""

    def __init__(self, images: Iterable[ImageRecord],
                 instances: Iterable[GroundTruthInstance],
                 category_id: int, category_name: str):
        self.images: tuple[ImageRecord, ...] = tuple(images)
        self.instances: tuple[GroundTruthInstance, ...] = tuple(instances)
        self.category_id = category_id
        self.category_name = category_name
        self.images_by_id: dict[int, ImageRecord] = {im.id: im for im in self.images}
        by_image: dict[int, list[GroundTruthInstance]] = {}
        for inst in self.instances:
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


def _read_json(path) -> object:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except ValueError as exc:  # bad syntax, bad UTF-8, an over-long integer literal
        raise MalformedJsonError(f"{path}: {exc}") from exc


def _require(obj: dict, key: str, location: str):
    if key not in obj:
        raise MissingFieldError(key, location)
    return obj[key]


def _number(value, cast):
    """``cast(value)``, or None unless the value is a JSON number of the
    right kind.  Numeric strings and ``true``/``false`` are not numbers,
    though ``bool`` subclasses ``int``; an ``int`` field takes an integer
    or an integral float such as ``3.0``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    if cast is int and isinstance(value, float) and not value.is_integer():
        return None
    try:
        return cast(value)
    except OverflowError:
        return None


def _not_a_number(key: str, value, cast) -> str:
    kind = "an integer" if cast is int and isinstance(value, float) else "a number"
    return f"{key} {value!r} is not {kind}"


def _finite_floats(values) -> Optional[list[float]]:
    """``values`` as floats, or None unless each is a JSON number with a
    finite float value (an integer too large for a float is not)."""
    floats = [_number(v, float) for v in values]
    if all(f is not None and math.isfinite(f) for f in floats):
        return floats
    return None


def _require_int(obj: dict, key: str, location: str) -> int:
    value = _number(_require(obj, key, location), int)
    if value is None:
        raise MalformedJsonError(f"{location}: {_not_a_number(key, obj[key], int)}")
    return value


def _require_object(obj, location: str) -> dict:
    if not isinstance(obj, dict):
        raise MalformedJsonError(f"{location}: entry must be a JSON object")
    return obj


def _check_ring_list(raw_seg, location: str) -> PolygonSet:
    """Validate a COCO polygon segmentation payload (list of flat rings).

    Raises a :class:`MalformedJsonError` whose ``code`` names the fault:
    ``RleUnsupported``, ``DegeneratePayload`` for a list that holds no
    usable polygon, ``MalformedJson`` for a value of the wrong JSON type."""
    if isinstance(raw_seg, dict):
        raise RleUnsupportedError(
            f"{location}: RLE-encoded segmentation is not supported, "
            "only polygon encoding is accepted"
        )
    if not isinstance(raw_seg, list) or not raw_seg:
        error = DegeneratePayloadError if isinstance(raw_seg, list) else MalformedJsonError
        raise error(f"{location}: segmentation must be a non-empty list of rings")
    rings = []
    for k, ring in enumerate(raw_seg):
        if not isinstance(ring, list) or len(ring) < 6 or len(ring) % 2 != 0:
            error = DegeneratePayloadError if isinstance(ring, list) else MalformedJsonError
            raise error(f"{location}: ring {k} must hold at least 3 (x, y) vertices")
        floats = _finite_floats(ring)
        if floats is None:
            raise MalformedJsonError(
                f"{location}: ring {k} has a coordinate that is not a finite number")
        rings.append(tuple(floats))
    poly = PolygonSet(tuple(rings))
    if all(polygon_area(r) == 0 for r in poly.rings):
        raise DegeneratePayloadError(f"{location}: every ring has zero area")
    return poly


def _outside_image(box: BBox, image: ImageRecord) -> Optional[str]:
    """Why a box lying fully outside its image cannot be kept, or None
    when any part of it is inside (an overhang is allowed)."""
    if (min(box.x2, image.width) <= max(box.x, 0.0)
            or min(box.y2, image.height) <= max(box.y, 0.0)):
        return f"box {box.as_list()} lies fully outside the {image.width}x{image.height} image"
    return None


def load_ground_truth(path) -> Dataset:
    """Parse and validate a COCO ground-truth file (always strict)."""
    data = _read_json(path)
    if not isinstance(data, dict):
        raise MalformedJsonError(f"{path}: ground truth must be a JSON object")
    raw_images = _require(data, "images", str(path))
    raw_annotations = _require(data, "annotations", str(path))
    raw_categories = _require(data, "categories", str(path))
    if not (isinstance(raw_images, list) and isinstance(raw_annotations, list)):
        raise MalformedJsonError(f"{path}: images and annotations must be JSON arrays")

    if not isinstance(raw_categories, list) or len(raw_categories) != 1:
        raise MultipleCategoriesError(
            f"{path}: expected exactly one category, found "
            f"{len(raw_categories) if isinstance(raw_categories, list) else 'non-list'}"
        )
    category = _require_object(raw_categories[0], "categories[0]")
    category_id = _require_int(category, "id", "categories[0]")
    category_name = str(category.get("name", ""))

    images: dict[int, ImageRecord] = {}
    for k, raw in enumerate(raw_images):
        loc = f"images[{k}]"
        raw = _require_object(raw, loc)
        image_id = _require_int(raw, "id", loc)
        width = _require_int(raw, "width", loc)
        height = _require_int(raw, "height", loc)
        file_name = str(_require(raw, "file_name", loc))
        if image_id in images:
            raise DuplicateImageIdError(f"{loc}: duplicate image id {image_id}")
        if not (1 <= width <= MAX_IMAGE_SIDE and 1 <= height <= MAX_IMAGE_SIDE):
            raise MalformedJsonError(
                f"{loc}: image dimensions must be between 1 and {MAX_IMAGE_SIDE}, "
                f"got {width}x{height}")
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
            raise MalformedJsonError(f"{loc}: duplicate annotation id {ann_id}")
        ann_ids.add(ann_id)
        image_id = _require_int(raw, "image_id", loc)
        image = images.get(image_id)
        if image is None:
            raise UnknownImageRefError(f"{loc}: references unknown image id {image_id}")
        cat = _require_int(raw, "category_id", loc)
        if cat != category_id:
            raise MalformedJsonError(
                f"{loc}: category_id {cat} does not match the dataset category {category_id}"
            )
        raw_box = _require(raw, "bbox", loc)
        if not (isinstance(raw_box, list) and len(raw_box) == 4
                and all(isinstance(v, (int, float)) for v in raw_box)):
            raise MalformedJsonError(f"{loc}: bbox must be [x, y, w, h]")
        coords = _finite_floats(raw_box)
        if coords is None or coords[2] <= 0 or coords[3] <= 0:
            raise MalformedJsonError(f"{loc}: degenerate bbox {raw_box}")
        box = BBox(*coords)
        poly = _check_ring_list(_require(raw, "segmentation", loc), loc)
        outside = _outside_image(box, image)
        if outside:
            raise MalformedJsonError(f"{loc}: {outside}")
        instances.append(GroundTruthInstance(ann_id, image_id, box, poly, cat))

    return Dataset(images.values(), instances, category_id, category_name)


def _parse_prediction_items(data, dataset: Dataset, task: str,
                            report: ValidationReport) -> list[PredictionInstance]:
    """Build instances from raw result objects, collecting issues.

    Only instances free of errors are returned; the rest are counted in
    ``instances_dropped`` (the lenient-mode behavior)."""
    retained: list[PredictionInstance] = []
    image_ids_seen: set[int] = set()
    for k, raw in enumerate(data):
        loc = f"predictions[{k}]"
        report.instances_seen += 1
        if not isinstance(raw, dict):
            report.error("MalformedJson", "result entry is not an object", loc)
            report.instances_dropped += 1
            continue

        ok = True
        raw_image_id = raw.get("image_id")
        image_id = _number(raw_image_id, int)
        if image_id is None:
            if raw_image_id is None:
                report.error("MissingField", "missing image_id", loc)
            else:
                report.error("MalformedJson", _not_a_number("image_id", raw_image_id, int), loc)
            report.instances_dropped += 1
            continue
        image_ids_seen.add(image_id)
        image = dataset.images_by_id.get(image_id)
        if image is None:
            report.error("UnknownImageRef", f"unknown image id {image_id}", loc)
            ok = False

        raw_score = raw.get("score")
        score = _number(raw_score, float)
        if score is None:
            if raw_score is None:
                report.error("MissingField", "missing score", loc)
            else:
                report.error("MalformedJson", _not_a_number("score", raw_score, float), loc)
            ok = False
            score = 0.0
        elif not math.isfinite(score) or score < 0.0 or score > 1.0:
            report.error("ScoreOutOfRange", f"score {score} outside [0, 1]", loc)
            ok = False

        category_id = _number(raw.get("category_id", dataset.category_id), int)
        if category_id is None:
            report.error("MalformedJson",
                         _not_a_number("category_id", raw["category_id"], int), loc)
            ok = False
        elif category_id != dataset.category_id:
            report.error("CategoryMismatch",
                         f"category_id {category_id} does not match the dataset "
                         f"category {dataset.category_id}", loc)
            ok = False

        box: Optional[BBox] = None
        poly: Optional[PolygonSet] = None
        if task == DETECTION:
            raw_box = raw.get("bbox")
            coords = (_finite_floats(raw_box)
                      if isinstance(raw_box, list) and len(raw_box) == 4 else None)
            if raw_box is None:
                kind = "segmentation" if "segmentation" in raw else "nothing"
                report.error("WrongPayloadKind",
                             f"detection task but entry carries {kind}", loc)
                ok = False
            elif coords is None:
                report.error("MalformedJson", f"bbox must be 4 finite numbers, got {raw_box}", loc)
                ok = False
            else:
                box = BBox(*coords)
                if box.w <= 0 or box.h <= 0:
                    report.error("DegeneratePayload", f"box {raw_box} has no area", loc)
                    ok = False
                elif image is not None:
                    outside = _outside_image(box, image)
                    if outside:
                        report.error("OutsideImage", outside, loc)
                        ok = False
                    elif (box.x < 0 or box.y < 0 or box.x2 > image.width
                          or box.y2 > image.height):
                        report.warn("BoxOutsideImage", f"box {box.as_list()} extends past "
                                    f"the {image.width}x{image.height} image bounds", loc)
        else:
            raw_seg = raw.get("segmentation")
            if raw_seg is None:
                kind = "bbox" if "bbox" in raw else "nothing"
                report.error("WrongPayloadKind",
                             f"segmentation task but entry carries {kind}", loc)
                ok = False
            else:
                try:
                    poly = _check_ring_list(raw_seg, loc)
                except MalformedJsonError as exc:
                    report.error(exc.code, str(exc), loc)
                    ok = False
                if poly is not None and image is not None:
                    if rasterize_runs(poly, image.width, image.height).rows.size == 0:
                        report.error("DegeneratePayload",
                                     "polygon rasterizes to zero pixels at image resolution",
                                     loc)
                        ok = False

        if not ok:
            report.instances_dropped += 1
            continue
        retained.append(PredictionInstance(image_id, score, category_id, k,
                                           bbox=box, segmentation=poly))
    report.images_seen = len(image_ids_seen)
    return retained


def read_predictions(path) -> list:
    """Parse a prediction file, which must hold a JSON array."""
    data = _read_json(path)
    if not isinstance(data, list):
        raise MalformedJsonError(f"{path}: predictions must be a JSON array")
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
    retained = _parse_prediction_items(data, dataset, task, report)
    return retained, report


def predictions_to_list(preds: PredictionSet) -> list[dict]:
    out = []
    for inst in preds.instances:
        entry: dict = {
            "image_id": inst.image_id,
            "category_id": inst.category_id,
            "score": inst.score,
        }
        if preds.task == DETECTION:
            entry["bbox"] = inst.bbox.as_list()
        else:
            entry["segmentation"] = inst.segmentation.as_lists()
        out.append(entry)
    return out


def write_json(obj, path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")
