import copy
import inspect
import json
import random
import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from detsegeval import cli, coco
from detsegeval.coco import (
    MAX_COORDINATE,
    Dataset,
    PredictionInstance,
    PredictionSet,
    load_ground_truth,
    load_predictions,
    parse_predictions,
    to_json,
    write_json,
)
from detsegeval.errors import (
    CategoryMismatchError,
    CocoFormatError,
    DuplicateImageIdError,
    MalformedJsonError,
    MissingFieldError,
    MultipleCategoriesError,
    OutsideImageError,
    ScoreOutOfRangeError,
    SubmissionError,
    UnknownImageRefError,
    WrongPayloadKindError,
)
from detsegeval.fixtures import generate_fixture
from detsegeval.geometry import BBox, PolygonSet, rasterize
from detsegeval.metrics import THRESHOLDS, ConfusionCounts, MetricsReport, ThresholdMetrics
from conftest import (
    annotation,
    det_pred,
    image,
    make_gt,
    predictions_to_list,
    seg_pred,
    traced_peak_bytes,
    write_json_file,
)


def dataset_to_dict(dataset: Dataset) -> dict:
    """The inverse of ``load_ground_truth``, for round-trip tests."""
    return {
        "images": [
            {"id": im.id, "width": im.width, "height": im.height, "file_name": im.file_name}
            for im in dataset.images
        ],
        "annotations": [
            {
                "id": inst.id,
                "image_id": inst.image_id,
                "category_id": inst.category_id,
                "bbox": inst.bbox.as_list(),
                "segmentation": inst.segmentation.as_lists(),
            }
            for inst in dataset.instances
        ],
        "categories": [{"id": dataset.category_id, "name": dataset.category_name}],
    }


class TestLoadGroundTruth:
    def test_counts_preserved(self, tiny_gt_path):
        ds = load_ground_truth(tiny_gt_path)
        assert len(ds.images) == 2
        assert len(ds.instances) == 3
        assert [i.id for i in ds.instances] == [1, 2, 3]

    def test_unknown_image_ref(self, tmp_path):
        gt = make_gt([image(1)], [annotation(1, 99, [0, 0, 5, 5])])
        path = write_json_file(tmp_path / "gt.json", gt)
        with pytest.raises(UnknownImageRefError):
            load_ground_truth(path)

    def test_two_vertex_ring_names_annotation(self, tmp_path):
        gt = make_gt([image(1)], [annotation(7, 1, [0, 0, 5, 5],
                                             segmentation=[[0, 0, 5, 5]])])
        path = write_json_file(tmp_path / "gt.json", gt)
        with pytest.raises(MalformedJsonError, match="id=7"):
            load_ground_truth(path)

    def test_duplicate_image_id(self, tmp_path):
        gt = make_gt([image(1), image(1)], [])
        path = write_json_file(tmp_path / "gt.json", gt)
        with pytest.raises(DuplicateImageIdError):
            load_ground_truth(path)

    def test_multiple_categories(self, tmp_path):
        gt = make_gt([image(1)], [])
        gt["categories"].append({"id": 2, "name": "other"})
        path = write_json_file(tmp_path / "gt.json", gt)
        with pytest.raises(MultipleCategoriesError):
            load_ground_truth(path)

    @pytest.mark.parametrize("categories", [None, {}, "x"], ids=["null", "object", "string"])
    def test_non_array_categories_is_malformed(self, tmp_path, categories):
        gt = dict(make_gt([image(1)], []), categories=categories)
        path = write_json_file(tmp_path / "gt.json", gt)
        with pytest.raises(MalformedJsonError, match="categories must be JSON arrays"):
            load_ground_truth(path)

    def test_missing_field(self, tmp_path):
        path = write_json_file(tmp_path / "gt.json", {"images": [], "annotations": []})
        with pytest.raises(MissingFieldError):
            load_ground_truth(path)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "gt.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(MalformedJsonError):
            load_ground_truth(path)

    def test_rle_segmentation_rejected(self, tmp_path):
        gt = make_gt([image(1)], [annotation(1, 1, [0, 0, 5, 5],
                                             segmentation={"counts": "abc", "size": [10, 10]})])
        path = write_json_file(tmp_path / "gt.json", gt)
        with pytest.raises(MalformedJsonError, match="RLE"):
            load_ground_truth(path)

    @pytest.mark.parametrize("key", ["images", "annotations"])
    def test_non_object_entry_is_located(self, tmp_path, key):
        gt = make_gt([image(1)], [annotation(1, 1, [0, 0, 5, 5])])
        gt[key].append(7)
        path = write_json_file(tmp_path / "gt.json", gt)
        with pytest.raises(MalformedJsonError, match=rf"{key}\[1\]"):
            load_ground_truth(path)

    @pytest.mark.parametrize("key,field", [
        ("images", "id"), ("images", "width"),
        ("annotations", "image_id"), ("annotations", "category_id"),
    ])
    def test_non_numeric_field_is_located(self, tmp_path, key, field):
        gt = make_gt([image(1)], [annotation(1, 1, [0, 0, 5, 5])])
        gt[key][0][field] = "abc"
        path = write_json_file(tmp_path / "gt.json", gt)
        with pytest.raises(MalformedJsonError, match=rf"{key}\[0\].*{field}"):
            load_ground_truth(path)

    def test_boolean_width_rejected(self, tmp_path):
        gt = make_gt([image(1)], [annotation(1, 1, [0, 0, 5, 5])])
        gt["images"][0]["width"] = True
        path = write_json_file(tmp_path / "gt.json", gt)
        with pytest.raises(MalformedJsonError, match=r"images\[0\].*width true is not a number"):
            load_ground_truth(path)

    @pytest.mark.parametrize("field,value", [
        ("id", "1"), ("width", "80"), ("height", 40.5), ("height", True)])
    def test_image_numbers_must_be_json_numbers(self, tmp_path, field, value):
        gt = make_gt([image(1)], [annotation(1, 1, [0, 0, 5, 5])])
        gt["images"][0][field] = value
        path = write_json_file(tmp_path / "gt.json", gt)
        with pytest.raises(MalformedJsonError,
                           match=re.escape(f"images[0]: {field} {json.dumps(value)} is not")):
            load_ground_truth(path)

    @pytest.mark.parametrize("width", [0, 2 ** 52 + 1, 10 ** 400])
    def test_image_side_out_of_range_is_located(self, tmp_path, width):
        gt = make_gt([image(1), image(2, width=width)], [annotation(1, 1, [0, 0, 5, 5])])
        path = write_json_file(tmp_path / "gt.json", gt)
        with pytest.raises(MalformedJsonError, match=r"images\[1\]: image dimensions"):
            load_ground_truth(path)

    def test_integral_float_is_an_integer(self, tmp_path):
        gt = make_gt([dict(image(1), width=80.0)], [annotation(1, 1, [0, 0, 5, 5])])
        ds = load_ground_truth(write_json_file(tmp_path / "gt.json", gt))
        assert ds.images[0].width == 80 and type(ds.images[0].width) is int

    def test_duplicate_annotation_id(self, tmp_path):
        gt = make_gt([image(1)], [annotation(4, 1, [0, 0, 5, 5]),
                                  annotation(4, 1, [10, 10, 5, 5])])
        path = write_json_file(tmp_path / "gt.json", gt)
        with pytest.raises(MalformedJsonError, match=r"annotations\[1\].*duplicate annotation id 4"):
            load_ground_truth(path)

    def test_missing_id_index_collides_with_real_id(self, tmp_path):
        # The id-less annotation at index 1 falls back to id 1.
        gt = make_gt([image(1)], [annotation(1, 1, [0, 0, 5, 5]),
                                  annotation(None, 1, [10, 10, 5, 5])])
        del gt["annotations"][1]["id"]
        path = write_json_file(tmp_path / "gt.json", gt)
        with pytest.raises(MalformedJsonError, match=r"annotations\[1\].*duplicate annotation id 1"):
            load_ground_truth(path)

    def test_huge_integer_in_bbox_is_located(self, tmp_path):
        gt = make_gt([image(1)], [annotation(3, 1, [10 ** 400, 0, 5, 5],
                                             segmentation=[[0, 0, 5, 0, 5, 5]])])
        path = write_json_file(tmp_path / "gt.json", gt)
        with pytest.raises(MalformedJsonError,
                           match=r"annotations\[0\] \(id=3\): bbox must be 4 finite numbers"):
            load_ground_truth(path)


class TestLoadPredictions:
    def test_empty_array(self, tiny_gt_path, tmp_path):
        ds = load_ground_truth(tiny_gt_path)
        path = write_json_file(tmp_path / "p.json", [])
        preds = load_predictions(path, ds, "detection")
        assert len(preds) == 0

    @pytest.mark.parametrize("field", ["image_id", "score", "category_id"])
    def test_non_numeric_field_is_located_issue(self, tiny_gt_path, tmp_path, field):
        ds = load_ground_truth(tiny_gt_path)
        bad = dict(det_pred(1, 0.8, [10, 10, 20, 20]), **{field: "abc"})
        path = write_json_file(tmp_path / "p.json", [det_pred(1, 0.9, [10, 10, 20, 20]), bad])
        _, report = parse_predictions(path, ds, "detection")
        assert [(e.code, e.location) for e in report.errors] == \
               [("MalformedJson", "predictions[1]")]
        assert field in report.errors[0].message
        with pytest.raises(SubmissionError):
            load_predictions(path, ds, "detection")
        assert len(load_predictions(path, ds, "detection", lenient=True)) == 1
        assert (report.instances_seen, report.instances_dropped) == (2, 1)

    def test_booleans_are_not_numbers(self, tiny_gt_path):
        ds = load_ground_truth(tiny_gt_path)
        item = {"image_id": True, "score": True, "category_id": True,
                "bbox": [True, 8, 24, 24]}
        retained, report = parse_predictions([item], ds, "detection")
        assert retained == [] and report.instances_dropped == 1
        assert [(e.code, e.location) for e in report.errors] == \
               [("MalformedJson", "predictions[0]")]
        item["image_id"] = 1
        retained, report = parse_predictions([item], ds, "detection")
        assert retained == []
        assert [e.code for e in report.errors] == ["MalformedJson"] * 3

    @pytest.mark.parametrize("field,value", [
        ("image_id", "1"), ("image_id", 1.7), ("score", "0.5"), ("category_id", "1")])
    def test_numbers_must_be_json_numbers(self, tiny_gt_path, field, value):
        ds = load_ground_truth(tiny_gt_path)
        item = dict(det_pred(1, 0.5, [10, 10, 20, 20]), **{field: value})
        retained, report = parse_predictions([item], ds, "detection")
        assert retained == [] and report.instances_dropped == 1
        assert [(e.code, e.location) for e in report.errors] == \
               [("MalformedJson", "predictions[0]")]
        assert f"{field} {json.dumps(value)} is not" in report.errors[0].message

    def test_integral_float_ids_are_kept(self, tiny_gt_path):
        ds = load_ground_truth(tiny_gt_path)
        item = det_pred(1.0, 1, [10, 10, 20, 20], category_id=1.0)
        [kept], report = parse_predictions([item], ds, "detection")
        assert not report.errors
        assert (kept.image_id, kept.score, kept.category_id) == (1, 1.0, 1)

    def test_score_out_of_range(self, tiny_gt_path, tmp_path):
        ds = load_ground_truth(tiny_gt_path)
        path = write_json_file(tmp_path / "p.json",
                               [det_pred(1, 1.5, [10, 10, 5, 5])])
        with pytest.raises(SubmissionError) as exc:
            load_predictions(path, ds, "detection")
        assert any(e.code == "ScoreOutOfRange" for e in exc.value.report.errors)

    def test_nan_score_rejected(self, tiny_gt_path, tmp_path):
        ds = load_ground_truth(tiny_gt_path)
        path = tmp_path / "p.json"
        path.write_text('[{"image_id": 1, "category_id": 1, "score": NaN, '
                        '"bbox": [1, 1, 5, 5]}]', encoding="utf-8")
        with pytest.raises(SubmissionError) as exc:
            load_predictions(path, ds, "detection")
        assert any(e.code == "ScoreOutOfRange" for e in exc.value.report.errors)

    def test_score_beyond_float_range_is_not_a_number(self, tiny_gt_path):
        ds = load_ground_truth(tiny_gt_path)
        _, report = parse_predictions([det_pred(1, 10 ** 400, [1, 1, 5, 5])], ds, "detection")
        assert [(e.code, e.message) for e in report.errors] == \
               [("MalformedJson", f"score {10 ** 400} is not a number")]

    def test_score_zero_allowed(self, tiny_gt_path, tmp_path):
        ds = load_ground_truth(tiny_gt_path)
        path = write_json_file(tmp_path / "p.json",
                               [det_pred(1, 0.0, [10, 10, 5, 5])])
        assert len(load_predictions(path, ds, "detection")) == 1

    def test_sorted_by_descending_score(self, tiny_gt_path, tmp_path):
        ds = load_ground_truth(tiny_gt_path)
        path = write_json_file(tmp_path / "p.json", [
            det_pred(1, 0.3, [0, 0, 5, 5]),
            det_pred(1, 0.9, [10, 10, 5, 5]),
        ])
        preds = load_predictions(path, ds, "detection")
        assert [p.score for p in preds.instances] == [0.9, 0.3]
        assert [p.source_index for p in preds.instances] == [1, 0]

    def test_wrong_payload_kind(self, tiny_gt_path, tmp_path):
        ds = load_ground_truth(tiny_gt_path)
        path = write_json_file(tmp_path / "p.json",
                               [det_pred(1, 0.5, [0, 0, 5, 5])])
        with pytest.raises(SubmissionError) as exc:
            load_predictions(path, ds, "segmentation")
        assert any(e.code == "WrongPayloadKind" for e in exc.value.report.errors)

    def test_unknown_image(self, tiny_gt_path, tmp_path):
        ds = load_ground_truth(tiny_gt_path)
        path = write_json_file(tmp_path / "p.json",
                               [det_pred(42, 0.5, [0, 0, 5, 5])])
        with pytest.raises(SubmissionError) as exc:
            load_predictions(path, ds, "detection")
        assert any(e.code == "UnknownImageRef" for e in exc.value.report.errors)

    def test_lenient_drops_offenders(self, tiny_gt_path, tmp_path):
        ds = load_ground_truth(tiny_gt_path)
        path = write_json_file(tmp_path / "p.json", [
            det_pred(1, 0.9, [10, 10, 5, 5]),
            det_pred(1, 0.8, [10, 10, 0, 5]),   # degenerate
            det_pred(42, 0.7, [10, 10, 5, 5]),  # unknown image
        ])
        preds = load_predictions(path, ds, "detection", lenient=True)
        assert len(preds) == 1
        assert preds.instances[0].score == 0.9

    def test_rle_rejected(self, tiny_gt_path, tmp_path):
        ds = load_ground_truth(tiny_gt_path)
        path = write_json_file(tmp_path / "p.json", [
            {"image_id": 1, "category_id": 1, "score": 0.5,
             "segmentation": {"counts": "xyz", "size": [100, 100]}},
        ])
        with pytest.raises(SubmissionError) as exc:
            load_predictions(path, ds, "segmentation")
        assert any(e.code == "RleUnsupported" for e in exc.value.report.errors)

    @pytest.mark.parametrize("segmentation,code", [
        ({"counts": "xyz", "size": [100, 100]}, "RleUnsupported"),
        ([[10, 10, 20, 20]], "DegeneratePayload"),                 # 2 vertices
        ([[10, 10, 20, 10, 20, 20, 10]], "DegeneratePayload"),     # odd count
        ([[10, 10, 20, 20, 30, 30]], "DegeneratePayload"),         # zero area
        ([], "DegeneratePayload"),
        ([["10", 10, 20, 10, 20, 20]], "MalformedJson"),
        ([[float("nan"), 10, 20, 10, 20, 20]], "MalformedJson"),
        ([[10 ** 400, 10, 20, 10, 20, 20]], "MalformedJson"),
        ([[True, 10, 20, 10, 20, 20]], "MalformedJson"),
        ("10 10 20 10 20 20", "MalformedJson"),
        ([7], "MalformedJson"),
    ], ids=["rle", "two-vertices", "odd-count", "zero-area", "no-rings", "string",
            "nan", "overflow", "bool", "not-a-list", "ring-not-a-list"])
    def test_ring_failure_codes(self, tiny_gt_path, segmentation, code):
        ds = load_ground_truth(tiny_gt_path)
        retained, report = parse_predictions(
            [seg_pred(1, 0.5, segmentation)], ds, "segmentation")
        [error] = report.errors
        assert (error.code, error.location) == (code, "predictions[0]")
        assert retained == [] and report.instances_dropped == 1

    def test_string_coordinate_message(self, tiny_gt_path):
        ds = load_ground_truth(tiny_gt_path)
        _, report = parse_predictions(
            [seg_pred(1, 0.5, [["10", 10, 20, 10, 20, 20]])], ds, "segmentation")
        [error] = report.errors
        assert "ring 0 has a coordinate that is not a finite number" in error.message


class TestValidationReport:
    def test_fully_valid(self, tiny_gt_path, tmp_path):
        ds = load_ground_truth(tiny_gt_path)
        path = write_json_file(tmp_path / "p.json",
                               [det_pred(1, 0.5, [10, 10, 20, 20])])
        preds = load_predictions(path, ds, "detection")
        retained, report = parse_predictions(predictions_to_list(preds), ds, "detection")
        assert report.errors == [] and report.warnings == []
        assert report.instances_seen == 1 and report.instances_dropped == 0
        assert len(retained) == len(preds)

    def test_zero_width_box_is_error_and_dropped(self, tiny_gt_path, tmp_path):
        ds = load_ground_truth(tiny_gt_path)
        path = write_json_file(tmp_path / "p.json",
                               [det_pred(1, 0.5, [10, 10, 0, 20])])
        _, report = parse_predictions(path, ds, "detection")
        assert len(report.errors) == 1
        assert report.errors[0].code == "DegeneratePayload"
        assert report.instances_dropped == 1

    def test_half_pixel_overhang_is_warning_only(self, tiny_gt_path, tmp_path):
        ds = load_ground_truth(tiny_gt_path)  # images are 100x100
        path = write_json_file(tmp_path / "p.json",
                               [det_pred(1, 0.5, [90, 10, 10.5, 20])])
        retained, report = parse_predictions(path, ds, "detection")
        assert report.errors == []
        assert len(report.warnings) == 1
        assert report.warnings[0].code == "BoxOutsideImage"
        assert len(retained) == 1 and report.instances_dropped == 0

    def test_fully_outside_box_is_error(self, tiny_gt_path, tmp_path):
        ds = load_ground_truth(tiny_gt_path)
        path = write_json_file(tmp_path / "p.json",
                               [det_pred(1, 0.5, [200, 200, 10, 10])])
        _, report = parse_predictions(path, ds, "detection")
        assert any(e.code == "OutsideImage" for e in report.errors)

    def test_degenerate_polygon_dropped(self, tiny_gt_path, tmp_path):
        ds = load_ground_truth(tiny_gt_path)
        # sliver between pixel centers rasterizes to nothing
        path = write_json_file(tmp_path / "p.json", [
            seg_pred(1, 0.5, [[10.1, 10.1, 10.2, 10.1, 10.2, 10.2]]),
        ])
        _, report = parse_predictions(path, ds, "segmentation")
        assert any(e.code == "DegeneratePayload" for e in report.errors)
        assert report.instances_dropped == 1


class TestRoundTrip:
    def test_dataset_round_trip(self, tiny_gt_path, tmp_path):
        ds = load_ground_truth(tiny_gt_path)
        path = write_json_file(tmp_path / "again.json", dataset_to_dict(ds))
        again = load_ground_truth(path)
        assert again.images == ds.images
        assert again.instances == ds.instances
        assert again.category_id == ds.category_id

    def test_predictions_round_trip(self, tiny_gt_path, tmp_path):
        ds = load_ground_truth(tiny_gt_path)
        path = write_json_file(tmp_path / "p.json", [
            det_pred(2, 0.7, [5, 5, 10, 10]),
            det_pred(1, 0.4, [10, 10, 5, 5]),
            det_pred(1, 0.9, [50, 50, 10, 10]),
        ])
        preds = load_predictions(path, ds, "detection")
        path2 = write_json_file(tmp_path / "p2.json", predictions_to_list(preds))
        again = load_predictions(path2, ds, "detection")
        assert [(p.image_id, p.score, p.bbox) for p in again.instances] == \
               [(p.image_id, p.score, p.bbox) for p in preds.instances]

    def test_shuffle_stability(self, tiny_gt_path, tmp_path):
        ds = load_ground_truth(tiny_gt_path)
        items = [det_pred(1 + (i % 2), round(0.05 * i, 2), [i, i, 5, 5])
                 for i in range(12)]
        rng = random.Random(0)
        baseline = None
        for _ in range(5):
            rng.shuffle(items)
            path = write_json_file(tmp_path / "p.json", items)
            preds = load_predictions(path, ds, "detection")
            key = [(p.image_id, p.score, p.bbox.as_list()) for p in preds.instances]
            if baseline is None:
                baseline = key
            assert key == baseline


class TestContainers:
    def test_prediction_set_rejects_bad_task(self):
        with pytest.raises(ValueError):
            PredictionSet("boxes", [])

    def test_parse_predictions_rejects_bad_task(self, tiny_gt_path):
        with pytest.raises(ValueError, match="task must be one of"):
            parse_predictions([], load_ground_truth(tiny_gt_path), "boxes")

    def test_dataset_lookup(self, tiny_gt_path):
        ds = load_ground_truth(tiny_gt_path)
        assert ds.images_by_id[1].width == 100
        assert [i.id for i in ds.instances_for(1)] == [1, 2]
        assert ds.instances_for(999) == []


class TestLoaderMessages:
    def test_boolean_gt_bbox_is_not_a_box(self, tmp_path):
        gt = make_gt([image(1)], [annotation(1, 1, [True, 23.75, 24.0, 18.5])])
        path = write_json_file(tmp_path / "gt.json", gt)
        with pytest.raises(MalformedJsonError,
                           match=re.escape("annotations[0] (id=1): bbox must be 4 finite numbers, "
                                           "got [true, 23.75, 24.0, 18.5]")):
            load_ground_truth(path)

    def test_category_id_is_quoted_as_json(self, tmp_path):
        gt = make_gt([image(1)], [annotation(1, 1, [0, 0, 5, 5], category_id=None)])
        path = write_json_file(tmp_path / "gt.json", gt)
        with pytest.raises(MalformedJsonError, match="category_id null is not a number"):
            load_ground_truth(path)
        gt = make_gt([image(1)], [], category=(True, "x"))
        path = write_json_file(tmp_path / "gt.json", gt)
        with pytest.raises(MalformedJsonError,
                           match=re.escape("categories[0]: id true is not a number")):
            load_ground_truth(path)

    def test_value_json_cannot_encode_is_quoted_by_repr(self, tiny_gt_path):
        ds = load_ground_truth(tiny_gt_path)
        _, report = parse_predictions([det_pred(1, 0.5, {4})], ds, "detection")
        assert [e.message for e in report.errors] == ["bbox must be 4 finite numbers, got {4}"]

    @pytest.mark.parametrize("file_name", [[1], 7, None, {"a": 1}])
    def test_file_name_must_be_a_string(self, tmp_path, file_name):
        gt = make_gt([image(1), dict(image(2), file_name=file_name)], [])
        path = write_json_file(tmp_path / "gt.json", gt)
        with pytest.raises(MalformedJsonError, match=re.escape(
                f"images[1]: file_name {json.dumps(file_name)} is not a string")):
            load_ground_truth(path)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_readme_fault_table_matches_error_codes():
    """Each code in the README's fault table is a ``CocoFormatError`` code or
    the ``BoxOutsideImage`` warning, and every code a loader raises is listed."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## File formats", 1)[1].split("\n## ", 1)[0]
    listed = set(re.findall(r"^\| `(\w+)` \|", section, flags=re.MULTILINE))
    errors = [cls for cls in _subclasses(CocoFormatError) if cls is not SubmissionError]
    assert listed - {cls.code for cls in errors} == {"BoxOutsideImage"}
    raised = {cls.code for cls in errors if cls.__name__ in inspect.getsource(coco)}
    assert raised <= listed


# Each fault both loaders can meet, as an edit of a valid annotation and of
# a valid prediction of the task the edit needs.
_SHARED_FAULTS = [
    ("detection", {"image_id": "1"}),
    ("detection", {"image_id": 99}),
    ("detection", {"category_id": 2}),
    ("detection", {"bbox": ["10", 10, 20, 20]}),
    ("detection", {"bbox": [10, 10, float("inf"), 20]}),
    ("detection", {"bbox": [10, 10, 2.0 ** 65, 20]}),
    ("detection", {"bbox": [10, 10, 0, 20]}),
    ("detection", {"bbox": [500, 500, 10, 10]}),
    ("segmentation", {"segmentation": [[10, 10, 20, 20]]}),
    ("segmentation", {"segmentation": [[10, 10, 20, 20, 30, 30]]}),
    ("segmentation", {"segmentation": {"counts": "abc", "size": [4, 4]}}),
]


class TestSharedChecks:
    """Ground truth and predictions run one checker per rule."""

    @pytest.mark.parametrize("task,edit", _SHARED_FAULTS, ids=[
        "non-integer-image-id", "unknown-image", "category-mismatch", "non-number-bbox",
        "non-finite-bbox", "bbox-beyond-bound", "zero-width-box", "box-outside-image",
        "short-ring", "zero-area-ring", "rle"])
    def test_loaders_agree(self, tmp_path, task, edit):
        ann = dict(annotation(1, 1, [10, 10, 20, 20]), **edit)
        path = write_json_file(tmp_path / "gt.json", make_gt([image(1)], [ann]))
        with pytest.raises(CocoFormatError) as exc:
            load_ground_truth(path)
        pred = det_pred(1, 0.5, [10, 10, 20, 20]) if task == "detection" else \
            seg_pred(1, 0.5, [[10, 10, 30, 10, 30, 30, 10, 30]])
        ds = Dataset([coco.ImageRecord(1, 100, 100, "a.jpg")], [], 1, "rip_current")
        _, report = parse_predictions([dict(pred, **edit)], ds, task)
        [error] = report.errors
        assert (exc.value.code, exc.value.message) == (error.code, error.message)
        assert (exc.value.location, error.location) == ("annotations[0] (id=1)", "predictions[0]")
        assert str(exc.value) == f"annotations[0] (id=1): {error.message}"
        assert not error.message.startswith(error.location)

    def test_coded_errors_stay_malformed_json(self):
        assert issubclass(CategoryMismatchError, MalformedJsonError)
        assert issubclass(OutsideImageError, MalformedJsonError)
        assert (ScoreOutOfRangeError.code, WrongPayloadKindError.code) == \
               ("ScoreOutOfRange", "WrongPayloadKind")
        assert str(CocoFormatError("no area", "predictions[3]")) == "predictions[3]: no area"
        assert str(CocoFormatError("no area")) == "no area"

    @pytest.mark.parametrize("field", ["image_id", "score", "category_id"])
    def test_null_is_a_value_of_the_wrong_type(self, tiny_gt_path, tmp_path, field):
        ds = load_ground_truth(tiny_gt_path)
        item = det_pred(1, 0.5, [10, 10, 20, 20])
        _, report = parse_predictions([dict(item, **{field: None})], ds, "detection")
        assert [(e.code, e.location, e.message) for e in report.errors] == \
               [("MalformedJson", "predictions[0]", f"{field} null is not a number")]
        del item[field]
        _, report = parse_predictions([item], ds, "detection")
        expected = [] if field == "category_id" else [("MissingField", f"missing {field}")]
        assert [(e.code, e.message) for e in report.errors] == expected
        if field != "score":
            gt = make_gt([image(1)], [dict(annotation(1, 1, [10, 10, 20, 20]), **{field: None})])
            with pytest.raises(MalformedJsonError, match=f"{field} null is not a number"):
                load_ground_truth(write_json_file(tmp_path / "gt.json", gt))

    @pytest.mark.parametrize("task,key,other,message", [
        ("detection", "bbox", "segmentation", "bbox must be 4 finite numbers, got null"),
        ("segmentation", "segmentation", "bbox", "segmentation must be a non-empty list of rings"),
    ])
    def test_null_payload_is_malformed_absent_is_wrong_kind(self, tiny_gt_path, task, key,
                                                           other, message):
        ds = load_ground_truth(tiny_gt_path)
        item = {"image_id": 1, "score": 0.5, other: [[10, 10, 20, 10, 20, 20]]}
        _, report = parse_predictions([dict(item, **{key: None})], ds, task)
        assert [(e.code, e.message) for e in report.errors] == [("MalformedJson", message)]
        _, report = parse_predictions([item], ds, task)
        assert [(e.code, e.message) for e in report.errors] == \
               [("WrongPayloadKind", f"{task} task but entry carries {other}")]


class TestCoordinateBound:
    far = 2.0 ** 65

    @pytest.mark.parametrize("bbox,segmentation,fault", [
        ([0, 0, 5, 5], [[0, 0, 5, 0, 2.0 ** 65, 5]], "ring 0 has a coordinate beyond"),
        ([0, 0, 5, 5], [[0, 0, 5, 0, 5, 5], [1e308, 0, -1e308, 0, 0, 1e308]],
         "ring 1 has a coordinate beyond"),
        ([0, 0, 1e300, 5], [[0, 0, 5, 0, 5, 5]], "bbox [0, 0, 1e+300, 5] has a value beyond"),
    ])
    def test_gt_value_beyond_bound_is_located(self, tmp_path, bbox, segmentation, fault):
        gt = make_gt([image(1)], [annotation(1, 1, [0, 0, 5, 5]),
                                  annotation(2, 1, bbox, segmentation=segmentation)])
        path = write_json_file(tmp_path / "gt.json", gt)
        with pytest.raises(MalformedJsonError) as exc:
            load_ground_truth(path)
        assert exc.value.code == "MalformedJson"
        assert str(exc.value).startswith(f"annotations[1] (id=2): {fault}")

    def test_predictions_beyond_bound_are_issues(self, tiny_gt_path):
        ds = load_ground_truth(tiny_gt_path)
        _, report = parse_predictions(
            [det_pred(1, 0.5, [0, 0, 5, 5]), det_pred(1, 0.5, [0, 0, self.far, 5])],
            ds, "detection")
        assert [(e.code, e.location) for e in report.errors] == \
               [("MalformedJson", "predictions[1]")]
        _, report = parse_predictions(
            [seg_pred(1, 0.5, [[0, 0, 5, 0, -self.far, 5]])], ds, "segmentation")
        assert [(e.code, e.location) for e in report.errors] == \
               [("MalformedJson", "predictions[0]")]
        assert "beyond the coordinate bound" in report.errors[0].message

    def test_ring_at_bound_loads_and_rasterizes(self, tmp_path):
        b = MAX_COORDINATE
        ring = [b, 0.5, -b, 10.5, -b, 0.5]
        gt = make_gt([image(1, 8, 4)], [annotation(1, 1, [0, 0, 8, 4], segmentation=[ring])])
        ds = load_ground_truth(write_json_file(tmp_path / "gt.json", gt))
        poly = ds.instances[0].segmentation
        assert poly == PolygonSet((tuple(ring),))
        assert int(rasterize(poly, 8, 4).sum()) == 32


def _json_values():
    floats = st.floats() | st.sampled_from([-0.0, 0.0, 1e16, 5e-324, 1e308, 0.1, 2.0 ** 64])
    ints = (st.integers() | st.integers(min_value=2 ** 63 - 2, max_value=2 ** 80)
            | st.sampled_from([-2 ** 63 - 1, 10 ** 30]))
    strings = st.text() | st.sampled_from(["10", "2", "", "\u00e9t\u00e9", "\n\t\"\\", "\x00\x7f",
                                           "\U0001f600"])
    scalars = st.none() | st.booleans() | ints | floats | strings
    return st.recursive(scalars, lambda children: (
        st.lists(children, max_size=5)
        | st.lists(floats | ints, max_size=8)
        | st.lists(st.sampled_from([0, 1, 2, True, False, 1.0]), max_size=4)
        | st.dictionaries(strings, children, max_size=5)
        | st.dictionaries(st.integers(), children, max_size=3)
        | st.lists(st.dictionaries(strings, children, max_size=3), max_size=3)
    ), max_leaves=40)


# Values that json.dumps writes but a fixed-shape template must not:
# a bool, a float subclass, a non-finite float, and -0.0 and a long int,
# which it must write as float.__repr__ and int.__repr__ do.
_ODD_NUMBERS = [True, False, np.float64(0.1), np.float64(-0.0), float("nan"), float("inf"),
                float("-inf"), -0.0, 2 ** 70, 1e16]
# Image ids whose string order differs from their numeric order.
_IMAGE_IDS = st.sampled_from([1, 2, 10, 11, 20, 100]) | st.integers(-5, 10 ** 12)


@st.composite
def _threshold_counts(draw):
    """One image's [tp, fp, fn] at each threshold, now and then with an
    odd value, a list for a tuple, a 2- and a 4-count entry, a threshold
    set other than THRESHOLDS, or a threshold off their grid."""
    count = st.integers(0, 10 ** 6)
    taus = {tau: draw(st.tuples(count, count, count)) for tau in THRESHOLDS}
    kind = draw(st.sampled_from(["exact", "exact", "value", "list", "lengths", "subset",
                                 "offgrid"]))
    a, b = draw(st.lists(st.sampled_from(THRESHOLDS), min_size=2, max_size=2, unique=True))
    if kind == "value":
        i = draw(st.integers(0, 2))
        taus[a] = taus[a][:i] + (draw(st.sampled_from(_ODD_NUMBERS)),) + taus[a][i + 1:]
    elif kind == "list":
        taus[a] = list(taus[a])
    elif kind == "lengths":
        taus[a], taus[b] = taus[a][:2], taus[b] + (7,)
    elif kind == "subset":
        taus = {tau: c for tau, c in taus.items() if draw(st.booleans())}
    elif kind == "offgrid":
        taus[draw(st.sampled_from([0.3, 0.97]))] = draw(st.tuples(count, count, count))
    return taus


@st.composite
def _reports(draw):
    score = st.floats() | st.sampled_from(_ODD_NUMBERS)
    per_threshold = [
        ThresholdMetrics(tau, ConfusionCounts(*draw(st.tuples(*[st.integers(0, 99)] * 3))),
                         {1.0: draw(score), 2.0: draw(score)})
        for tau in draw(st.lists(st.sampled_from(THRESHOLDS), max_size=3))]
    ids = draw(st.lists(_IMAGE_IDS, unique=True, max_size=6))
    return MetricsReport(draw(st.sampled_from(["detection", "segmentation"])), per_threshold,
                         *(draw(score) for _ in range(5)),
                         {image_id: draw(_threshold_counts()) for image_id in ids})


@st.composite
def _payload_numbers(draw, n):
    """``n`` payload numbers: ints and finite floats, now and then with
    one odd value among them."""
    values = draw(st.lists(st.integers(-10 ** 6, 10 ** 6) | st.floats(-1e6, 1e6),
                           min_size=n, max_size=n))
    if draw(st.booleans()):
        values[draw(st.integers(0, n - 1))] = draw(st.sampled_from(_ODD_NUMBERS))
    return values


@st.composite
def _prediction_sets(draw):
    task = draw(st.sampled_from(["detection", "segmentation"]))
    instances = []
    for k in range(draw(st.integers(0, 6))):
        score, *payload = draw(_payload_numbers(5))
        image_id, category_id = draw(_IMAGE_IDS), draw(st.sampled_from([1, 1, 3, True]))
        if task == "detection":
            kwargs = {"bbox": BBox(*payload)}
        else:
            rings = draw(st.lists(_payload_numbers(6), min_size=1, max_size=2))
            kwargs = {"segmentation": PolygonSet(tuple(map(tuple, rings)))}
        instances.append(PredictionInstance(image_id, score, category_id, k, **kwargs))
    return PredictionSet(task, instances)


@pytest.fixture(scope="class")
def json_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("write_json")


class TestWriteJson:
    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(_json_values())
    def test_matches_json_dumps(self, obj):
        assert to_json(obj) == json.dumps(obj, indent=2, sort_keys=True)

    def test_repeated_short_int_lists(self):
        # True == 1 with equal hashes, so a cache keyed on values alone
        # would write [True, 0] as [1, 0]; one keyed without the indent
        # would give a nested triple the indentation of a shallower one.
        triple = [3, 0, 1]
        obj = {"a": [1, 0], "b": [True, 0], "c": [1, 0], "d": (1, 0), "e": [1.0, 0],
               "f": [False, 0], "g": [0, 0], "t": triple,
               "per_image": {str(k): {"0.40": triple, "0.45": [1, 2, 0], "nest": [triple, [triple]]}
                             for k in range(3)},
               "rows": [[1, 0], [True, 0], [1, 0], [[1, 0]], [1, 0, 0, 0, 0]]}
        assert to_json(obj) == json.dumps(obj, indent=2, sort_keys=True)

    # Shrinking a failing report writes report.json for minutes before the
    # failure is shown, so this test reports the first failing example.
    @settings(max_examples=200, derandomize=True, database=None, deadline=None,
              phases=[phase for phase in Phase if phase is not Phase.shrink])
    @given(_reports())
    def test_report_matches_json_dumps(self, json_dir, report):
        write_json(report, json_dir / "report.json")
        assert (json_dir / "report.json").read_text(encoding="utf-8") == \
               json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(_prediction_sets())
    def test_prediction_set_matches_json_dumps(self, json_dir, preds):
        write_json(preds, json_dir / "fused.json")
        assert (json_dir / "fused.json").read_text(encoding="utf-8") == \
               json.dumps(predictions_to_list(preds), indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("obj", [
        {"a": object()},
        MetricsReport("detection", [], 0.0, 0.0, 0.0, 0.0, 0.0,
                      {1: {tau: (1, 0, object()) for tau in THRESHOLDS}}),
    ], ids=["dict", "report"])
    def test_failed_write_keeps_the_old_file(self, tmp_path, obj):
        path = tmp_path / "x.json"
        write_json({"kept": [1, 2.5]}, path)
        before = path.read_bytes()
        with pytest.raises(TypeError):
            write_json(obj, path)
        assert path.read_bytes() == before

    def test_file_bytes(self, tmp_path):
        obj = {"10": [1, -0.0, 1e16], "2": {"\u00e9": [], "b": {}}, "a": [{"z": None, "y": True}],
               "n": [float("nan"), 2 ** 70, float("-inf")]}
        write_json(obj, tmp_path / "out" / "x.json")
        assert (tmp_path / "out" / "x.json").read_bytes() == \
               (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8")


# Values a mutation may put anywhere in a parsed file.
_MUTANTS = [True, False, None, "1", "abc", 10 ** 400, 1e308, -1e308, 2.0 ** 64, 2.0 ** 65,
            0, -1, 0.5, 3.0, 7, 2, float("nan"), float("inf"), [], {}, [0, 0, 1, 1],
            [[0, 0, 5, 0, 5, 5]], [[0, 0, 5, 5, 9, 9]]]


def _mutate(obj, data):
    """One or two random edits of a parsed JSON object: a type swap, a
    deleted, extra or duplicated entry, or a shifted number (an
    overhanging or outside box).  Each edit walks down from the root,
    stopping at each level with even odds, so fields are hit as often as
    deep ring coordinates."""
    obj = copy.deepcopy(obj)
    for _ in range(data.draw(st.integers(1, 2))):
        parent, key = None, None
        node = obj
        while isinstance(node, (dict, list)) and node and (
                parent is None or data.draw(st.booleans())):
            parent = node
            key = data.draw(st.sampled_from(
                sorted(node) if isinstance(node, dict) else range(len(node))))
            node = node[key]
        if parent is None:
            continue
        kind = data.draw(st.sampled_from(["swap", "delete", "extra", "duplicate", "shift"]))
        if kind == "swap":
            parent[key] = copy.deepcopy(data.draw(st.sampled_from(_MUTANTS)))
        elif kind == "delete":
            del parent[key]
        elif kind == "extra" and isinstance(parent, dict):
            parent["extra"] = data.draw(st.sampled_from(_MUTANTS))
        elif kind == "duplicate" and isinstance(parent, list):
            parent.insert(key, copy.deepcopy(node))
        elif kind == "shift" and type(node) in (int, float):
            parent[key] = node + data.draw(st.sampled_from([-200, -60, 60, 200, 0.5]))
    # What a file holding the mutated object parses to.
    return json.loads(json.dumps(obj))


def _outcome(fn):
    """``fn()``, or the type and message of the located error it raises;
    any other exception fails the test."""
    try:
        return fn()
    except CocoFormatError as exc:
        return type(exc), str(exc)


def _dataset_state(result):
    if isinstance(result, Dataset):
        return (result.images, result.instances, result.category_id, result.category_name)
    return result


_FIXTURE = generate_fixture(seed=7, n_images=3, max_instances=3)


class TestColumnarLoaders:
    """The columnar passes return exactly what the per-item code returns."""

    def test_fixture_takes_the_columnar_path(self, tmp_path):
        gt = _FIXTURE["gt"]
        columns = coco._ground_truth_columns(gt["images"], gt["annotations"], 1)
        assert columns is not None
        ds = load_ground_truth(write_json_file(tmp_path / "gt.json", gt))
        assert columns == (list(ds.images), list(ds.instances))
        for task in ("detection", "segmentation"):
            items = _FIXTURE["det" if task == "detection" else "seg"]
            assert coco._prediction_columns(items, ds, task, coco.ValidationReport()) is not None

    def test_overhang_warnings_in_index_order(self, tiny_gt_path):
        ds = load_ground_truth(tiny_gt_path)
        items = [det_pred(1, 0.5, [95, 10, 10, 10]), det_pred(2, 0.5, [10, 10, 5, 5]),
                 det_pred(1, 0.25, [-3, -3, 10, 10])]
        retained, report = parse_predictions(items, ds, "detection")
        assert coco._prediction_columns(items, ds, "detection", coco.ValidationReport()) is not None
        assert [(w.code, w.location) for w in report.warnings] == \
               [("BoxOutsideImage", "predictions[0]"), ("BoxOutsideImage", "predictions[2]")]
        assert report.warnings[1].message == \
               "box [-3.0, -3.0, 10.0, 10.0] extends past the 100x100 image bounds"
        assert len(retained) == 3

    @staticmethod
    def _check_ground_truth(path):
        fast = _dataset_state(_outcome(lambda: load_ground_truth(path)))
        with mock.patch.object(coco, "_ground_truth_columns", lambda *args: None):
            slow = _dataset_state(_outcome(lambda: load_ground_truth(path)))
        assert fast == slow

    @pytest.mark.parametrize("edit", [
        {"segmentation": [[10, 10, 20, 20, 30, 30]]},
        {"segmentation": [[10, 10, 20, 20, 30, 30], [0, 0, 5, 0, 5, 5]]},
        {"segmentation": [[1e6, 1e6, 1e6 + 1e-6, 1e6, 1e6, 1e6 + 1e-6]]},
        {"segmentation": [[0, 0, 2.0 ** 64, 0, 0, 2.0 ** 64]]},
        {"segmentation": [[0, 0, 2.0 ** 64 * (1 + 2 ** -52), 0, 0, 5]]},
        {"bbox": [500, 0, 10, 10]}, {"bbox": [-20, -20, 10, 10]},
        {"bbox": [-5, -5, 10, 10]}, {"bbox": [0, 0, True, 10]},
        {"image_id": 1.0}, {"id": None},
    ], ids=["zero-area", "zero-beside-area", "tiny-far", "at-bound", "past-bound",
            "right-of-image", "above-left", "overhang", "bool-in-bbox", "float-image-id",
            "no-id"])
    def test_ground_truth_edge_cases(self, tmp_path, edit):
        gt = make_gt([image(1), image(2, 64, 48)],
                     [annotation(1, 1, [10, 10, 20, 20]), annotation(2, 2, [5, 5, 10, 10])])
        gt["annotations"][0].update(edit)
        if edit == {"id": None}:
            del gt["annotations"][0]["id"]
        self._check_ground_truth(write_json_file(tmp_path / "gt.json", gt))

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(st.data())
    def test_ground_truth_fuzz(self, tmp_path_factory, data):
        path = write_json_file(tmp_path_factory.getbasetemp() / "fuzz_gt.json",
                               _mutate(_FIXTURE["gt"], data))
        self._check_ground_truth(path)

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(st.data())
    def test_detection_fuzz(self, tmp_path_factory, data):
        ds = load_ground_truth(write_json_file(
            tmp_path_factory.getbasetemp() / "fixture_gt.json", _FIXTURE["gt"]))
        items = _mutate(_FIXTURE["det"], data)

        def parse():
            retained, report = parse_predictions(items, ds, "detection")
            return retained, report.to_dict()

        fast = _outcome(parse)
        with mock.patch.object(coco, "_prediction_columns", lambda *args: None):
            slow = _outcome(parse)
        assert fast == slow

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(st.data())
    def test_segmentation_fuzz(self, tmp_path_factory, data):
        """``validate``'s report, strict and lenient, from a segmentation
        file with faults that only the rasterizer sees mixed with others."""
        work = tmp_path_factory.getbasetemp()
        gt = write_json_file(work / "fixture_gt.json", _FIXTURE["gt"])
        items = copy.deepcopy(_FIXTURE["seg"])
        for _ in range(data.draw(st.integers(0, 3))):
            key, value = data.draw(st.sampled_from(_SEG_FAULTS))
            items[data.draw(st.integers(0, len(items) - 1))][key] = copy.deepcopy(value)
        if data.draw(st.booleans()):
            items = _mutate(items, data)
        preds = write_json_file(work / "fuzz_seg.json", items)

        def validate():
            outcome = []
            for mode in ([], ["--lenient"]):
                out = work / "fuzz_report.json"
                code = cli.main(["validate", str(gt), str(preds), "--task", "seg",
                                 "--out", str(out), *mode])
                outcome.append((code, out.read_bytes()))
            return outcome

        fast = validate()
        with mock.patch.object(coco, "_prediction_columns", lambda *args: None):
            slow = validate()
        assert fast == slow

    def test_segmentation_memory_is_bounded(self):
        """400 polygons of about 3000 rows each are 2.4M edge-row
        crossings.  One rasterizer pass over all of them would hold at
        least their int64 rows, columns and sort order, 58 MB."""
        ds = Dataset([coco.ImageRecord(1, 64, 3100, "tall.jpg")], [], 1, "rip_current")
        items = [seg_pred(1, 0.5, [[k % 50, 20, k % 50 + 10, 30, k % 50 + 12, 3050,
                                    k % 50 + 2, 3040]]) for k in range(400)]
        retained = []
        peak = traced_peak_bytes(
            lambda: retained.extend(parse_predictions(items, ds, "segmentation")[0]))
        assert len(retained) == 400
        assert peak < 16 * 2 ** 20


# Faults a segmentation file may hold; the first three polygons set no
# pixel (between pixel centres, left of and below the image).
_SEG_FAULTS = [
    ("segmentation", [[1.1, 1.1, 1.4, 1.1, 1.1, 1.4]]),
    ("segmentation", [[-10, 5, -5, 5, -5, 20]]),
    ("segmentation", [[0, 1000, 50, 1000, 50, 1060]]),
    ("segmentation", [[0, 0, 5, 5]]),
    ("segmentation", [[0, 0, 5, 5, 9, 9]]),
    ("segmentation", [[0, 0, 5, 0, "5", 5]]),
    ("segmentation", {"counts": "abc", "size": [4, 4]}),
    ("image_id", 999),
    ("score", 1.5),
    ("score", float("nan")),
]


_BOX = BBox(1.0, 2.0, 3.0, 4.0)
_POLY = PolygonSet(((0.0, 0.0, 4.0, 0.0, 4.0, 4.0),))
# One instance of each value record, with its repr.
_RECORDS = [
    (_BOX, "BBox(x=1.0, y=2.0, w=3.0, h=4.0)"),
    (_POLY, "PolygonSet(rings=((0.0, 0.0, 4.0, 0.0, 4.0, 4.0),))"),
    (coco.ImageRecord(1, 64, 48, "a.jpg"),
     "ImageRecord(id=1, width=64, height=48, file_name='a.jpg')"),
    (coco.GroundTruthInstance(7, 1, _BOX, _POLY, 1),
     f"GroundTruthInstance(id=7, image_id=1, bbox={_BOX!r}, segmentation={_POLY!r}, "
     "category_id=1)"),
    (PredictionInstance(1, 0.5, 1, 3, bbox=_BOX),
     f"PredictionInstance(image_id=1, score=0.5, category_id=1, source_index=3, "
     f"bbox={_BOX!r}, segmentation=None)"),
]


class TestRecords:
    """The value records stay immutable, compare and hash by value and
    keep the reprs they had as frozen dataclasses."""

    @pytest.mark.parametrize("record,text", _RECORDS, ids=lambda r: type(r).__name__)
    def test_fields_cannot_be_assigned(self, record, text):
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        with pytest.raises(AttributeError):
            record.extra = None

    @pytest.mark.parametrize("record,text", _RECORDS, ids=lambda r: type(r).__name__)
    def test_equality_and_hash_by_value(self, record, text):
        twin = type(record)(*record)
        assert twin == record and twin is not record
        assert hash(twin) == hash(record)
        assert len({record, twin}) == 1
        assert record._replace(**{record._fields[0]: 99}) != record

    @pytest.mark.parametrize("record,text", _RECORDS, ids=lambda r: type(r).__name__)
    def test_repr(self, record, text):
        assert repr(record) == text

    def test_prediction_payloads_default_to_none(self):
        inst = PredictionInstance(1, 0.5, 1, 0)
        assert (inst.bbox, inst.segmentation) == (None, None)

    def test_box_properties(self):
        assert (_BOX.x2, _BOX.y2, _BOX.area, _BOX.as_list()) == (4.0, 6.0, 12.0,
                                                                 [1.0, 2.0, 3.0, 4.0])
        assert _POLY.as_lists() == [[0.0, 0.0, 4.0, 0.0, 4.0, 4.0]]
