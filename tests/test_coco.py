import json
import random
import re

import pytest

from detsegeval.coco import (
    Dataset,
    PredictionSet,
    load_ground_truth,
    load_predictions,
    parse_predictions,
    predictions_to_list,
)
from detsegeval.errors import (
    DuplicateImageIdError,
    MalformedJsonError,
    MissingFieldError,
    MultipleCategoriesError,
    SubmissionError,
    UnknownImageRefError,
)
from conftest import annotation, det_pred, image, make_gt, seg_pred, write_json_file


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
        with pytest.raises(MalformedJsonError, match=r"images\[0\].*width True is not a number"):
            load_ground_truth(path)

    @pytest.mark.parametrize("field,value", [
        ("id", "1"), ("width", "80"), ("height", 40.5), ("height", True)])
    def test_image_numbers_must_be_json_numbers(self, tmp_path, field, value):
        gt = make_gt([image(1)], [annotation(1, 1, [0, 0, 5, 5])])
        gt["images"][0][field] = value
        path = write_json_file(tmp_path / "gt.json", gt)
        with pytest.raises(MalformedJsonError,
                           match=re.escape(f"images[0]: {field} {value!r} is not")):
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
        with pytest.raises(MalformedJsonError, match=r"annotations\[0\] \(id=3\): degenerate bbox"):
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
        assert f"{field} {value!r} is not" in report.errors[0].message

    def test_integral_float_ids_are_kept(self, tiny_gt_path):
        ds = load_ground_truth(tiny_gt_path)
        item = det_pred(1.0, 1, [10, 10, 20, 20], category_id=1.0)
        [kept], report = parse_predictions([item], ds, "detection")
        assert report.ok
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

    def test_dataset_lookup(self, tiny_gt_path):
        ds = load_ground_truth(tiny_gt_path)
        assert ds.images_by_id[1].width == 100
        assert [i.id for i in ds.instances_for(1)] == [1, 2]
        assert ds.instances_for(999) == []
