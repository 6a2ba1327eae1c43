import argparse
import gc
import hashlib
import json
import os
import re
import resource
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import detsegeval
from detsegeval.cli import main
from detsegeval.coco import DETECTION, load_ground_truth, load_predictions, parse_predictions
from detsegeval.fixtures import generate_fixture
from detsegeval.fusion import PRESETS, preset_params, run_preset
from detsegeval.metrics import MetricsReport, evaluate
from conftest import (annotation, det_pred, image, make_gt, predictions_to_list, seg_pred,
                      write_json_file)


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture
def workspace(tmp_path):
    gt = make_gt(
        [image(1, 64, 64), image(2, 64, 64)],
        [
            annotation(1, 1, [8, 8, 24, 24]),
            annotation(2, 2, [10, 12, 30, 30]),
        ],
    )
    gt_path = write_json_file(tmp_path / "gt.json", gt)
    det_path = write_json_file(tmp_path / "det.json", [
        det_pred(1, 0.9, [8, 8, 24, 24]),
        det_pred(2, 0.8, [10, 12, 30, 30]),
    ])
    seg_path = write_json_file(tmp_path / "seg.json", [
        seg_pred(1, 0.9, [[8, 8, 32, 8, 32, 32, 8, 32]]),
        seg_pred(2, 0.8, [[10, 12, 40, 12, 40, 42, 10, 42]]),
    ])
    return tmp_path, gt_path, det_path, seg_path


def test_cli_import_does_not_load_scipy():
    """Only mask fusion needs scipy, so detection runs never pay its import."""
    src = str(Path(detsegeval.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, detsegeval.cli; "
            "print('scipy' in sys.modules, 'concurrent.futures' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False False"


@pytest.mark.parametrize("args,code,stdout", [
    (["--version"], 0, detsegeval.__version__),
    (["validate", "gt.json", "gt.json"], 2, ""),  # an object where the array belongs
], ids=["version", "main-exit-code"])
def test_module_entry_point_exit_code(workspace, args, code, stdout):
    root = workspace[0]
    src = str(Path(detsegeval.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-m", "detsegeval.cli", *args], cwd=root,
                         env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                         text=True, timeout=60)
    assert (out.returncode, out.stdout.strip()) == (code, stdout)


@pytest.fixture
def restore_gc():
    """Leaves the collector on or off as the test found it."""
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("args,code", [
    (["validate", "gt.json", "det.json"], 0),
    (["validate", "gt.json", "gt.json"], 2),  # ground truth passed as predictions
    (["fuse", "gt.json", "det.json", "--preset", "nope"], 3),
    (["validate", "gt.json", "missing.json"], 1),
    (["--version"], 0),  # argparse exits
    (["validate", "gt.json"], 2),  # argparse exits: a positional is missing
], ids=["exit-0", "exit-2", "exit-3", "exit-1", "version", "bad-arguments"])
def test_main_leaves_gc_state_as_found(workspace, restore_gc, capsys, enabled, args, code):
    root = workspace[0]
    argv = [str(root / a) if a.endswith(".json") else a for a in args]
    gc.enable() if enabled else gc.disable()
    try:
        assert main(argv) == code
    except SystemExit as exc:
        assert exc.code == code
    assert gc.isenabled() is enabled


def test_main_builds_one_parser_on_its_first_call(workspace, monkeypatch, capsys):
    """Importing the CLI builds no parser, and every ``main`` call parses
    with the one that the first call built."""
    src = str(Path(detsegeval.__file__).resolve().parents[1])
    code = "import detsegeval.cli as c; print(c.build_parser.cache_info().currsize)"
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "0"
    parsers = []
    parse_args = argparse.ArgumentParser.parse_args
    monkeypatch.setattr(argparse.ArgumentParser, "parse_args",
                        lambda self, *a, **k: parsers.append(self) or parse_args(self, *a, **k))
    root = workspace[0]
    assert main(["validate", str(root / "gt.json"), str(root / "det.json")]) == 0
    assert main(["validate", str(root / "gt.json"), str(root / "seg.json"), "--task", "seg"]) == 0
    assert len(parsers) == 2 and parsers[0] is parsers[1]


def test_commands_leave_no_garbage_that_grows_with_input(tmp_path, restore_gc, capsys):
    """With the collector off, what a collection finds after each command
    does not depend on the input's size: the pipeline makes no reference
    cycles, so ``main`` may pause the collector."""
    commands = [
        ["validate", "{d}/gt.json", "{d}/faulty.json", "--lenient", "--out", "{d}/v.json"],
        ["score", "{d}/gt.json", "{d}/pred_det.json", "--out", "{d}/det"],
        ["score", "{d}/gt.json", "{d}/pred_seg.json", "--task", "seg", "--out", "{d}/seg"],
        ["fuse", "{d}/gt.json", "{d}/pred_det.json", "{d}/pred_det.json", "--preset", "kmg",
         "--task", "det", "--out", "{d}/kmg.json"],
        ["fuse", "{d}/gt.json", "{d}/pred_seg.json", "{d}/pred_det.json", "--preset",
         "sigmoid", "--task", "seg", "--out", "{d}/sigmoid.json"],
    ]
    found = {}
    for size in (6, 6, 60):  # the first round warms caches and lazy imports
        d = tmp_path / str(size)
        assert main(["gen-fixture", "--seed", "5", "--images", str(size), "--out", str(d)]) == 0
        items = json.loads((d / "pred_det.json").read_text(encoding="utf-8"))
        write_json_file(d / "faulty.json", [{**e, "score": 2.0} for e in items])  # all faulty
        counts = []
        for command in commands:
            gc.collect()
            gc.disable()
            assert main([a.format(d=d) for a in command]) == 0
            counts.append(gc.collect())
            gc.enable()
        found[size] = counts
    assert found[60] == found[6]


class TestValidate:
    def test_valid_submission_exit_0(self, workspace):
        _, gt, det, _ = workspace
        assert run(["validate", gt, det, "--task", "det"]) == 0

    def test_wrong_payload_kind_exit_2(self, workspace, tmp_path):
        _, gt, det, _ = workspace
        out = tmp_path / "report.json"
        code = run(["validate", gt, det, "--task", "seg", "--out", out])
        assert code == 2
        report = json.loads(out.read_text())
        assert any(e["code"] == "WrongPayloadKind" for e in report["errors"])

    def test_lenient_degenerate_box_exit_0(self, workspace, tmp_path):
        root, gt, _, _ = workspace
        bad = write_json_file(root / "bad.json", [
            det_pred(1, 0.9, [8, 8, 24, 24]),
            det_pred(1, 0.5, [10, 10, 0, 5]),
        ])
        out = tmp_path / "report.json"
        code = run(["validate", gt, bad, "--task", "det", "--lenient", "--out", out])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["counts"]["instances_dropped"] == 1

    @pytest.mark.parametrize("field", ["image_id", "score", "category_id"])
    def test_non_numeric_field_exit_2(self, workspace, field):
        root, gt, _, _ = workspace
        bad = write_json_file(root / "bad.json",
                              [dict(det_pred(1, 0.9, [8, 8, 24, 24]), **{field: "abc"})])
        assert run(["validate", gt, bad, "--task", "det"]) == 2
        assert run(["validate", gt, bad, "--task", "det", "--lenient"]) == 0
        assert run(["score", gt, bad, "--task", "det", "--out", root / "s"]) == 2

    def test_non_object_gt_image_exit_2(self, workspace):
        root, gt, det, _ = workspace
        data = json.loads(gt.read_text())
        data["images"].append(7)
        bad_gt = write_json_file(root / "bad_gt.json", data)
        assert run(["validate", bad_gt, det, "--task", "det"]) == 2

    def test_numeric_string_gt_width_exit_2(self, workspace, capsys):
        root, gt, det, _ = workspace
        data = json.loads(gt.read_text())
        data["images"][1]["width"] = "64"
        bad_gt = write_json_file(root / "bad_gt.json", data)
        assert run(["validate", bad_gt, det, "--task", "det"]) == 2
        assert 'images[1]: width "64" is not a number' in capsys.readouterr().err

    def test_huge_integer_in_bbox_is_located(self, workspace, tmp_path):
        root, gt, _, _ = workspace
        bad = write_json_file(root / "bad.json", [
            det_pred(1, 0.9, [8, 8, 24, 24]),
            det_pred(1, 0.8, [10 ** 400, 8, 24, 24]),  # too large for a float
        ])
        out = tmp_path / "report.json"
        assert run(["validate", gt, bad, "--task", "det", "--out", out]) == 2
        [error] = json.loads(out.read_text())["errors"]
        assert (error["code"], error["location"]) == ("MalformedJson", "predictions[1]")
        assert run(["validate", gt, bad, "--task", "det", "--lenient", "--out", out]) == 0
        assert json.loads(out.read_text())["counts"]["instances_dropped"] == 1
        assert run(["score", gt, bad, "--task", "det", "--out", root / "s"]) == 2

    def test_huge_integer_in_ring_is_located(self, workspace, tmp_path):
        root, gt, _, _ = workspace
        bad = write_json_file(root / "bad.json", [
            seg_pred(1, 0.9, [[10 ** 400, 8, 32, 8, 32, 32, 8, 32]]),
        ])
        out = tmp_path / "report.json"
        assert run(["validate", gt, bad, "--task", "seg", "--out", out]) == 2
        [error] = json.loads(out.read_text())["errors"]
        assert (error["code"], error["location"]) == ("MalformedJson", "predictions[0]")
        assert "not a finite number" in error["message"]
        assert run(["validate", gt, bad, "--task", "seg", "--lenient", "--out", out]) == 0
        assert json.loads(out.read_text())["counts"]["instances_dropped"] == 1

    def test_huge_integer_in_gt_bbox_exit_2(self, workspace, capsys):
        root, gt, det, _ = workspace
        data = json.loads(gt.read_text())
        data["annotations"][0]["bbox"][2] = 10 ** 400
        bad_gt = write_json_file(root / "bad_gt.json", data)
        assert run(["score", bad_gt, det, "--task", "det", "--out", root / "s"]) == 2
        assert "annotations[0] (id=1): bbox must be 4 finite numbers" in capsys.readouterr().err

    def test_integer_literal_past_parser_limit_exit_2(self, workspace):
        root, gt, _, _ = workspace
        bad = root / "bad.json"
        bad.write_text('[{"image_id": 1, "score": 0.5, "bbox": [' + "9" * 5000
                       + ', 8, 24, 24]}]', encoding="utf-8")
        assert run(["validate", gt, bad, "--task", "det"]) == 2

    def test_gt_box_fully_outside_image_exit_2(self, workspace, capsys):
        root, gt, det, _ = workspace
        data = json.loads(gt.read_text())
        data["annotations"][1]["bbox"] = [60, 60, 10, 10]  # overhang: accepted
        assert run(["validate", write_json_file(root / "gt_edge.json", data), det,
                    "--task", "det"]) == 0
        data["annotations"][0]["bbox"] = [500, 500, 10, 10]  # the images are 64x64
        bad_gt = write_json_file(root / "bad_gt.json", data)
        capsys.readouterr()
        assert run(["validate", bad_gt, det, "--task", "det"]) == 2
        assert run(["score", bad_gt, det, "--task", "det", "--out", root / "s"]) == 2
        err = capsys.readouterr().err
        assert "annotations[0] (id=1): box [500.0, 500.0, 10.0, 10.0] lies fully " \
               "outside the 64x64 image" in err

    def test_duplicate_gt_annotation_id_exit_2(self, workspace, capsys):
        root, gt, det, _ = workspace
        data = json.loads(gt.read_text())
        data["annotations"][1]["id"] = 1
        bad_gt = write_json_file(root / "bad_gt.json", data)
        assert run(["score", bad_gt, det, "--task", "det", "--out", root / "s"]) == 2
        assert "duplicate annotation id 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "score"])
    def test_gt_json_array_exit_2(self, workspace, capsys, command):
        root, _, det, _ = workspace
        gt = write_json_file(root / "array_gt.json", [])
        assert run([command, gt, det, "--task", "det", "--out", root / "out"]) == 2
        assert "ground truth must be a JSON object" in capsys.readouterr().err
        assert not (root / "out").exists()

    def test_missing_file_exit_1(self, workspace):
        _, gt, _, _ = workspace
        assert run(["validate", gt, "/nonexistent/p.json"]) == 1

    @pytest.mark.parametrize("command", ["validate", "score", "leaderboard"])
    @pytest.mark.parametrize("role", ["ground-truth", "predictions"])
    def test_deeply_nested_json_exit_2(self, workspace, capsys, command, role):
        root, gt, det, _ = workspace
        deep = root / "subs" / "deep.json"
        deep.parent.mkdir()
        deep.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        gt, preds = (deep, det) if role == "ground-truth" else (gt, deep)
        if command == "leaderboard":
            preds = deep.parent
        assert run([command, gt, preds, "--task", "det", "--out", root / "out"]) == 2
        err = capsys.readouterr().err
        assert "deep.json" in err and "recursion" in err and "Traceback" not in err
        assert not (root / "out").exists()


class TestScore:
    def test_perfect_prints_100(self, workspace, capsys):
        root, gt, det, _ = workspace
        code = run(["score", gt, det, "--task", "det", "--out", root / "scores"])
        assert code == 0
        assert "final=100.00" in capsys.readouterr().out
        report = json.loads((root / "scores" / "report.json").read_text())
        assert report["headline"]["final_score"] == 100.0
        assert (root / "scores" / "manifest.json").exists()
        assert (root / "scores" / "report.md").exists()

    def test_empty_prints_0(self, workspace, capsys):
        root, gt, _, _ = workspace
        empty = write_json_file(root / "empty.json", [])
        code = run(["score", gt, empty, "--task", "det", "--out", root / "s2"])
        assert code == 0
        assert "final=0.00" in capsys.readouterr().out

    def test_invalid_submission_exit_2(self, workspace):
        root, gt, _, _ = workspace
        bad = write_json_file(root / "bad.json", [det_pred(1, 2.0, [8, 8, 4, 4])])
        assert run(["score", gt, bad, "--task", "det", "--out", root / "s3"]) == 2

    def test_gt_ring_beyond_coordinate_bound_exit_2(self, workspace, capsys):
        root, _, _, seg = workspace
        gt = make_gt([image(1, 64, 64)], [annotation(
            1, 1, [8, 8, 24, 24], segmentation=[[1e308, 0, -1e308, 0, 0, 1e308]])])
        bad_gt = write_json_file(root / "far_gt.json", gt)
        assert run(["score", bad_gt, seg, "--task", "seg", "--out", root / "s5"]) == 2
        assert ("annotations[0] (id=1): ring 0 has a coordinate beyond the coordinate bound"
                in capsys.readouterr().err)

    def test_segmentation_task(self, workspace, capsys):
        root, gt, _, seg = workspace
        code = run(["score", gt, seg, "--task", "seg", "--out", root / "s4"])
        assert code == 0
        assert "final=100.00" in capsys.readouterr().out

    def test_manifest_identical_minus_timestamp(self, workspace):
        root, gt, det, _ = workspace
        assert run(["score", gt, det, "--task", "det", "--out", root / "m1"]) == 0
        assert run(["score", gt, det, "--task", "det", "--out", root / "m2"]) == 0
        a = json.loads((root / "m1" / "manifest.json").read_text())
        b = json.loads((root / "m2" / "manifest.json").read_text())
        a.pop("timestamp")
        b.pop("timestamp")
        assert a == b

    def test_manifest_records_fixed_betas(self, workspace):
        root, gt, det, _ = workspace
        assert run(["score", gt, det, "--task", "det", "--out", root / "m"]) == 0
        manifest = json.loads((root / "m" / "manifest.json").read_text())
        assert manifest["config"]["betas"] == [1.0, 2.0]
        assert manifest["config"]["jobs"] == 1

    @pytest.mark.parametrize("command", ["score", "leaderboard"])
    def test_strict_rejection_names_first_fault_location(self, workspace, capsys, command):
        root, gt, _, _ = workspace
        subs = root / "subs_strict"
        subs.mkdir()
        bad = write_json_file(subs / "bad.json", [
            det_pred(1, 0.9, [8, 8, 24, 24]), det_pred(2, 0.8, [10, 12, 30, 30]),
            det_pred(99, 0.7, [8, 8, 24, 24])])
        source = bad if command == "score" else subs
        assert run([command, gt, source, "--task", "det", "--out", root / "out"]) == 2
        assert ("submission rejected: 1 error(s), first: predictions[2]: unknown image id 99"
                in capsys.readouterr().err)


# sha256 of every preset's fused output on the fixture of `golden_inputs`:
# a refactor of fusion must leave these bytes as they are.
GOLDEN_FUSED = {
    ("identity", "det"): "b6242c76020164793557f5d2d2e458746dd64b6012213c8a9d7248d656550f8e",
    ("identity", "seg"): "d8ad6ae28e2fb50bd72db64e91b995b995f2faab30fe0d33e5ffd667f406e373",
    ("uno", "det"): "57aae7d869cd82a44208acc50d699d6cfa2fe40e197df0e47c903b7b7b665a4d",
    ("uno", "seg"): "9631c4efa130b57533adcb397c28a6f3d09091a74b306491d342e3580c1bdf2d",
    ("sigmoid", "det"): "2bef11f5cdf3c30bc5c4bf3073833b0b9b48dd9f2d27f49ef78ac03de1c1d1fd",
    ("sigmoid", "seg"): "3fd83623b95b98738dcfac982c8f512f577289cc69187be3695faf2eca7c398f",
    ("kmg", "det"): "f8cbef4c1c3571f6bf4b45a4f207dba3bb071e92f2f08a8b6c53f3710426c4d8",
    ("kmg", "seg"): "d8ad6ae28e2fb50bd72db64e91b995b995f2faab30fe0d33e5ffd667f406e373",
    ("ntr", "det"): "49b8d4d854c40c5c1c77c6901af1727e7775c2b08473391bdbddccadbb0a63ec",
    ("ntr", "seg"): "17e7972d2ef50244d4efd785a4b1b9ffe6372f6973b1c7e2bd0b7e426af18fb1",
    ("visionx", "det"): "21c75cc90eae24f8100e2a57f3020b9a9d5c043e5b140c6af67e582264b06a11",
    ("visionx", "seg"): "a62eb049dfc6ba8d88d971fcf9d3ae766c68cf67c6ece443e5d01b9820fe1b17",
}


@pytest.fixture(scope="module")
def golden_inputs(tmp_path_factory):
    """Two perturbations of one seed: the same ground truth, two
    detection and two segmentation models."""
    root = tmp_path_factory.mktemp("golden")
    for name, perturbation in (("a", 0.15), ("b", 0.35)):
        assert run(["gen-fixture", "--seed", 11, "--images", 8,
                    "--perturbation", perturbation, "--out", root / name]) == 0
    inputs = [root / k / f for f in ("pred_seg.json", "pred_det.json") for k in "ab"]
    return root, root / "a" / "gt.json", inputs


@pytest.mark.parametrize("task", ["det", "seg"])
@pytest.mark.parametrize("preset", PRESETS)
def test_fused_output_matches_golden_digest(golden_inputs, preset, task):
    root, gt, inputs = golden_inputs
    out = root / f"fused_{preset}_{task}.json"
    assert run(["fuse", gt, *inputs, "--preset", preset, "--task", task,
                "--out", out]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_FUSED[preset, task]


def test_outputs_are_sorted_indented_json(tmp_path):
    """``report.json``, kmg's fused detections and their manifests hold
    ``json.dumps(obj, indent=2, sort_keys=True)`` and a newline, ``obj``
    being the report's ``to_dict()``, the fused entry list and the parsed
    manifest.  Image ids run past 10, so their string order is not their
    numeric order."""
    for name, perturbation in (("a", 0.15), ("b", 0.35)):
        assert run(["gen-fixture", "--seed", 5, "--images", 24,
                    "--perturbation", perturbation, "--out", tmp_path / name]) == 0
    gt, models = tmp_path / "a" / "gt.json", [tmp_path / k / "pred_det.json" for k in "ab"]
    assert run(["score", gt, models[0], "--task", "det", "--out", tmp_path / "scores"]) == 0
    assert run(["fuse", gt, *models, "--preset", "kmg", "--task", "det",
                "--out", tmp_path / "fused.json"]) == 0

    ds = load_ground_truth(gt)
    preds = [load_predictions(path, ds, DETECTION) for path in models]
    expected = {
        "scores/report.json": evaluate(ds, preds[0]).to_dict(),
        "fused.json": predictions_to_list(
            run_preset("kmg", ds, preds, DETECTION, preset_params("kmg"))),
    }
    for name in ("scores/manifest.json", "fused.manifest.json"):
        expected[name] = json.loads((tmp_path / name).read_text(encoding="utf-8"))
    assert {2, 10} <= set(map(int, expected["scores/report.json"]["per_image"]))
    assert len(expected["fused.json"]) > 0
    for name, obj in expected.items():
        assert (tmp_path / name).read_text(encoding="utf-8") == \
               json.dumps(obj, indent=2, sort_keys=True) + "\n", name


def test_commands_write_the_report_without_reading_per_image(tmp_path):
    """``score`` writes ``report.json`` from the TP table and
    ``leaderboard`` writes no per-image counts, so with
    ``MetricsReport.per_image`` raising each command exits 0 and writes
    the bytes of a run without the patch; manifests differ only in their
    timestamp."""
    fixture = tmp_path / "fixture"
    assert run(["gen-fixture", "--seed", 5, "--images", 12, "--out", fixture]) == 0
    gt = fixture / "gt.json"
    (tmp_path / "submissions").mkdir()
    (tmp_path / "submissions" / "pred_det.json").write_bytes((fixture / "pred_det.json").read_bytes())

    def outputs(out):
        assert run(["score", gt, fixture / "pred_det.json", "--task", "det",
                    "--out", out / "det"]) == 0
        assert run(["score", gt, fixture / "pred_seg.json", "--task", "seg",
                    "--out", out / "seg"]) == 0
        assert run(["leaderboard", gt, tmp_path / "submissions", "--out", out / "board"]) == 0
        files = {}
        for path in sorted(out.rglob("*")):
            if path.is_file():
                data = path.read_bytes()
                if path.name == "manifest.json":
                    data = re.sub(rb'"timestamp": "[^"]*"', b'"timestamp": ""', data)
                files[path.relative_to(out)] = data
        return files

    def unread(report):
        raise AssertionError("MetricsReport.per_image was read")

    expected = outputs(tmp_path / "plain")
    with mock.patch.object(MetricsReport, "per_image", property(unread)):
        assert outputs(tmp_path / "patched") == expected
    assert len(expected) == 8


class TestFuse:
    def test_identity_round_trip(self, workspace):
        root, gt, det, _ = workspace
        out = root / "fused.json"
        code = run(["fuse", gt, det, "--preset", "identity", "--task", "det",
                    "--out", out])
        assert code == 0
        fused = json.loads(out.read_text())
        original = json.loads(det.read_text())
        assert sorted((f["image_id"], f["score"]) for f in fused) == \
               sorted((o["image_id"], o["score"]) for o in original)
        assert out.with_suffix(".manifest.json").exists()

    def test_unknown_preset_exit_3(self, workspace):
        root, gt, det, _ = workspace
        assert run(["fuse", gt, det, "--preset", "bogus",
                    "--out", root / "x.json"]) == 3

    def test_bad_set_value_exit_3(self, workspace):
        root, gt, det, _ = workspace
        assert run(["fuse", gt, det, "--preset", "identity",
                    "--set", "wbf_iou=abc", "--out", root / "x.json"]) == 3

    def test_set_without_equals_exit_3(self, workspace, capsys):
        root, gt, _, seg = workspace
        assert run(["fuse", gt, seg, "--preset", "sigmoid", "--set", "seg_conf",
                    "--out", root / "x.json"]) == 3
        assert "configuration error: --set expects key=value" in capsys.readouterr().err
        assert not (root / "x.json").exists()

    def test_empty_input_takes_output_task(self, workspace):
        root, gt, _, _ = workspace
        empty = write_json_file(root / "empty.json", [])
        out = root / "fused_empty.json"
        assert run(["fuse", gt, empty, "--preset", "kmg", "--task", "det", "--out", out]) == 0
        assert json.loads(out.read_text()) == []

    def test_each_input_parsed_once(self, workspace, monkeypatch):
        root, gt, det, seg = workspace
        parsed = []
        load = json.load
        monkeypatch.setattr(json, "load", lambda fh: parsed.append(fh.name) or load(fh))
        assert run(["fuse", gt, seg, det, "--preset", "sigmoid", "--task", "seg",
                    "--out", root / "once.json"]) == 0
        assert sorted(parsed) == sorted(map(str, (gt, seg, det)))

    def test_malformed_input_exit_2(self, workspace):
        root, gt, _, _ = workspace
        bad = root / "bad.json"
        bad.write_text("[{not json", encoding="utf-8")
        assert run(["fuse", gt, bad, "--preset", "identity", "--task", "det",
                    "--out", root / "x.json"]) == 2

    def test_invalid_input_exit_2(self, workspace):
        root, gt, _, _ = workspace
        bad = write_json_file(root / "bad.json", [det_pred(99, 0.5, [1, 1, 4, 4])])
        assert run(["fuse", gt, bad, "--preset", "identity", "--task", "det",
                    "--out", root / "x.json"]) == 2

    @pytest.mark.parametrize("preset,task", [
        ("identity", "seg"), ("uno", "seg"), ("sigmoid", "seg"),
        ("sigmoid", "det"), ("kmg", "det"), ("kmg", "seg"),
        ("ntr", "det"), ("ntr", "seg"), ("visionx", "seg"), ("visionx", "det"),
    ])
    def test_fused_output_revalidates(self, workspace, preset, task):
        root, gt, det, seg = workspace
        out = root / f"fused_{preset}_{task}.json"
        code = run(["fuse", gt, seg, det, "--preset", preset, "--task", task,
                    "--out", out])
        assert code == 0
        report = root / f"validate_{preset}_{task}.json"
        assert run(["validate", gt, out, "--task", task, "--out", report]) == 0
        counts = json.loads(report.read_text())["counts"]
        assert counts["instances_dropped"] == 0
        assert counts["instances_seen"] == len(json.loads(out.read_text()))

    def test_preset_config_file(self, workspace):
        root, gt, det, seg = workspace
        cfg = write_json_file(root / "pipeline.json",
                              {"preset": "sigmoid", "params": {"seg_conf": 0.01}})
        out = root / "fused_cfg.json"
        code = run(["fuse", gt, seg, det, "--preset", cfg, "--task", "seg",
                    "--out", out])
        assert code == 0
        manifest = json.loads(out.with_suffix(".manifest.json").read_text())
        assert manifest["config"]["preset"] == "sigmoid"
        assert manifest["config"]["params"]["seg_conf"] == 0.01

    @pytest.mark.parametrize("config", [
        [], "sigmoid", {"params": [1]}, {"params": [["seg_conf", 0.2]]}, {"preset": 5},
        {"preset": []}, {"preset": {}},
    ], ids=["array", "string", "params-array", "params-pairs", "preset-number",
            "preset-array", "preset-object"])
    def test_malformed_preset_config_exit_3(self, workspace, capsys, config):
        root, gt, det, _ = workspace
        cfg = write_json_file(root / "pipeline.json", config)
        assert run(["fuse", gt, det, "--preset", cfg, "--task", "det",
                    "--out", root / "x.json"]) == 3
        err = capsys.readouterr().err
        assert "configuration error" in err and "Traceback" not in err
        assert not (root / "x.json").exists()

    @pytest.mark.parametrize("config,sets", [
        ({"preset": "ntr"}, ["open_kernel=5.0"]),
        ({"preset": "sigmoid", "params": {"seg_conf": "0.2"}}, []),
        ({"preset": "ntr", "params": {"open_iterations": True}}, []),
        ({"preset": "sigmoid", "params": {"wbf_iou": False}}, []),
        ({"preset": "sigmoid"}, ["eps_ratio=nan"]),
        ({"preset": "sigmoid"}, ["eps_ratio=inf"]),
        ({"preset": "sigmoid"}, ["w_seg=1" + "0" * 400]),
        ({"preset": "sigmoid"}, ["eps_ratio=-0.1"]),
        ({"preset": "ntr"}, ["open_kernel=4"]),
        ({"preset": "sigmoid"}, ["close_kernel=0"]),
        ({"preset": "visionx"}, ["refine_kernel=-3"]),
        ({"preset": "ntr"}, ["open_iterations=0"]),
        ({"preset": "sigmoid"}, ["iou_gate=1.5"]),
        ({"preset": "uno"}, ["ensemble_min_area=-1"]),
    ], ids=["float-for-int", "string-for-float", "bool-for-int", "bool-for-float",
            "nan-float", "inf-float", "int-past-float-range", "negative-eps-ratio",
            "even-kernel", "zero-kernel", "negative-kernel", "zero-iterations",
            "above-unit-interval", "negative-area-floor"])
    def test_mistyped_parameter_exit_3(self, workspace, capsys, config, sets):
        root, gt, det, seg = workspace
        cfg = write_json_file(root / "pipeline.json", config)
        argv = ["fuse", gt, seg, det, "--preset", cfg, "--task", "seg",
                "--out", root / "x.json"]
        for pair in sets:
            argv += ["--set", pair]
        assert run(argv) == 3
        assert "configuration error" in capsys.readouterr().err
        assert not (root / "x.json").exists()

    @pytest.mark.parametrize("preset,inputs,needs", [
        ("uno", "det", "segmentation"), ("visionx", "det", "segmentation"),
        ("sigmoid", "det", "segmentation"), ("kmg", "seg", "detection"),
    ])
    def test_missing_input_task_exit_3(self, workspace, capsys, preset, inputs, needs):
        root, gt, det, seg = workspace
        assert run(["fuse", gt, det if inputs == "det" else seg, "--preset", preset,
                    "--task", "seg", "--out", root / "x.json"]) == 3
        assert (f"configuration error: preset {preset!r} requires {needs} inputs"
                in capsys.readouterr().err)
        assert not (root / "x.json").exists()

    @pytest.mark.parametrize("preset", PRESETS)
    def test_segmentation_output_without_segmentation_input_exit_3(self, workspace, capsys,
                                                                    preset):
        root, gt, det, _ = workspace
        assert run(["fuse", gt, det, "--preset", preset, "--task", "seg",
                    "--out", root / "x.json"]) == 3
        assert "configuration error" in capsys.readouterr().err
        assert not (root / "x.json").exists()

    def test_detection_output_without_detection_input_exit_3(self, workspace, capsys):
        root, gt, _, seg = workspace
        assert run(["fuse", gt, seg, "--preset", "identity", "--task", "det",
                    "--out", root / "x.json"]) == 3
        assert ("configuration error: preset 'identity' requires detection inputs"
                in capsys.readouterr().err)
        assert not (root / "x.json").exists()

    def test_zero_ensemble_threshold_exit_3(self, workspace, capsys):
        root, gt, _, seg = workspace
        assert run(["fuse", gt, seg, "--preset", "uno", "--set", "ensemble_threshold=0",
                    "--out", root / "x.json"]) == 3
        assert "configuration error: ensemble_threshold" in capsys.readouterr().err
        assert not (root / "x.json").exists()

    @pytest.mark.parametrize("preset", ["kmg", "sigmoid"])
    @pytest.mark.parametrize("name", ["merge_iou", "merge_ioa", "cross_iou"])
    def test_zero_merge_threshold_exit_3(self, workspace, capsys, preset, name):
        root, gt, det, seg = workspace
        assert run(["fuse", gt, seg, det, "--preset", preset, "--set", f"{name}=0",
                    "--task", "seg", "--out", root / "x.json"]) == 3
        assert f"configuration error: {name} must lie in (0, 1]" in capsys.readouterr().err
        assert not (root / "x.json").exists()

    @pytest.mark.parametrize("text", [
        '{"preset": "kmg", "params": {"merge_iou": ' + "[" * 100_000 + "]" * 100_000 + "}}",
        '{"preset": "kmg", ',
    ], ids=["nested-too-deep", "not-json"])
    def test_unparsable_preset_config_exit_3(self, workspace, capsys, text):
        root, gt, det, _ = workspace
        cfg = root / "pipeline.json"
        cfg.write_text(text, encoding="utf-8")
        assert run(["fuse", gt, det, "--preset", cfg, "--task", "det",
                    "--out", root / "x.json"]) == 3
        err = capsys.readouterr().err
        assert f"configuration error: {cfg}: " in err and "Traceback" not in err
        assert not (root / "x.json").exists()

    def test_sigmoid_collapsing_simplification_exit_0(self, workspace):
        root, gt, det, seg = workspace
        out = root / "collapsed.json"
        assert run(["fuse", gt, seg, det, "--preset", "sigmoid", "--task", "seg",
                    "--set", "eps_ratio=0.9", "--out", out]) == 0
        assert run(["validate", gt, out, "--task", "seg"]) == 0

    def test_ntr_paints_no_frame_on_a_huge_image(self, tmp_path):
        """ntr opens each polygon on its own window: one full frame here
        would take 931 GiB, far past the child's 4 GiB address space."""
        square = [10, 10, 20, 20]
        gt = write_json_file(tmp_path / "gt.json", make_gt([image(1, 10**6, 10**6)],
                                                           [annotation(1, 1, square)]))
        seg = write_json_file(tmp_path / "seg.json",
                              [seg_pred(1, 0.9, [[10, 10, 30, 10, 30, 30, 10, 30]])])
        det = write_json_file(tmp_path / "det.json", [det_pred(1, 0.9, square)])
        out = tmp_path / "fused.json"

        def limit_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))

        src = str(Path(detsegeval.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-m", "detsegeval.cli", "fuse", gt, seg, det,
                               "--preset", "ntr", "--task", "seg", "--out", out],
                              env=dict(os.environ, PYTHONPATH=src), preexec_fn=limit_address_space,
                              capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert [e["segmentation"] for e in json.loads(out.read_text())] == \
               [[[10.0, 10.0, 30.0, 10.0, 30.0, 30.0, 10.0, 30.0]]]

    def test_set_overrides_preset_file(self, workspace):
        root, gt, det, seg = workspace
        cfg = write_json_file(root / "pipeline.json",
                              {"preset": "sigmoid", "params": {"seg_conf": 0.5}})
        out = root / "fused_cfg2.json"
        code = run(["fuse", gt, seg, det, "--preset", cfg, "--task", "seg",
                    "--set", "seg_conf=0.02", "--out", out])
        assert code == 0
        manifest = json.loads(out.with_suffix(".manifest.json").read_text())
        assert manifest["config"]["params"]["seg_conf"] == 0.02


class TestLeaderboard:
    def test_single_submission(self, workspace, capsys):
        root, gt, det, _ = workspace
        subs = root / "subs"
        subs.mkdir()
        (subs / "team_a.json").write_text(det.read_text())
        code = run(["leaderboard", gt, subs, "--task", "det", "--out", root / "lb"])
        assert code == 0
        csv = (root / "lb" / "leaderboard.csv").read_text()
        assert csv.splitlines()[1].startswith("1,team_a,")

    def test_no_submissions_exit_2(self, workspace, capsys):
        root, gt, _, _ = workspace
        subs = root / "subs_none"
        subs.mkdir()
        (subs / "notes.txt").write_text("not a submission")
        assert run(["leaderboard", gt, subs, "--task", "det", "--out", root / "lb0"]) == 2
        assert "no submissions found" in capsys.readouterr().err
        assert not (root / "lb0").exists()

    def test_pipe_in_name_stays_in_its_cell(self, workspace):
        root, gt, det, _ = workspace
        subs = root / "subs_pipe"
        subs.mkdir()
        (subs / "team|a.json").write_text(det.read_text())
        assert run(["leaderboard", gt, subs, "--task", "det", "--out", root / "lbp"]) == 0
        assert run(["score", gt, subs / "team|a.json", "--task", "det",
                    "--out", root / "sp"]) == 0
        for table in (root / "lbp" / "leaderboard.md", root / "sp" / "report.md"):
            header, _, row = table.read_text().splitlines()
            cells = re.split(r"(?<!\\)\|", row)[1:-1]
            assert len(cells) == len(header.split("|")) - 2
            assert r"team\|a" in cells[-6]

    def test_perfect_beats_empty(self, workspace):
        root, gt, det, _ = workspace
        subs = root / "subs2"
        subs.mkdir()
        (subs / "good.json").write_text(det.read_text())
        (subs / "empty.json").write_text("[]")
        code = run(["leaderboard", gt, subs, "--task", "det", "--out", root / "lb2"])
        assert code == 0
        lines = (root / "lb2" / "leaderboard.csv").read_text().splitlines()
        assert lines[1] == "1,good,100.00,100.00,100.00,100.00,100.00"
        assert lines[2] == "2,empty,0.00,0.00,0.00,0.00,0.00"

    def test_three_engineered_submissions_match_reference_ranking(self, workspace):
        import reference_impl as ref
        root, gt, det, _ = workspace
        gt_obj = json.loads(gt.read_text())
        subs = root / "subs_rank"
        subs.mkdir()
        submissions = {
            "exact": [det_pred(1, 0.9, [8, 8, 24, 24]),
                      det_pred(2, 0.9, [10, 12, 30, 30])],
            "shifted": [det_pred(1, 0.9, [12, 8, 24, 24]),
                        det_pred(2, 0.9, [14, 12, 30, 30])],
            "noisy": [det_pred(1, 0.9, [8, 8, 24, 24]),
                      det_pred(1, 0.8, [40, 40, 10, 10]),
                      det_pred(2, 0.7, [50, 2, 10, 10])],
        }
        finals = {}
        for name, items in submissions.items():
            write_json_file(subs / f"{name}.json", items)
            finals[name] = ref.evaluate(gt_obj, items, "detection")["final"]
        expected_order = sorted(finals, key=lambda n: -finals[n])
        assert run(["leaderboard", gt, subs, "--task", "det",
                    "--out", root / "lb_rank"]) == 0
        lines = (root / "lb_rank" / "leaderboard.csv").read_text().splitlines()[1:]
        got_order = [line.split(",")[1] for line in lines]
        assert got_order == expected_order
        got_finals = [float(line.split(",")[-1]) for line in lines]
        assert got_finals == [round(finals[n], 2) for n in expected_order]

    def test_invalid_submission_named(self, workspace, capsys):
        root, gt, det, _ = workspace
        subs = root / "subs3"
        subs.mkdir()
        (subs / "ok.json").write_text(det.read_text())
        (subs / "broken.json").write_text(
            json.dumps([det_pred(1, 7.0, [1, 1, 4, 4])]))
        code = run(["leaderboard", gt, subs, "--task", "det", "--out", root / "lb3"])
        assert code == 2
        assert "broken" in capsys.readouterr().err

    def test_every_invalid_submission_named(self, workspace, capsys):
        root, gt, det, _ = workspace
        subs = root / "subs4"
        subs.mkdir()
        (subs / "a.json").write_text(det.read_text())
        (subs / "b.json").write_text(json.dumps([det_pred(1, 7.0, [1, 1, 4, 4])]))
        (subs / "c.json").write_text(json.dumps({"not": "an array"}))
        code = run(["leaderboard", gt, subs, "--task", "det", "--out", root / "lb4"])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert [line.split(":")[0] for line in err] == \
               ["invalid submission b.json", "invalid submission c.json"]
        assert not (root / "lb4").exists()


class TestGenFixture:
    def test_same_seed_byte_identical(self, tmp_path):
        assert run(["gen-fixture", "--seed", 5, "--images", 4,
                    "--out", tmp_path / "a"]) == 0
        assert run(["gen-fixture", "--seed", 5, "--images", 4,
                    "--out", tmp_path / "b"]) == 0
        for name in ("gt.json", "pred_det.json", "pred_seg.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                   (tmp_path / "b" / name).read_bytes()

    @pytest.mark.parametrize("option,value,name", [
        ("--images", -3, "n_images"), ("--max-instances", -1, "max_instances"),
        ("--perturbation", "nan", "perturbation"), ("--perturbation", "inf", "perturbation"),
        ("--perturbation", -0.5, "perturbation")])
    def test_bad_argument_named_exit_3(self, tmp_path, capsys, option, value, name):
        assert run(["gen-fixture", "--seed", 1, option, value, "--out", tmp_path / "bad"]) == 3
        assert f"configuration error: {name} must be" in capsys.readouterr().err
        assert not (tmp_path / "bad").exists()

    @pytest.mark.parametrize("min_size,max_size", [(0, 8), (7, 16), (64, 32)])
    def test_bad_size_range_rejected(self, min_size, max_size):
        with pytest.raises(ValueError, match="8 <= min_size <= max_size"):
            generate_fixture(1, min_size=min_size, max_size=max_size)

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(seed=st.integers(0, 2 ** 32), min_size=st.integers(8, 48),
           extra=st.integers(0, 48), perturbation=st.floats(0, 5))
    @example(seed=1, min_size=64, extra=64, perturbation=1.0)  # gen-fixture's sizes
    def test_output_always_validates(self, tmp_path_factory, seed, min_size, extra,
                                     perturbation):
        fx = generate_fixture(seed, perturbation=perturbation, min_size=min_size,
                              max_size=min_size + extra)
        ds = load_ground_truth(write_json_file(
            tmp_path_factory.getbasetemp() / "property_gt.json", fx["gt"]))
        for task, key in (("detection", "det"), ("segmentation", "seg")):
            assert parse_predictions(fx[key], ds, task)[1].errors == []

    def test_size_zero_valid_empty_dataset(self, tmp_path):
        assert run(["gen-fixture", "--seed", 1, "--images", 0,
                    "--out", tmp_path / "z"]) == 0
        ds = load_ground_truth(tmp_path / "z" / "gt.json")
        assert len(ds.images) == 0 and len(ds.instances) == 0

    def test_zero_perturbation_predictions_equal_gt(self, tmp_path, capsys):
        assert run(["gen-fixture", "--seed", 2, "--images", 6,
                    "--perturbation", 0, "--out", tmp_path / "p0"]) == 0
        gt = json.loads((tmp_path / "p0" / "gt.json").read_text())
        det = json.loads((tmp_path / "p0" / "pred_det.json").read_text())
        assert len(det) == len(gt["annotations"])
        for pred, ann in zip(det, gt["annotations"]):
            assert pred["score"] == 1.0
            assert pred["bbox"] == ann["bbox"]
            assert pred["image_id"] == ann["image_id"]
        code = run(["score", tmp_path / "p0" / "gt.json",
                    tmp_path / "p0" / "pred_det.json",
                    "--task", "det", "--out", tmp_path / "p0" / "scores"])
        assert code == 0
        assert "final=100.00" in capsys.readouterr().out

    def test_generated_fixture_scores_end_to_end(self, tmp_path, capsys):
        assert run(["gen-fixture", "--seed", 11, "--images", 8,
                    "--out", tmp_path / "fx"]) == 0
        code = run(["score", tmp_path / "fx" / "gt.json",
                    tmp_path / "fx" / "pred_seg.json",
                    "--task", "seg", "--out", tmp_path / "fx" / "scores"])
        assert code == 0
