import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import detsegeval
from detsegeval.cli import main
from detsegeval.fusion import PRESETS
from conftest import annotation, det_pred, image, make_gt, seg_pred, write_json_file


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
        assert "annotations[0] (id=1): degenerate bbox" in capsys.readouterr().err

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

    def test_missing_file_exit_1(self, workspace):
        _, gt, _, _ = workspace
        assert run(["validate", gt, "/nonexistent/p.json"]) == 1


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
        assert run(["validate", gt, out, "--task", task]) == 0

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
    ], ids=["array", "string", "params-array", "params-pairs", "preset-number"])
    def test_malformed_preset_config_exit_3(self, workspace, capsys, config):
        root, gt, det, _ = workspace
        cfg = write_json_file(root / "pipeline.json", config)
        assert run(["fuse", gt, det, "--preset", cfg, "--task", "det",
                    "--out", root / "x.json"]) == 3
        assert "configuration error" in capsys.readouterr().err
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
    ], ids=["float-for-int", "string-for-float", "bool-for-int", "bool-for-float",
            "nan-float", "inf-float", "int-past-float-range", "negative-eps-ratio",
            "even-kernel", "zero-kernel", "negative-kernel", "zero-iterations"])
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

    def test_sigmoid_collapsing_simplification_exit_0(self, workspace):
        root, gt, det, seg = workspace
        out = root / "collapsed.json"
        assert run(["fuse", gt, seg, det, "--preset", "sigmoid", "--task", "seg",
                    "--set", "eps_ratio=0.9", "--out", out]) == 0
        assert run(["validate", gt, out, "--task", "seg"]) == 0

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

    def test_size_zero_valid_empty_dataset(self, tmp_path):
        assert run(["gen-fixture", "--seed", 1, "--images", 0,
                    "--out", tmp_path / "z"]) == 0
        from detsegeval.coco import load_ground_truth
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
