"""detsegeval benchmark: drives the real CLI on seeded synthetic fixtures.

Run from the root of a source checkout:

    python3 detsegbench/run.py --workload det-boxes --seed 1 --seconds 30 --trace 0
    python3 detsegbench/run.py --workload all          # every workload, one process each

For one workload the script writes the seeded fixture (untimed), then
runs the workload's command sequence in a fresh child process
(``measure.py``) for ``--seconds``.  Every op's outputs are hashed and
checked: against the digests recorded in ``digests.json`` when the seed
has them, and against seed-independent checks (``workloads.py``) always.
An op that raises, exits non-zero or produces wrong output is counted in
``failed``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

Raw samples, the environment record and metrics go to
``.benchwork/results/``; the spans of the last traced round go to
``.benchwork/traces/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".benchwork"
DIGESTS = BENCH / "digests.json"
DEFAULT_SEED = 1
HELD_OUT_SEED = 1001
RUN_LIMIT_S = 170

sys.path.insert(0, str(SRC))

from workloads import WORKLOADS, check_op, digest, write_fixture  # noqa: E402

END_TO_END_UNITS = {"setup_s": "s", "validate_img_per_s": "img/s",
                    "score_img_per_s": "img/s", "mix_img_per_s": "img/s",
                    "peak_rss_mb": "MB"}

PRESETS = ("kmg", "ntr", "sigmoid", "uno", "visionx")
_TIMED_LAYERS = (
    ["coco.json_parse", "coco.load_ground_truth", "coco.load_predictions",
     "coco.parse_predictions", "coco.write_json", "geometry.rasterize",
     "geometry.mask_iou", "geometry.box_iou", "geometry.morphology",
     "geometry.connected_components", "geometry.trace_largest_contour",
     "geometry.simplify_polygon", "metrics.evaluate", "fusion.refine_segmentation",
     "fusion.weighted_box_fusion", "fusion.merge_boxes_iou_ioa",
     "fusion.cross_model_merge", "fusion.average_mask_ensemble",
     "fusion.soft_mask_merge", "fusion.fuse_seg_det_scores"]
    + [f"fusion.run_preset.{p}" for p in PRESETS])
_CALL_COUNTED = ("geometry.rasterize", "geometry.mask_iou", "geometry.box_iou",
                 "geometry.morphology", "geometry.connected_components",
                 "geometry.trace_largest_contour", "geometry.simplify_polygon")
_COUNTERS = {  # metric name -> (span name, counter key)
    "coco.instances_seen": ("coco.parse_predictions", "instances_seen"),
    "coco.instances_dropped": ("coco.parse_predictions", "instances_dropped"),
    "coco.write_json_bytes": ("coco.write_json", "bytes"),
    "geometry.rasterize_pixels": ("geometry.rasterize", "pixels"),
    "geometry.rasterize_set_pixels": ("geometry.rasterize", "set_pixels"),
    "geometry.morphology_pixels": ("geometry.morphology", "pixels"),
    "geometry.connected_components_components": ("geometry.connected_components",
                                                 "components"),
    "geometry.trace_largest_contour_vertices": ("geometry.trace_largest_contour",
                                                "vertices"),
    "geometry.simplify_polygon_vertices_in": ("geometry.simplify_polygon", "vertices_in"),
    "geometry.simplify_polygon_vertices_out": ("geometry.simplify_polygon",
                                               "vertices_out"),
    "metrics.iou_pairs": ("metrics.evaluate", "iou_pairs"),
    "metrics.threshold_passes": ("metrics.evaluate", "threshold_passes"),
    "fusion.weighted_box_fusion_boxes_in": ("fusion.weighted_box_fusion", "boxes_in"),
    "fusion.weighted_box_fusion_boxes_out": ("fusion.weighted_box_fusion", "boxes_out"),
}
_RATIOS = {  # metric name -> (span name, numerator key, denominator key or "calls")
    "geometry.rasterize_useful_ratio": ("geometry.rasterize", "set_pixels", "pixels"),
    "geometry.mask_iou_zero_frac": ("geometry.mask_iou", "zero", "calls"),
    "fusion.refine_segmentation_none_frac": ("fusion.refine_segmentation", "none", "calls"),
}


def _metric_name(span: str) -> str:
    return span.replace("fusion.run_preset.", "fusion.run_preset_")


def per_layer_names() -> list[str]:
    return [*layer_metrics({}, 1.0), "trace.overhead_pct"]


def per_layer_unit(name: str) -> str:
    if name.endswith("_pct"):
        return "%"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("pixels"):
        return "px"
    return "count"


def layer_metrics(layers: dict, wall: float) -> dict:
    """Per-layer values of one traced round; times as % of its wall time."""
    def get(span, key):
        return layers.get(span, {}).get(key, 0)

    out = {}
    for span in _TIMED_LAYERS:
        out[f"{_metric_name(span)}_pct"] = 100 * get(span, "s") / wall
        if span == "metrics.evaluate" or span.startswith("fusion.run_preset."):
            out[f"{_metric_name(span)}_self_pct"] = 100 * get(span, "self_s") / wall
    for span in _CALL_COUNTED:
        out[f"{span}_calls"] = get(span, "calls")
    for name, (span, key) in _COUNTERS.items():
        out[name] = get(span, key)
    for name, (span, num, den) in _RATIOS.items():
        d = get(span, den)
        out[name] = get(span, num) / d if d else 0.0
    out["cli.self_pct"] = 100 * get("cli.main", "self_s") / wall
    # The cli.main span holds every layer span plus cli.self; this is the
    # share of the bench-measured op wall time the spans account for.
    out["trace.accounted_pct"] = 100 * get("cli.main", "s") / wall
    return out


def environment() -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    h = hashlib.sha256()
    for path in sorted((SRC / "detsegeval").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_sha": sha, "src_sha256": h.hexdigest(), "nproc": os.cpu_count()}


def recorded_digests(workload: str, seed: int) -> dict | None:
    if not DIGESTS.exists():
        return None
    return json.loads(DIGESTS.read_text(encoding="utf-8")).get(workload, {}).get(str(seed))


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 deadline: float, expected: dict | None) -> dict:
    workload = WORKLOADS[name]
    work = WORK / f"{name}-s{seed}-t{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        sizes = write_fixture(workload, seed, work)
        ops = workload.ops(work)
        (WORK / "traces").mkdir(parents=True, exist_ok=True)
        spec = {"src": str(SRC), "seconds": seconds, "trace": trace,
                "spans_out": str(WORK / "traces" / f"{name}-seed{seed}.jsonl.gz"),
                "ops": [{"name": op.name, "argv": list(op.argv), "outputs": list(op.outputs)}
                        for op in ops]}
        (work / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
        subprocess.run([sys.executable, str(BENCH / "measure.py"), str(work / "spec.json"),
                        str(work / "result.json")], cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL,
                       timeout=max(1.0, deadline - time.monotonic()))
        child = json.loads((work / "result.json").read_text(encoding="utf-8"))
        failures, references = judge(child["rounds"], ops, work, workload.task, expected)
        score = next(op for op in ops if op.name == "score")
        manifest = Path(score.outputs[0]).parent / "manifest.json"
        jobs = (json.loads(manifest.read_text(encoding="utf-8"))["config"]["jobs"]
                if manifest.exists() else None)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {"workload": name, "seed": seed, "trace": trace, "sizes": sizes,
            "child": child, "failures": failures,
            "digests": references, "images": {op.name: op.images for op in ops},
            "env": {**environment(), **child["versions"], "cli_jobs": jobs}}


def judge(rounds: list, ops: list, work: Path, task: str,
          expected: dict | None) -> tuple[list[str], dict]:
    """Return one message per failed op execution, and each op's digest."""
    failures: list[str] = []
    references: dict[str, str] = {}
    for k, op in enumerate(ops):
        runs = [r["ops"][k] for r in rounds]
        reference = next((r["digest"] for r in runs if r["digest"]), None)
        references[op.key] = reference
        problems: list[str] = []
        if reference is None:
            problems.append("no run produced output")
        elif expected is not None and expected.get(op.key) != reference:
            problems.append("digest differs from the recorded one")
        elif digest(op.outputs) != reference:
            problems.append("outputs on disk differ from the run's digest")
        else:
            problems += check_op(op, work, task)
        for i, run in enumerate(runs):
            why = run["error"] or ("output differs between rounds"
                                   if run["digest"] != reference else "")
            why = why or "; ".join(problems)
            if why:
                failures.append(f"{op.key} round {i}: {why.strip()}")
    return failures, references


def median(values):
    return statistics.median(values) if values else 0.0


def metrics_of(result: dict) -> dict:
    rounds = result["child"]["rounds"]
    images = result["images"]
    if not result["trace"]:
        # Throughput is work done per second over the whole run.  This
        # machine's CPU speed switches between regimes lasting seconds to
        # minutes; a per-run median snaps to one regime, a run total
        # averages over them, and measured steadier across seeds.
        def rate(names):
            ops = [op for r in rounds for op in r["ops"] if op["name"] in names]
            return sum(images[op["name"]] for op in ops) / sum(op["seconds"] for op in ops)
        values = {"setup_s": median(result["child"]["setup_samples"]),
                  "validate_img_per_s": rate({"validate"}),
                  "score_img_per_s": rate({"score"}),
                  "mix_img_per_s": rate(set(images)),
                  "peak_rss_mb": result["child"]["maxrss_kb"] / 1024}
        return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds[1:] if not r["traced"]]  # round 0 warms the process
    walls = [sum(op["seconds"] for op in r["ops"]) for r in traced]
    per_round = [layer_metrics(r["layers"], w) for r, w in zip(traced, walls)]
    values = {name: median([m[name] for m in per_round]) for name in per_round[0]}
    plain_wall = median([sum(op["seconds"] for op in r["ops"]) for r in plain])
    values["trace.overhead_pct"] = 100 * (median(walls) / plain_wall - 1)
    return {name: {"value": values[name], "unit": per_layer_unit(name)}
            for name in per_layer_names()}


def report(result: dict) -> dict:
    """Print the human-readable lines and return the result object."""
    rounds = result["child"]["rounds"]
    attempted = sum(len(r["ops"]) for r in rounds)
    failed = len(result["failures"])
    metrics = metrics_of(result)
    print(f"env {json.dumps(result['env'], sort_keys=True)}")
    print(f"workload {result['workload']} seed {result['seed']} sizes "
          f"{json.dumps(result['sizes'])} rounds {len(rounds)}")
    for op_name, n in result["images"].items():
        times = [op["seconds"] for r in rounds if not r["traced"]
                 for op in r["ops"] if op["name"] == op_name]
        print(f"  op {op_name:<13} median {median(times):8.4f} s over {len(times)} runs "
              f"({n} images)")
    for message in result["failures"][:20]:
        print(f"  FAILED {message}")
    print(f"  failed_frac {failed / attempted:.4f} ({failed} of {attempted} ops)")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def save(result: dict, summary: dict) -> None:
    out = WORK / "results"
    out.mkdir(parents=True, exist_ok=True)
    name = f"{result['workload']}-seed{result['seed']}-trace{int(result['trace'])}.json"
    record = {k: v for k, v in result.items() if k != "child"}
    record["rounds"] = [{"traced": r["traced"], "ops": r["ops"]} for r in result["child"]["rounds"]]
    record["maxrss_kb"] = result["child"]["maxrss_kb"]
    record["summary"] = summary
    (out / name).write_text(json.dumps(record, indent=1), encoding="utf-8")


def run_all(args) -> int:
    """Run every workload in its own process and print all metrics."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload",
                               name, "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              cwd=ROOT, capture_output=True, text=True, timeout=RUN_LIMIT_S + 10)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def record(args) -> int:
    """Write digests.json from the default and held-out seeds' outputs.

    Only for an intended change of output bytes; a run whose outputs fail
    the seed-independent checks records nothing.
    """
    table: dict = {}
    for name in WORKLOADS:
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            result = run_workload(name, seed, 0, False, time.monotonic() + RUN_LIMIT_S, None)
            if result["failures"]:
                print("\n".join(result["failures"]), file=sys.stderr)
                return 1
            table.setdefault(name, {})[str(seed)] = result["digests"]
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {DIGESTS}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="rewrite digests.json for the default and held-out seeds")
    args = parser.parse_args()
    started = time.monotonic()
    if not (SRC / "detsegeval" / "cli.py").is_file():
        print(f"error: no detsegeval source tree at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.record_digests:
        return record(args)
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          started + RUN_LIMIT_S, recorded_digests(args.workload, args.seed))
    summary = report(result)
    save(result, summary)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
