"""Command-line front end.

Subcommands: ``validate``, ``score``, ``fuse``, ``leaderboard``,
``gen-fixture``.  Exit codes form a stable contract: 0 success, 1 I/O
failure, 2 validation/scoring input failure, 3 configuration failure.
Every scoring/fusion output is accompanied by a run manifest (tool
version, command, resolved configuration, input digests, timestamp).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import gc
import hashlib
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .coco import (
    DETECTION,
    SEGMENTATION,
    load_ground_truth,
    load_predictions,
    parse_predictions,
    payload_task,
    read_predictions,
    to_json,
    write_json,
)
from .errors import CocoFormatError, UnknownPresetError
from .fixtures import generate_fixture
from .fusion import PRESETS, preset_params, run_preset
from .metrics import (
    BETAS,
    HEADLINE_THRESHOLD,
    THRESHOLDS,
    evaluate,
    leaderboard,
    leaderboard_csv,
    leaderboard_markdown,
)

_TASKS = {"det": DETECTION, "detection": DETECTION,
          "seg": SEGMENTATION, "segmentation": SEGMENTATION}


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(path, command: list[str], config: dict, inputs: list) -> None:
    manifest = {
        "tool": "detsegeval",
        "version": __version__,
        "command": command,
        "config": config,
        "inputs": {str(p): _sha256(p) for p in inputs},
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    write_json(manifest, path)


def _parse_set_values(pairs: list[str]) -> dict:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"--set expects key=value, got {pair!r}")
        key, raw = pair.split("=", 1)
        try:
            value: object = int(raw)
        except ValueError:
            try:
                value = float(raw)
            except ValueError:
                raise ValueError(f"--set {key}: value {raw!r} is not a number")
        out[key] = value
    return out


def cmd_validate(args) -> int:
    dataset = load_ground_truth(args.ground_truth)
    _, report = parse_predictions(args.predictions, dataset, _TASKS[args.task])
    payload = report.to_dict()
    payload["mode"] = "lenient" if args.lenient else "strict"
    if args.out:
        write_json(payload, args.out)
    else:
        sys.stdout.write(to_json(payload) + "\n")
    if report.errors and not args.lenient:
        return 2
    return 0


def cmd_score(args) -> int:
    dataset = load_ground_truth(args.ground_truth)
    task = _TASKS[args.task]
    preds = load_predictions(args.predictions, dataset, task, lenient=args.lenient)
    report = evaluate(dataset, preds)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_json(report, out_dir / "report.json")
    (out_dir / "report.md").write_text(report.to_markdown(Path(args.predictions).stem),
                                       encoding="utf-8")
    _write_manifest(
        out_dir / "manifest.json",
        ["score", str(args.ground_truth), str(args.predictions)],
        # Scoring is serial; "jobs" stays for readers of the manifest.
        {"task": task, "lenient": args.lenient, "jobs": 1,
         "betas": list(BETAS), "headline_threshold": HEADLINE_THRESHOLD,
         "thresholds": list(THRESHOLDS)},
        [args.ground_truth, args.predictions],
    )

    pct = HEADLINE_THRESHOLD * 100
    lo, hi = THRESHOLDS[0] * 100, THRESHOLDS[-1] * 100
    print(f"F1[{pct:.0f}]={report.f1_headline:.2f}  "
          f"F1[{lo:.0f}:{hi:.0f}]={report.f1_range:.2f}  "
          f"F2[{pct:.0f}]={report.f2_headline:.2f}  "
          f"F2[{lo:.0f}:{hi:.0f}]={report.f2_range:.2f}  "
          f"final={report.final:.2f}")
    return 0


def _resolve_preset(args) -> tuple[str, object]:
    """--preset accepts a preset name or a JSON config file naming one."""
    name = args.preset
    overrides: dict = {}
    if name.endswith(".json") and Path(name).exists():
        with open(name, "r", encoding="utf-8") as fh:
            try:
                config = json.load(fh)
            except (ValueError, RecursionError) as exc:  # not JSON, or nested too deep
                raise ValueError(f"{name}: {exc}") from exc
        if not (isinstance(config, dict) and isinstance(config.get("params", {}), dict)):
            raise ValueError(f"{name}: a preset config must be a JSON object whose "
                             "'params' is an object")
        name = config.get("preset", "identity")
        overrides.update(config.get("params", {}))
    overrides.update(_parse_set_values(args.set or []))
    return name, preset_params(name, overrides)


def cmd_fuse(args) -> int:
    preset, params = _resolve_preset(args)
    dataset = load_ground_truth(args.ground_truth)
    task = _TASKS[args.task]
    inputs = []
    for path in args.inputs:
        items = read_predictions(path)
        inputs.append(load_predictions(items, dataset, payload_task(items, task),
                                       lenient=args.lenient))
    fused = run_preset(preset, dataset, inputs, task, params)
    write_json(fused, args.out)
    _write_manifest(
        Path(args.out).with_suffix(".manifest.json"),
        ["fuse", str(args.ground_truth)] + [str(p) for p in args.inputs],
        {"preset": preset, "task": task, "params": dataclasses.asdict(params)},
        [args.ground_truth] + list(args.inputs),
    )
    return 0


def cmd_leaderboard(args) -> int:
    dataset = load_ground_truth(args.ground_truth)
    task = _TASKS[args.task]
    submissions = sorted(Path(args.submissions).glob("*.json"))
    if not submissions:
        print(f"no submissions found in {args.submissions}", file=sys.stderr)
        return 2
    loaded = []
    for path in submissions:
        try:
            loaded.append((path.stem, load_predictions(path, dataset, task,
                                                       lenient=args.lenient)))
        except CocoFormatError as exc:
            print(f"invalid submission {path.name}: {exc}", file=sys.stderr)
    if len(loaded) < len(submissions):
        return 2
    ranked = leaderboard([(name, evaluate(dataset, preds)) for name, preds in loaded])
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "leaderboard.csv").write_text(leaderboard_csv(ranked), encoding="utf-8")
    markdown = leaderboard_markdown(ranked)
    (out_dir / "leaderboard.md").write_text(markdown, encoding="utf-8")
    print(markdown, end="")
    return 0


def cmd_gen_fixture(args) -> int:
    fixture = generate_fixture(
        seed=args.seed,
        n_images=args.images,
        max_instances=args.max_instances,
        perturbation=args.perturbation,
    )
    out_dir = Path(args.out)
    write_json(fixture["gt"], out_dir / "gt.json")
    write_json(fixture["det"], out_dir / "pred_det.json")
    write_json(fixture["seg"], out_dir / "pred_seg.json")
    print(f"wrote fixture (seed={args.seed}, images={args.images}) to {out_dir}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by the later
    ones: building it takes about a millisecond and leaves cyclic
    garbage, and parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="detsegeval",
        description="Validate, score and fuse single-class COCO detection "
                    "and instance-segmentation predictions.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a prediction file against a dataset")
    p.add_argument("ground_truth")
    p.add_argument("predictions")
    p.add_argument("--task", choices=sorted(_TASKS), default="det")
    p.add_argument("--lenient", action="store_true")
    p.add_argument("--out", default=None, help="write the report JSON here")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("score", help="compute the composite F1/F2 report")
    p.add_argument("ground_truth")
    p.add_argument("predictions")
    p.add_argument("--task", choices=sorted(_TASKS), default="det")
    p.add_argument("--lenient", action="store_true")
    p.add_argument("--out", default="scores")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("fuse", help="run a post-processing/ensemble pipeline")
    p.add_argument("ground_truth")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--preset", default="identity",
                   help=f"one of {', '.join(PRESETS)} or a JSON config file")
    p.add_argument("--task", choices=sorted(_TASKS), default="seg")
    p.add_argument("--lenient", action="store_true")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a fusion parameter")
    p.add_argument("--out", default="fused.json")
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("leaderboard", help="rank a directory of submissions")
    p.add_argument("ground_truth")
    p.add_argument("submissions", help="directory of prediction JSON files")
    p.add_argument("--task", choices=sorted(_TASKS), default="det")
    p.add_argument("--lenient", action="store_true")
    p.add_argument("--out", default="leaderboard")
    p.set_defaults(func=cmd_leaderboard)

    p = sub.add_parser("gen-fixture", help="generate a synthetic dataset")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--images", type=int, default=8)
    p.add_argument("--max-instances", type=int, default=4)
    p.add_argument("--perturbation", type=float, default=0.15)
    p.add_argument("--out", default="fixture")
    p.set_defaults(func=cmd_gen_fixture)
    return parser


def main(argv=None) -> int:
    """Run one command with cyclic GC paused, then leave GC as it was.
    The pipeline makes no reference cycles, so refcounting frees what it
    builds; the collections its parsed objects set off freed nothing."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        args = build_parser().parse_args(argv)
        try:
            return args.func(args)
        except (UnknownPresetError, ValueError) as exc:
            print(f"configuration error: {exc}", file=sys.stderr)
            return 3
        except CocoFormatError as exc:
            print(f"validation error: {exc}", file=sys.stderr)
            return 2
        except OSError as exc:
            print(f"i/o error: {exc}", file=sys.stderr)
            return 1
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
