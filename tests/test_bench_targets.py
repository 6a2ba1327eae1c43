"""The benchmark's traced run looks up package functions by name, so a
rename or deletion under ``src/`` must fail here rather than there."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "detsegbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("detsegbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_traced_functions_exist():
    tracer = _load_tracer()
    for name in tracer.BINDING_MODULES:
        importlib.import_module(name)
    missing = [(home, fname) for home, fname in tracer.TARGETS
               if not callable(getattr(importlib.import_module(f"detsegeval.{home}"),
                                       fname, None))]
    assert missing == []


def test_traced_commands_record_every_target(tmp_path):
    """Runs the CLI under the tracer, as the traced bench does, so a
    signature its counters cannot read fails here."""
    tracer_mod = _load_tracer()
    modules = {name: importlib.import_module(name) for name in tracer_mod.BINDING_MODULES}
    cli = modules["detsegeval.cli"]
    assert cli.main(["gen-fixture", "--seed", "3", "--images", "6",
                     "--out", str(tmp_path)]) == 0
    gt, det, seg = (str(tmp_path / f) for f in ("gt.json", "pred_det.json", "pred_seg.json"))
    commands = [
        ["validate", gt, det, "--task", "det"],
        ["score", gt, det, "--task", "det"],
        ["score", gt, seg, "--task", "seg"],
        # kmg's cross-detector merge needs two detection inputs.
        ["fuse", gt, det, det, "--preset", "kmg", "--task", "det"],
        ["fuse", gt, det, seg, "--preset", "ntr", "--task", "det"],
    ] + [["fuse", gt, seg, det, "--preset", preset, "--task", "seg"]
         for preset in ("sigmoid", "ntr", "uno", "visionx")]
    tracer = tracer_mod.Tracer()
    tracer.install(modules)
    try:
        codes = [cli.main(argv + ["--out", str(tmp_path / f"out{k}")])
                 for k, argv in enumerate(commands)]
    finally:
        tracer.uninstall()
    assert codes == [0] * len(commands)
    recorded = {span[1] for span in tracer.take()}
    missing = [name for name, _ in tracer_mod.TARGETS.values()
               if name not in recorded
               and not any(r.startswith(name + ".") for r in recorded)]
    assert missing == []
