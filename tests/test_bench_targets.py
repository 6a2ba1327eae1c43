"""The benchmark's traced run looks up package functions by name, so a
rename or deletion under ``src/`` must fail here rather than there."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "detsegbench" / "tracer.py"


def test_traced_functions_exist():
    spec = importlib.util.spec_from_file_location("detsegbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for name in tracer.BINDING_MODULES:
        importlib.import_module(name)
    missing = [(home, fname) for home, fname in tracer.TARGETS
               if not callable(getattr(importlib.import_module(f"detsegeval.{home}"),
                                       fname, None))]
    assert missing == []
