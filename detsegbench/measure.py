"""Measured process: runs one workload's command sequence in a closed loop.

Usage: ``python3 measure.py SPEC.json RESULT.json``.  The spec (written by
``run.py``) names the source tree, the ops, the time budget and whether
to trace.  One client runs each command back to back through
``detsegeval.cli.main`` in this process; the only other threads are the
ones the CLI's own ``--jobs`` default starts.  The process is fresh for
each workload because ``ru_maxrss`` only ever rises.

Rounds repeat the sequence until the next round would overrun the
budget, with at least ``MIN_ROUNDS``.  Untraced runs also time ``import
detsegeval.cli`` in fresh interpreters between rounds (``setup_s``), so
those samples spread over the run like the commands' samples.  Traced
runs alternate untraced and traced rounds after an untraced first round,
so the traced outputs can be compared with untraced ones and the tracing
overhead measured; the first round of a fresh process is slower and is
left out of that comparison.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
import io
import json
import os
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracer import BINDING_MODULES, Tracer, summarize
from workloads import digest

MIN_ROUNDS = 3
PROBES_PER_ROUND = 2
_IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                 "t = time.perf_counter(); import detsegeval.cli; "
                 "print(time.perf_counter() - t)")


def import_seconds(src: str) -> float:
    """Seconds to import ``detsegeval.cli`` in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, src],
                          capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout.strip())


def run_op(cli, op: dict, devnull) -> dict:
    stderr = io.StringIO()
    error = ""
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(devnull), contextlib.redirect_stderr(stderr):
            rc = cli.main(op["argv"])
    except SystemExit as exc:  # argparse rejects its arguments this way
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # one failed op must not stop the run; it is counted
        rc = None
        error = traceback.format_exc(limit=5)
    seconds = time.perf_counter() - start
    if rc != 0 and not error:
        error = f"exit code {rc}: {stderr.getvalue()[-500:]}"
    out = {"name": op["name"], "seconds": seconds, "rc": rc, "error": error, "digest": None}
    if rc == 0:
        try:
            out["digest"] = digest(op["outputs"])
        except OSError as exc:
            out["error"] = f"missing output: {exc}"
    return out


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    sys.path.insert(0, spec["src"])
    modules = {name: importlib.import_module(name) for name in BINDING_MODULES}
    cli = modules["detsegeval.cli"]
    import numpy
    import scipy

    rounds = []
    setup: list[float] = []
    last_spans: list = []
    if not spec["trace"]:
        import_seconds(spec["src"])  # warm-up: fills the page cache and __pycache__
    start = time.perf_counter()
    with open(os.devnull, "w", encoding="utf-8") as devnull:
        while True:
            round_start = time.perf_counter()
            traced = spec["trace"] and len(rounds) % 2 == 1
            tracer = Tracer() if traced else None
            if tracer:
                tracer.install(modules)
            try:
                ops = [run_op(cli, op, devnull) for op in spec["ops"]]
            finally:
                if tracer:
                    tracer.uninstall()
            entry = {"traced": traced, "ops": ops}
            if tracer:
                last_spans = tracer.take()
                entry["layers"] = summarize(last_spans)
            rounds.append(entry)
            if not spec["trace"]:
                setup += [import_seconds(spec["src"]) for _ in range(PROBES_PER_ROUND)]
            now = time.perf_counter()
            if len(rounds) >= MIN_ROUNDS and now + (now - round_start) > start + spec["seconds"]:
                break

    if last_spans:
        # Spans of the last traced round: (id, name, start, end, parent, counters).
        with gzip.open(spec["spans_out"], "wt", encoding="utf-8") as fh:
            for span in last_spans:
                fh.write(json.dumps(span) + "\n")
    result = {
        "rounds": rounds,
        "setup_samples": setup,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    Path(sys.argv[2]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
