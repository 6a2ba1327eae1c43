"""Run the benchmark over several seeds and report each metric's spread.

    python3 detsegbench/spread.py --workload seg-fuse --seeds 1-10
    python3 detsegbench/spread.py --workload all --seeds 1-10 --baseline

For every end-to-end metric this prints the median of the per-run values
and the distance between their first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median; that
share is compared with the metric's bound in ``BENCHMARK.json``.  With
``--baseline`` the medians, spreads and per-run values, plus one traced
run at the default seed, are written to ``baseline.json`` for the current
source tree.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
BASELINE = BENCH / "baseline.json"

sys.path.insert(0, str(BENCH))

from run import DEFAULT_SEED  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, trace: int) -> dict:
    start = time.monotonic()
    proc = subprocess.run(
        [*CONFIG["command"], "--workload", workload, "--seed", str(seed),
         "--seconds", str(CONFIG["run_seconds"]), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    print(f"  {workload} seed {seed} trace {trace}: {time.monotonic() - start:.1f} s wall",
          flush=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["env"] = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return result


def spread_of(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def measure(workload: str, seeds: list[int]) -> dict:
    runs = []
    for seed in seeds:
        result = run_once(workload, seed, 0)
        if not result["correct"]:
            raise SystemExit(f"{workload} seed {seed}: {result['failed']} ops failed")
        runs.append({k: m["value"] for k, m in result["metrics"].items()})
    out = {}
    for metric in CONFIG["end_to_end"]:
        values = [r[metric["name"]] for r in runs]
        spread = spread_of(values)
        out[metric["name"]] = {"median": statistics.median(values), "spread": spread,
                               "bound": metric["bound"], "unit": metric["unit"],
                               "values": values}
        flag = "" if spread <= metric["bound"] else "  OVER BOUND"
        print(f"{workload:<13} {metric['name']:<20} median {statistics.median(values):12.5g} "
              f"{metric['unit']:<6} spread {spread:.3f} (bound {metric['bound']}){flag}",
              flush=True)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in CONFIG["workloads"]] + ["all"])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--baseline", action="store_true",
                        help="record the results in baseline.json")
    args = parser.parse_args()
    names = ([w["name"] for w in CONFIG["workloads"]] if args.workload == "all"
             else [args.workload])
    seeds = parse_seeds(args.seeds)
    baseline = (json.loads(BASELINE.read_text(encoding="utf-8"))
                if BASELINE.exists() else {"workloads": {}})
    for name in names:
        entry = {"seeds": seeds, "end_to_end": measure(name, seeds)}
        if args.baseline:
            traced = run_once(name, DEFAULT_SEED, 1)
            entry["per_layer"] = {k: m["value"] for k, m in traced["metrics"].items()}
            baseline["workloads"][name] = entry
            baseline["environment"] = traced["env"]
    if args.baseline:
        baseline["run_seconds"] = CONFIG["run_seconds"]
        BASELINE.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")
        print(f"wrote {BASELINE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
