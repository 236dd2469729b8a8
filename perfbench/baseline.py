"""Measure the benchmark on several seeds and record the result.

    python3 perfbench/baseline.py

For each workload in BENCHMARK.json, runs ``run.py --trace 0`` once per seed
0 .. RUNS-1 (seed 0 is the default seed, seed 1 the held-out seed) and
``run.py --trace 1`` once on seed 0.  Writes to ``baseline.json``, per
end-to-end metric, the run count, median, quartiles
(``statistics.quantiles(n=4)``) and spread (quartile distance over median)
next to the bound in BENCHMARK.json, plus the traced run's per-layer
metrics.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import DEFAULT_SEED, HELD_OUT_SEED

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def bench(workload: str, seed: int, trace: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True, cwd=ROOT,
    )
    lines = proc.stdout.strip().splitlines()
    return {**json.loads(lines[-1]), "detail": json.loads(lines[-2])}


def summarize(values: list[float], bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else 0.0
    return {"runs": len(values), "median": median, "q1": q1, "q3": q3,
            "spread": spread, "bound": bound, "spread_below_third_of_bound": spread < bound / 3}


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = {"default_seed": DEFAULT_SEED, "held_out_seed": HELD_OUT_SEED,
           "run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in spec["workloads"]:
        name = workload["name"]
        runs = []
        for seed in range(RUNS):
            runs.append(bench(name, seed, 0, spec["run_seconds"]))
            print(name, seed, json.dumps(runs[-1]["metrics"]), file=sys.stderr)
        traced = bench(name, DEFAULT_SEED, 1, spec["run_seconds"])
        out["environment"] = runs[0]["detail"]["environment"]
        out["workloads"][name] = {
            "seeds": list(range(RUNS)),
            "correct": [r["correct"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "tightest_row": [r["detail"]["tightest_row"] for r in runs],
            "end_to_end": {
                m["name"]: summarize([r["metrics"][m["name"]]["value"] for r in runs],
                                     m["bound"])
                for m in spec["end_to_end"]
            },
            "per_layer_seed0": {k: v["value"] for k, v in traced["metrics"].items()},
            "per_layer_seed0_correct": traced["correct"],
        }
    (HERE / "baseline.json").write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
