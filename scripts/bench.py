#!/usr/bin/env python3
"""Run the benchmark on the parent checkout and this one; write BENCH_<pr>.json.

    python scripts/bench.py --pr N --parent PARENT_DIR

For every workload that ``BENCHMARK.json`` names and seeds 0 and 1, each
checkout's own ``perfbench/run.py`` runs unchanged for the benchmark's
``run_seconds``: ``--trace 0`` in REPEATS pairs (the end-to-end medians;
the file keeps every run and the median over runs), then one ``--trace 1``
pair (the per-layer totals).  The side that runs first alternates from pair
to pair (the parent on even pairs), so neither slow drift of the machine
nor running second favours one side.  The file also records the machine,
``nproc`` and the library versions that ``run.py`` reports.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPEATS = 10
SEEDS = (0, 1)


def run_benchmark(root: Path, workload: str, seed: int, seconds: int,
                  trace: int) -> tuple[dict, dict]:
    """``(info, result)``: the last two JSON lines of one ``run.py`` run."""
    cmd = [sys.executable, str(root / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=root)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} failed ({proc.returncode}):\n"
                           f"{proc.stderr[-4000:]}")
    info, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    return info, result


def _values(result: dict) -> dict[str, float]:
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def measure(roots: dict[str, Path], workloads: list[str],
            seconds: int) -> tuple[dict, dict]:
    """``(results, environment)`` over every label, workload and seed."""
    results: dict = {label: {} for label in roots}
    environment: dict = {}
    for workload in workloads:
        for seed in SEEDS:
            runs: dict = {label: [] for label in roots}
            layers: dict = {}
            for pair, trace in enumerate([0] * REPEATS + [1]):
                order = list(roots.items())
                for label, root in order[::-1] if pair % 2 else order:
                    info, result = run_benchmark(root, workload, seed, seconds, trace)
                    environment = environment or info["environment"]
                    entry = {"correct": result["correct"],
                             "attempted": result["attempted"],
                             "failed": result["failed"],
                             "call_wall_s": info["call_wall_s"],
                             "metrics": _values(result)}
                    if trace:
                        layers[label] = entry
                    else:
                        runs[label].append(entry)
            for label in roots:
                names = runs[label][0]["metrics"]
                results[label].setdefault(workload, {})[f"seed{seed}"] = {
                    "end_to_end": {name: statistics.median(r["metrics"][name]
                                                           for r in runs[label])
                                   for name in names},
                    "runs": runs[label],
                    "layers": layers[label]["metrics"],
                    "layers_correct": layers[label]["correct"],
                }
    return results, environment


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True,
                        help="number in the output name BENCH_<pr>.json")
    parser.add_argument("--parent", type=Path, required=True,
                        help="checkout of the parent commit")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = [workload["name"] for workload in spec["workloads"]]
    roots = {"parent": args.parent.resolve(), "change": ROOT}
    results, environment = measure(roots, workloads, seconds)
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps({
        "pr": args.pr,
        "command": (f"perfbench/run.py --workload W --seed S "
                    f"--seconds {seconds} --trace {{0,1}}"),
        "repeats": REPEATS,
        "machine": {"platform": platform.platform(),
                    "machine": platform.machine(), **environment},
        "results": results,
    }, indent=1) + "\n")
    print(f"wrote {out}")
    for workload in workloads:
        for seed in SEEDS:
            walls = {label: results[label][workload][f"seed{seed}"]["end_to_end"]["wall_s"]
                     for label in roots}
            print(f"  {workload} seed {seed}: wall_s "
                  + ", ".join(f"{label} {wall:.2f}" for label, wall in walls.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
