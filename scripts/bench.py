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

For every workload, seed and end-to-end metric, ``comparison`` holds each
side's median and quartiles over the trace-0 runs, the signed gain (parent
median minus change median, or the reverse for a ``better: higher``
metric, so a positive gain favours the change), the parent's
interquartile range and the number of pairs each side won, pairs being
matched by index and ties counting for neither.  The summary prints them.
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


def _quartiles(values: list[float]) -> list[float]:
    """``[q1, median, q3]``, linear between order statistics."""
    return statistics.quantiles(values, n=4, method="inclusive")


def _gain(better: str, parent: float, change: float) -> float:
    """How much better the change reads; positive favours the change."""
    return parent - change if better == "lower" else change - parent


def _fmt(value: float) -> str:
    return f"{value:.2f}" if abs(value) >= 1.0 else f"{value:.4f}"


def compare(results: dict, better: dict[str, str]) -> dict:
    """Per workload, seed and end-to-end metric: quartiles, gain and wins."""
    out: dict = {}
    for workload, seeds in results["parent"].items():
        for seed, entry in seeds.items():
            rows = out.setdefault(workload, {}).setdefault(seed, {})
            parent_runs = entry["runs"]
            change_runs = results["change"][workload][seed]["runs"]
            for name, direction in better.items():
                if name not in entry["end_to_end"]:
                    continue
                parent = [r["metrics"][name] for r in parent_runs]
                change = [r["metrics"][name] for r in change_runs]
                margins = [_gain(direction, p, c) for p, c in zip(parent, change)]
                pq, cq = _quartiles(parent), _quartiles(change)
                rows[name] = {
                    "better": direction,
                    "parent": pq,
                    "change": cq,
                    "gain": _gain(direction, pq[1], cq[1]),
                    "parent_iqr": pq[2] - pq[0],
                    "pairs": len(margins),
                    "change_wins": sum(m > 0 for m in margins),
                    "parent_wins": sum(m < 0 for m in margins),
                }
    return out


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
    better = {metric["name"]: metric["better"] for metric in spec["end_to_end"]}
    results, environment = measure(roots, workloads, seconds)
    comparison = compare(results, better)
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps({
        "pr": args.pr,
        "command": (f"perfbench/run.py --workload W --seed S "
                    f"--seconds {seconds} --trace {{0,1}}"),
        "repeats": REPEATS,
        "machine": {"platform": platform.platform(),
                    "machine": platform.machine(), **environment},
        "results": results,
        "comparison": comparison,
    }, indent=1) + "\n")
    print(f"wrote {out}; median (q1-q3), gain > 0 favours the change")
    for workload in workloads:
        for seed in SEEDS:
            for name, row in comparison[workload][f"seed{seed}"].items():
                (p1, pm, p3), (c1, cm, c3) = map(_fmt, row["parent"]), map(_fmt, row["change"])
                print(f"  {workload} seed {seed}: {name} parent {pm}, change {cm}"
                      f" (parent {p1}-{p3}, change {c1}-{c3});"
                      f" gain {_fmt(row['gain'])} vs parent IQR {_fmt(row['parent_iqr'])};"
                      f" change won {row['change_wins']}/{row['pairs']},"
                      f" parent {row['parent_wins']}/{row['pairs']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
