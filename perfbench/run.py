"""torusflux benchmark: one workload per run, closed loop, one caller.

    python3 perfbench/run.py --workload {normcmp,verify}
        --seed N --seconds S --trace {0,1}

Each workload call runs in a fresh Python process (``worker.py``), one at a
time, with BLAS/OpenMP threads capped at THREAD_CAP.

``--trace 0`` times the workload with tracing off.  It first starts
SETUP_PROBES processes that stop at the point of the call, to sample
set-up time, then makes calls until S seconds of calls are measured (at
least one).  It reports the end-to-end metrics, each the median over the
run's samples.  Metric names and units are read from ``BENCHMARK.json``.

A call that has started is never cut short, so a slow program still gives
figures; RUN_BUDGET_S only decides whether another call is started.

``--trace 1`` makes one untraced call and one traced call (``spans.py``)
and reports the per-layer metrics of the traced call; the traced call's
``report.csv`` must be byte-identical to the untraced one.  All calls of a
run must give byte-identical CSVs.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``attempted`` counts
report rows (expected or returned) over all calls and ``failed`` those that
are missing or do not pass; an exception inside a call fails every row it
did not return.  Exit status 2 means the program sources are missing or
the arguments are bad, 1 that a worker process itself failed.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_CAP = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 4
RUN_BUDGET_S = 170.0
COMPUTED_BYTES = (
    "*_bytes_max metrics are computed from array shapes "
    "(eval_spectral: P*N^(d-1)*16, RK4 trajectories: (K+1)*P*d*8), "
    "not measured memory traffic"
)


class BenchError(RuntimeError):
    """The run cannot produce a result."""


def spawn(workload: str, seed: int, out: Path, *extra: str) -> dict:
    """Run ``worker.py`` in a fresh process and return its result."""
    out.mkdir()
    env = {**os.environ, **{var: str(THREAD_CAP) for var in THREAD_VARS}}
    started = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(out), "--started", repr(started),
           *extra]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}):\n{proc.stderr[-4000:]}")
    result = json.loads((out / "result.json").read_text())
    csv = out / "report.csv"
    result["csv"] = csv.read_bytes() if csv.exists() else None
    return result


def score(expected: tuple[str, ...], calls: list[dict]) -> tuple[int, int]:
    """(attempted, failed) report rows over all calls."""
    attempted = failed = 0
    for call in calls:
        passed = {row[0]: row[4] for row in call.get("rows") or []}
        ids = set(expected) | set(passed)
        attempted += len(ids)
        failed += sum(not passed.get(check_id, False) for check_id in ids)
    return attempted, failed


def tightest_row(calls: list[dict]) -> tuple[str | None, float]:
    """Row with the least headroom ``(bound + tol - value) / tol``, tol > 0.

    -1 when no row has a tolerance or a headroom is not finite.
    """
    best = (math.inf, None)
    for call in calls:
        for check_id, value, bound, tol, _ in call.get("rows") or []:
            if tol > 0:
                frac = (bound + tol - value) / tol
                best = min(best, (frac if math.isfinite(frac) else -1.0, check_id))
    frac, check_id = best
    return check_id, (frac if math.isfinite(frac) else -1.0)


def measure(workload: str, seed: int, seconds: int, trace: bool,
            work: Path) -> tuple[list[dict], list[dict]]:
    """Set-up probes and workload calls of one run."""
    deadline = time.monotonic() + RUN_BUDGET_S
    ids = itertools.count()

    def call(*extra):
        return spawn(workload, seed, work / str(next(ids)), *extra)

    if trace:
        untraced = call()
        return [], [untraced, call("--trace-against", repr(untraced["wall_s"]))]
    probes = [call("--setup-only") for _ in range(SETUP_PROBES)]
    calls = [call()]
    while sum(c["wall_s"] for c in calls) < seconds:
        if time.monotonic() + 2 * calls[-1]["wall_s"] > deadline:
            break
        calls.append(call())
    return probes, calls


def end_to_end(probes: list[dict], calls: list[dict], attempted: int,
               failed: int) -> dict[str, float]:
    """The ``--trace 0`` metrics of one run."""
    return {
        "wall_s": statistics.median(c["wall_s"] for c in calls),
        "setup_s": statistics.median(c["setup_s"] for c in probes + calls),
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in calls),
        "pass_frac": 1.0 - failed / attempted,
        "min_headroom_frac": tightest_row(calls)[1],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "torusflux" / "__init__.py").is_file():
        print(f"error: program sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    try:
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
            probes, calls = measure(args.workload, args.seed, args.seconds,
                                    bool(args.trace), Path(tmp))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed = score(WORKLOADS[args.workload].rows, calls)
    if args.trace:
        metrics = calls[1]["layers"]
    else:
        metrics = end_to_end(probes, calls, attempted, failed)
    errors = [c["error"] for c in calls if c["error"]]
    csv_identical = calls[0]["csv"] is not None and all(
        c["csv"] == calls[0]["csv"] for c in calls)
    for error in errors:
        print(error, file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(calls)} call(s), CSV byte-identical across calls: {csv_identical}")
    for name, unit in units.items():
        print(f"  {name:42s} {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "tightest_row": tightest_row(calls)[0],
        "call_wall_s": [c["wall_s"] for c in calls],
        "errors": len(errors),
        "thread_cap": THREAD_CAP,
        "environment": calls[0]["environment"],
        "computed_bytes": COMPUTED_BYTES,
    }))
    print(json.dumps({
        "correct": failed == 0 and not errors and csv_identical,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
