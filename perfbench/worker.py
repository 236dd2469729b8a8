"""One workload call in a fresh process; ``run.py`` starts it.

    python3 perfbench/worker.py --workload NAME --seed N --out DIR
        --started T [--trace-against WALL_S] [--setup-only]

Set-up is everything before the workload call: interpreter start, imports,
config validation and the ``FlatTorus``.  ``--started`` is the
``time.monotonic()`` reading of the parent just before it started this
process (the clock is shared between processes on Linux).  The result,
including the CSV written by ``reporting.write_csv``, goes to DIR.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402
import scipy  # noqa: E402
import torusflux.scenarios  # noqa: E402,F401  (the import is part of set-up)
from torusflux.reporting import write_csv  # noqa: E402
from torusflux.torus import FlatTorus  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

def environment() -> dict:
    """Machine and library versions, recorded with each result."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_caps": {var: value for var, value in os.environ.items()
                        if var.endswith("_NUM_THREADS")},
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--started", type=float, required=True)
    parser.add_argument("--trace-against", type=float, default=None,
                        help="trace the call; the value is the untraced wall time")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload]
    config = workload.make_config(args.seed)
    FlatTorus(config.dim, config.resolution, symplectic=True)
    called = time.monotonic()
    result = {"setup_s": called - args.started}
    if args.setup_only:
        result["environment"] = environment()
        (args.out / "result.json").write_text(json.dumps(result))
        return

    tracer = None
    if args.trace_against is not None:
        from spans import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install()
    rows, error = None, None
    t0 = time.perf_counter()
    try:
        rows, _extras = workload.run(config)
    except Exception:  # a failing call is counted, not fatal to the run
        error = traceback.format_exc()
    wall = time.perf_counter() - t0
    result["wall_s"] = wall
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["error"] = error
    if tracer is not None:
        tracer.restore()
        result["layers"] = layer_metrics(tracer, wall, args.trace_against)
    if rows is not None:
        write_csv(rows, args.out / "report.csv")
        result["rows"] = [[r.check_id, r.value, r.bound, r.tolerance, r.passed]
                          for r in rows]
    result["environment"] = environment()
    (args.out / "result.json").write_text(json.dumps(result))


if __name__ == "__main__":
    main()
