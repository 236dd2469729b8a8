#!/usr/bin/env python3
"""Print the traced memory peak of each verify part and of the whole run.

    PYTHONPATH=src python scripts/memory_peaks.py [--part NAME] [--seed S]
        [--resolution N] [--steps K]

The config is the benchmark's verify workload config (``perfbench/
workloads.py``: N = 64, K = 200, 5 survey pairs, 1 cocycle pair) at seed 0,
unless ``--seed``, ``--resolution`` or ``--steps`` change it.  Each part of
``verify`` (``scenarios.verify_parts``: one per scenario, plus the
displacement and the length rows) runs on a fresh workbench, so its peak
includes the canonical isotopies it builds and does not depend on the order
of the parts.  Without ``--part`` one pass over the parts on one workbench
follows, as ``run_verify`` makes it, as the line ``verify``: the peak is
reset between parts, so the line also names the part at which the whole
run peaked.

The peak is the one ``tracemalloc`` records, numpy arrays included: for a
given config and library build it is the same to about 0.3 MiB across
process histories (a part run alone or after the others), unlike the
resident set size.  One line per part: its name, its peak in MiB and how
many of its rows pass.  Peaks print to 4 decimals (0.0001 MiB is about
100 bytes), so a part that allocates 1 KiB or more never reads 0.
"""

import argparse
import sys
import tracemalloc
from pathlib import Path

from torusflux.config import ExperimentConfig
from torusflux.scenarios import Workbench, run_part, verify_parts

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import WORKLOADS  # noqa: E402


def traced_peak(call) -> tuple[int, list]:
    """``(peak bytes, rows)`` of one call under tracemalloc."""
    tracemalloc.start()
    try:
        rows, _ = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, rows


def verify_peak(config: ExperimentConfig) -> tuple[int, str, list]:
    """``(peak bytes, the part at the peak, rows)`` of one verify pass."""
    peaks, rows = {}, []
    tracemalloc.start()
    try:
        for name, part in verify_parts(Workbench(config)):
            tracemalloc.reset_peak()
            rows.extend(run_part(name, part)[0])
            peaks[name] = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    at = max(peaks, key=peaks.get)
    return peaks[at], at, rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--part", help="measure this part only "
                        "(a scenario name, 'displacement' or 'hofer')")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--resolution", type=int, default=None)
    parser.add_argument("--steps", type=int, default=None)
    args = parser.parse_args()

    fields = dict(WORKLOADS["verify"].config, seed=args.seed)
    for name in ("resolution", "steps"):
        if getattr(args, name) is not None:
            fields[name] = getattr(args, name)
    config = ExperimentConfig(**fields).validate()

    names = [name for name, _ in verify_parts(Workbench(config))]
    if args.part is not None and args.part not in names:
        parser.error(f"unknown part {args.part!r}; one of {', '.join(names)}")
    for name in names if args.part is None else [args.part]:
        call = dict(verify_parts(Workbench(config)))[name]
        peak, rows = traced_peak(call)
        passed = sum(row.passed for row in rows)
        print(f"{name:<18} {peak / 2**20:10.4f} MiB  {passed}/{len(rows)} rows pass")
    if args.part is None:
        peak, at, rows = verify_peak(config)
        passed = sum(row.passed for row in rows)
        print(f"{'verify':<18} {peak / 2**20:10.4f} MiB  {passed}/{len(rows)} rows pass"
              f"  peak in {at}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
