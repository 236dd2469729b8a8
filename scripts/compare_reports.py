#!/usr/bin/env python3
"""Compare two report.json files row by row at full precision.

    python scripts/compare_reports.py OLD/report.json NEW/report.json

Rows are matched by check id.  A check id present on one side only, or a
row whose anchor, value, bound or tolerance differs in any bit, is printed
(numbers with |delta|); ``runtime_ms`` is ignored.  Exits 0 when the rows
are identical and 1 otherwise.
"""

import argparse
import json
import sys

FIELDS = ("anchor", "value", "bound", "tolerance")


def load_rows(path: str) -> dict[str, dict]:
    with open(path) as fh:
        return {row["check_id"]: row for row in json.load(fh)["rows"]}


def differences(old: dict[str, dict], new: dict[str, dict]) -> list[str]:
    out = []
    for check_id in sorted(old.keys() | new.keys()):
        if check_id not in new:
            out.append(f"{check_id}: only in OLD")
            continue
        if check_id not in old:
            out.append(f"{check_id}: only in NEW")
            continue
        for name in FIELDS:
            a, b = old[check_id][name], new[check_id][name]
            # repr tells apart every float bit pattern that matters here,
            # including -0.0 vs 0.0, and treats NaN as equal to NaN
            if repr(a) == repr(b):
                continue
            line = f"{check_id} {name}: {a!r} -> {b!r}"
            if isinstance(a, (int, float)) and isinstance(b, (int, float)):
                line += f"  |delta| = {abs(b - a):.3e}"
            out.append(line)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", help="report.json of the reference run")
    parser.add_argument("new", help="report.json of the run to check")
    args = parser.parse_args()
    old, new = load_rows(args.old), load_rows(args.new)
    diffs = differences(old, new)
    for line in diffs:
        print(line)
    if diffs:
        print(f"{len(diffs)} difference(s)")
        return 1
    print(f"{len(old)} rows identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
