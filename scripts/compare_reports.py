#!/usr/bin/env python3
"""Compare two report.json files row by row at full precision.

    python scripts/compare_reports.py OLD/report.json NEW/report.json

Rows are matched by check id.  A check id present on one side only, or a
row whose anchor, value, bound or tolerance differs in any bit, is printed
(numbers with |delta|); ``runtime_ms`` is ignored.  Every CSV file that both
report directories hold (``report.csv`` and tables such as ``defects.csv``
and ``growth.csv``) is compared byte for byte, and the first differing line
is printed.  Exits 0 when the rows and the shared CSV files are identical
and 1 otherwise.
"""

import argparse
import json
import sys
from pathlib import Path

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


def csv_differences(old_dir: Path, new_dir: Path) -> list[str]:
    out = []
    shared = sorted({p.name for p in old_dir.glob("*.csv")}
                    & {p.name for p in new_dir.glob("*.csv")})
    for name in shared:
        a = (old_dir / name).read_bytes()
        b = (new_dir / name).read_bytes()
        if a == b:
            continue
        old_lines, new_lines = a.split(b"\n"), b.split(b"\n")
        # the first differing line; when one file extends the other, the
        # first line past the shorter one
        i = next((i for i, (x, y) in enumerate(zip(old_lines, new_lines)) if x != y),
                 min(len(old_lines), len(new_lines)))
        first = [lines[i].decode() if i < len(lines) else "<end of file>"
                 for lines in (old_lines, new_lines)]
        out.append(f"{name} line {i + 1}: {first[0]!r} -> {first[1]!r}")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", help="report.json of the reference run")
    parser.add_argument("new", help="report.json of the run to check")
    args = parser.parse_args()
    old, new = load_rows(args.old), load_rows(args.new)
    diffs = differences(old, new)
    diffs += csv_differences(Path(args.old).parent, Path(args.new).parent)
    for line in diffs:
        print(line)
    if diffs:
        print(f"{len(diffs)} difference(s)")
        return 1
    print(f"{len(old)} rows identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
