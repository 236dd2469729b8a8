"""Structured verification records and deterministic report files.

Every check emits a :class:`ReportRow`; the pass flag is derived from the
stored numbers (``value <= bound + tolerance``), never set independently.
CSV output keeps only the deterministic fields, so identical configurations
and seeds produce byte-identical files; wall-clock timings live in the JSON
report alongside the configuration echo.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass(frozen=True)
class ReportRow:
    """One verification record: a measured value against its bound."""

    check_id: str
    anchor: str  # short name of the law or construction being checked
    value: float
    bound: float
    tolerance: float
    runtime_ms: float = 0.0

    @property
    def passed(self) -> bool:
        return self.value <= self.bound + self.tolerance


CSV_FIELDS = ("check_id", "anchor", "value", "bound", "tolerance", "passed")


def _format(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def write_csv(rows: list[ReportRow], path: str | Path) -> None:
    """Deterministic CSV: sorted by check id, fixed float formatting."""
    path = Path(path)
    with path.open("w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_FIELDS)
        for row in sorted(rows, key=lambda r: r.check_id):
            writer.writerow(
                [
                    row.check_id,
                    row.anchor,
                    _format(row.value),
                    _format(row.bound),
                    _format(row.tolerance),
                    _format(row.passed),
                ]
            )


def write_json(
    rows: list[ReportRow], path: str | Path, config: dict, runtime_ms: float
) -> None:
    """JSON report: schema 1, configuration echo, rows with timings."""
    path = Path(path)
    payload = {
        "schema": 1,
        "config": config,
        "all_pass": all(r.passed for r in rows),
        "runtime_ms": runtime_ms,
        "rows": [
            {**asdict(row), "passed": row.passed}
            for row in sorted(rows, key=lambda r: r.check_id)
        ],
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_table_csv(path: str | Path, header: list[str], records: list[list]) -> None:
    """Plain deterministic CSV for survey tables and plot data."""
    path = Path(path)
    with path.open("w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for record in records:
            writer.writerow([_format(x) for x in record])
