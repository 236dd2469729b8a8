import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from torusflux.reporting import ReportRow, write_json

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_reports.py"


def _run(old, new):
    return subprocess.run([sys.executable, str(SCRIPT), str(old), str(new)],
                          capture_output=True, text=True)


class TestCompareReports:
    ROWS = [
        ReportRow("a-01", "first", 2.5e-10, 0.0, 1e-9, runtime_ms=12.0),
        ReportRow("b-02", "second", 0.1, 1.2, 1e-3, runtime_ms=3.0),
    ]

    @pytest.fixture()
    def old(self, tmp_path):
        path = tmp_path / "old.json"
        write_json(self.ROWS, path, {}, 15.0)
        return path

    def _write(self, tmp_path, rows):
        path = tmp_path / "new.json"
        write_json(rows, path, {}, 99.0)
        return path

    def test_identical_rows_pass_whatever_the_timings(self, old, tmp_path):
        rows = [ReportRow(r.check_id, r.anchor, r.value, r.bound, r.tolerance,
                          runtime_ms=r.runtime_ms + 7.0) for r in self.ROWS]
        result = _run(old, self._write(tmp_path, rows))
        assert result.returncode == 0, result.stdout
        assert "2 rows identical" in result.stdout

    def test_one_ulp_is_a_difference(self, old, tmp_path):
        bumped = float(np.nextafter(0.1, 1.0))
        rows = [self.ROWS[0], ReportRow("b-02", "second", bumped, 1.2, 1e-3)]
        result = _run(old, self._write(tmp_path, rows))
        assert result.returncode == 1
        assert "b-02 value: 0.1 -> 0.10000000000000002" in result.stdout
        assert "|delta| = 1.388e-17" in result.stdout

    def test_missing_and_extra_rows(self, old, tmp_path):
        rows = [self.ROWS[0], ReportRow("c-03", "third", 0.0, 0.0, 0.0)]
        result = _run(old, self._write(tmp_path, rows))
        assert result.returncode == 1
        assert "b-02: only in OLD" in result.stdout
        assert "c-03: only in NEW" in result.stdout

    def test_bound_tolerance_and_signed_zero(self, old, tmp_path):
        rows = [ReportRow("a-01", "first", 2.5e-10, -0.0, 2e-9), self.ROWS[1]]
        result = _run(old, self._write(tmp_path, rows))
        assert result.returncode == 1
        assert "a-01 bound: 0.0 -> -0.0" in result.stdout
        assert "a-01 tolerance: 1e-09 -> 2e-09" in result.stdout
