import importlib.util
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from torusflux.reporting import ReportRow, write_json

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
SCRIPT = SCRIPTS / "compare_reports.py"


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

    def _dirs(self, tmp_path, old_csv, new_csv):
        paths = []
        for name, text in (("old", old_csv), ("new", new_csv)):
            out = tmp_path / name
            out.mkdir()
            write_json(self.ROWS, out / "report.json", {}, 15.0)
            if text is not None:
                (out / "defects.csv").write_text(text)
            paths.append(out / "report.json")
        return paths

    def test_identical_tables_pass(self, tmp_path):
        table = "pair,defect\n0,1.5e-3\n1,2.5e-3\n"
        result = _run(*self._dirs(tmp_path, table, table))
        assert result.returncode == 0, result.stdout
        assert "2 rows identical" in result.stdout

    def test_table_difference_prints_first_line(self, tmp_path):
        old = "pair,defect\n0,1.5e-3\n1,2.5e-3\n2,4e-3\n"
        new = "pair,defect\n0,1.5e-3\n1,2.50000000001e-3\n2,5e-3\n"
        result = _run(*self._dirs(tmp_path, old, new))
        assert result.returncode == 1
        assert "defects.csv line 3: '1,2.5e-3' -> '1,2.50000000001e-3'" in result.stdout
        assert "1 difference(s)" in result.stdout

    def test_table_extended_by_a_row(self, tmp_path):
        old = "pair,defect\n0,1.5e-3\n"
        result = _run(*self._dirs(tmp_path, old, old + "1,2.5e-3\n"))
        assert result.returncode == 1
        assert "defects.csv line 3: '' -> '1,2.5e-3'" in result.stdout

    def test_table_on_one_side_is_not_compared(self, tmp_path):
        result = _run(*self._dirs(tmp_path, "pair,defect\n", None))
        assert result.returncode == 0, result.stdout


# stands in for perfbench/run.py: prints the run's closing two JSON lines,
# with wall_s = base + seed + a count of earlier runs in this checkout, and
# appends "<checkout> <seconds>" to a log shared by both checkouts
FAKE_RUN = """
import json, sys
from pathlib import Path
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
here = Path(__file__).resolve().parents[1]
with open(here.parent / "order", "a") as log:
    log.write(f"{here.name} {args['--seconds']}\\n")
seen = Path(__file__).with_name("seen")
count = int(seen.read_text()) if seen.exists() else 0
seen.write_text(str(count + 1))
wall = BASE + int(args["--seed"]) + count
if args["--trace"] == "1":
    metrics = {"torus.eval_spectral.calls": {"value": BASE, "unit": "count"}}
else:
    metrics = {"wall_s": {"value": wall, "unit": "s"},
               "pass_frac": {"value": 1.0, "unit": "fraction"}}
print("workload", args["--workload"])
print(json.dumps({"call_wall_s": [wall], "environment": {"nproc": 2, "numpy": "x"}}))
print(json.dumps({"correct": True, "attempted": 4, "failed": 0, "metrics": metrics}))
"""


class TestBench:
    @staticmethod
    def _checkout(tmp_path, name, base):
        run = tmp_path / name / "perfbench" / "run.py"
        run.parent.mkdir(parents=True)
        run.write_text(FAKE_RUN.replace("BASE", str(base)))
        return run.parents[1]

    @pytest.fixture(scope="class")
    def bench(self, tmp_path_factory):
        """A copy of bench.py run in a fake change checkout against a fake
        parent; bench.py takes the run length and workloads from the
        BENCHMARK.json of the checkout it lives in."""
        tmp_path = tmp_path_factory.mktemp("bench")
        parent = self._checkout(tmp_path, "parent", 10)
        change = self._checkout(tmp_path, "change", 20)
        (change / "scripts").mkdir()
        shutil.copy(SCRIPTS / "bench.py", change / "scripts" / "bench.py")
        (change / "BENCHMARK.json").write_text(json.dumps(
            {"run_seconds": 7, "workloads": [{"name": "normcmp", "why": ""}],
             "end_to_end": [{"name": "wall_s", "better": "lower"},
                            {"name": "setup_s", "better": "lower"},
                            {"name": "pass_frac", "better": "higher"}]}))
        result = subprocess.run(
            [sys.executable, str(change / "scripts" / "bench.py"), "--pr", "7",
             "--parent", str(parent)],
            capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        order = (tmp_path / "order").read_text().split()
        return result, json.loads((change / "BENCH_7.json").read_text()), order

    def test_writes_medians_layers_and_machine(self, bench):
        result, bench, _ = bench
        assert bench["pr"] == 7 and bench["repeats"] == 10
        assert "--seconds 7 " in bench["command"]
        assert bench["machine"]["nproc"] == 2 and bench["machine"]["numpy"] == "x"
        assert set(bench["results"]) == {"parent", "change"}
        for label, base in (("parent", 10), ("change", 20)):
            seeds = bench["results"][label]
            assert list(seeds) == ["normcmp"]
            seeds = seeds["normcmp"]
            # seed 0: runs 0..9 at trace 0, run 10 at trace 1; seed 1: runs 11..20
            assert [r["metrics"]["wall_s"] for r in seeds["seed0"]["runs"]] == [
                base + k for k in range(10)]
            assert seeds["seed0"]["end_to_end"] == {"wall_s": base + 4.5, "pass_frac": 1.0}
            assert seeds["seed1"]["end_to_end"]["wall_s"] == base + 1 + 15.5
            assert seeds["seed1"]["layers"] == {"torus.eval_spectral.calls": base}
            assert seeds["seed1"]["layers_correct"] is True
        assert "normcmp seed 1: wall_s parent 26.50, change 36.50" in result.stdout
        # runs k = 0..9 read base + k (seed 0): quartiles 2.25, 4.5, 6.75;
        # setup_s is not reported by the fake run.py and is left out
        seed0 = bench["comparison"]["normcmp"]["seed0"]
        assert set(seed0) == {"wall_s", "pass_frac"}
        assert seed0["wall_s"] == {
            "better": "lower", "parent": [12.25, 14.5, 16.75],
            "change": [22.25, 24.5, 26.75], "gain": -10.0, "parent_iqr": 4.5,
            "pairs": 10, "change_wins": 0, "parent_wins": 10}
        tie = seed0["pass_frac"]
        assert (tie["change_wins"], tie["parent_wins"], tie["gain"]) == (0, 0, 0.0)
        assert bench["comparison"]["normcmp"]["seed1"]["wall_s"]["parent"][1] == 26.5
        assert ("normcmp seed 0: wall_s parent 14.50, change 24.50 (parent 12.25-16.75,"
                " change 22.25-26.75); gain -10.00 vs parent IQR 4.50;"
                " change won 0/10, parent 10/10") in result.stdout

    def test_wins_follow_the_better_direction(self):
        spec = importlib.util.spec_from_file_location("bench", SCRIPTS / "bench.py")
        bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench)

        def side(values):
            return {"w": {"seed0": {"end_to_end": {"m": 0.0},
                                    "runs": [{"metrics": {"m": v}} for v in values]}}}

        results = {"parent": side([1.0, 2.0, 3.0, 4.0, 5.0]),
                   "change": side([0.5, 2.0, 1.0, 5.0, 3.0])}
        # pair 1 ties; the change reads lower in pairs 0, 2 and 4
        for better, wins, gain in (("lower", (3, 1), 1.0), ("higher", (1, 3), -1.0)):
            row = bench.compare(results, {"m": better})["w"]["seed0"]["m"]
            assert (row["change_wins"], row["parent_wins"]) == wins
            assert row["gain"] == gain and row["pairs"] == 5
            assert row["parent"] == [2.0, 3.0, 4.0] and row["change"] == [1.0, 2.0, 3.0]

    def test_sides_alternate_in_running_first(self, bench):
        _, _, log = bench
        sides, seconds = log[0::2], log[1::2]
        assert set(seconds) == {"7"}
        # per seed: 10 trace-0 pairs and one trace-1 pair, each run by both sides
        pairs = list(zip(sides[0::2], sides[1::2]))
        assert len(pairs) == 2 * 11
        assert all(set(pair) == {"parent", "change"} for pair in pairs)
        firsts = [first for first, _ in pairs]
        assert firsts == (["parent", "change"] * 5 + ["parent"]) * 2


class TestRefinementStudy:
    def test_smoke(self):
        # the script draws random pairs, translations among them, at each
        # resolution and prints one line per resolution
        src = str(SCRIPTS.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        result = subprocess.run(
            [sys.executable, str(SCRIPTS / "run_refinement_study.py"),
             "--resolutions", "8", "16", "--pairs", "1", "--steps", "50"],
            capture_output=True, text=True, env=env, timeout=300)
        assert result.returncode == 0, result.stderr
        lines = result.stdout.splitlines()
        assert [line.split(":")[0] for line in lines] == ["N =    8", "N =   16"]
        residuals = [float(line.split("max residual ")[1].split()[0]) for line in lines]
        assert all(np.isfinite(r) and r > 0 for r in residuals)
        assert "drop" in lines[1]


def test_memory_peaks_smoke():
    src = str(SCRIPTS.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    # --part prints that part only, and no verify line
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / "memory_peaks.py"), "--resolution", "16",
         "--steps", "50", "--part", "norm-comparison"],
        capture_output=True, text=True, env=env, timeout=300)
    assert result.returncode == 0, result.stderr
    (line,) = result.stdout.splitlines()
    name, peak, unit, rows, *_ = line.split()
    assert (name, unit, rows) == ("norm-comparison", "MiB", "4/4")
    assert 0.0 < float(peak) < 64.0
    # without it, every part on its own workbench, then the verify pass,
    # which names the part at which it peaked (50 steps is the least a
    # config takes)
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / "memory_peaks.py"), "--resolution", "16",
         "--steps", "50"],
        capture_output=True, text=True, env=env, timeout=300)
    assert result.returncode == 0, result.stderr
    *part_lines, verify_line = result.stdout.splitlines()
    peaks = {}
    for line in part_lines:
        name, peak, unit, rows, *_ = line.split()
        assert unit == "MiB" and 0.0 < float(peak) < 64.0
        peaks[name] = float(peak)
        if name == "norm-comparison":
            assert rows == "4/4"
    assert len(peaks) == 10
    name, peak, unit, rows, *_, at = verify_line.split()
    assert (name, unit, rows.split("/")[1]) == ("verify", "MiB", "64")
    assert verify_line.split("rows pass")[1].split() == ["peak", "in", at]
    # the whole run holds at least what the part at its peak held alone
    assert at in peaks and float(peak) >= peaks[at] - 1.0
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / "memory_peaks.py"), "--part", "nope"],
        capture_output=True, text=True, env=env, timeout=60)
    assert result.returncode == 2 and "unknown part" in result.stderr


def test_benchmark_worker_setup_probe(tmp_path):
    # the worker's set-up builds the workload's torus from its config
    # (ExperimentConfig.dim and .resolution); a config change that breaks it
    # fails every benchmark run before the workload call
    worker = SCRIPTS.parent / "perfbench" / "worker.py"
    result = subprocess.run(
        [sys.executable, str(worker), "--workload", "normcmp", "--seed", "0",
         "--out", str(tmp_path), "--started", repr(time.monotonic()),
         "--setup-only"],
        capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert json.loads((tmp_path / "result.json").read_text())["setup_s"] > 0


def test_code_size_counts_lines_and_settable_values(tmp_path):
    # settable: y=1, z=2 and q=3 (defaults), a: int = 0 (annotated field);
    # not w (no default), b (no value) or c (not annotated)
    (tmp_path / "a.py").write_text(
        "def f(x, y=1, *, z=2, w):\n    return lambda q=3: q\n\n\n"
        "class C:\n    a: int = 0\n    b: int\n    c = 5\n")
    (tmp_path / "b.txt").write_text("not python\n")
    script = str(SCRIPTS / "code_size.py")
    result = subprocess.run([sys.executable, script, str(tmp_path)],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["lines", "8", "settable", "4"]
    result = subprocess.run([sys.executable, script], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert [int(n) for n in result.stdout.split()[1::2]] > [0, 0]
