import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from torusflux.cli import main
from torusflux.config import ConfigError, ExperimentConfig, apply_overrides, load_config

SMALL_CONFIG = """
[torus]
resolution = 16

[run]
steps = 50
seed = 3

[scenario]
pair_count = 2
cocycle_pairs = 2
sample_count = 8
sequence_length = 2
iterate_count = 3
"""


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def small_config(tmp_path):
    path = tmp_path / "small.ini"
    path.write_text(SMALL_CONFIG)
    return path


class TestConfig:
    def test_load_and_validate(self, small_config):
        cfg = load_config(small_config)
        assert cfg.resolution == 16
        assert cfg.pair_count == 2

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[torus]\nresolutionn = 32\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[grid]\nresolution = 32\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_invalid_values(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(resolution=7).validate()
        with pytest.raises(ConfigError):
            ExperimentConfig(steps=10).validate()

    def test_key_types_follow_the_field_defaults(self, tmp_path):
        path = tmp_path / "typed.ini"
        path.write_text("[scenario]\nshear_amplitude = 1\n")
        cfg = load_config(path)
        assert type(cfg.shear_amplitude) is float and cfg.shear_amplitude == 1.0
        assert ExperimentConfig().dim == 2

    def test_overrides(self):
        cfg = apply_overrides(ExperimentConfig(), resolution=32, seed=None)
        assert cfg.resolution == 32
        assert cfg.seed == 0


class TestRejectedSettings:
    """Removed settings and ill-typed values are usage errors (exit 2)."""

    @pytest.mark.parametrize("command", [["verify"], ["scenario", "flux"]])
    def test_tolerance_flag(self, runner, tmp_path, command):
        result = runner.invoke(
            main, command + ["--tolerance", "1", "--out", str(tmp_path)]
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize("text", [
        "[run]\ntolerance = 1e-6\n",
        "[scenario]\nexperiment = verify\n",
        "[torus]\ndim = 2\n",
        "[run]\nsteps = 1.5\n",
    ])
    def test_config_file(self, runner, tmp_path, text):
        path = tmp_path / "bad.ini"
        path.write_text(text)
        result = runner.invoke(
            main, ["verify", "--config", str(path), "--out", str(tmp_path)]
        )
        assert result.exit_code == 2


class TestResolution:
    """flux-02 builds a torus at N/2, so N/2 must be a valid grid too."""

    @pytest.mark.parametrize("resolution", ["12", "18"])
    def test_half_grid_invalid_is_a_usage_error(self, runner, tmp_path, resolution):
        result = runner.invoke(
            main, ["scenario", "flux", "--resolution", resolution, "--out", str(tmp_path)]
        )
        assert result.exit_code == 2, result.output
        assert "multiple of 4" in result.output

    def test_sixteen_is_accepted(self, runner, small_config, tmp_path):
        result = runner.invoke(
            main, ["scenario", "flux", "--config", str(small_config),
                   "--resolution", "16", "--out", str(tmp_path)]
        )
        assert result.exit_code in (0, 1), result.output
        assert not isinstance(result.exception, ValueError)
        assert "flux-02-cocycle-refinement" in result.output


class TestScenarioCommand:
    def test_list_names_every_scenario(self, runner):
        from torusflux.scenarios import scenario_names

        result = runner.invoke(main, ["scenario", "list"])
        assert result.exit_code == 0
        assert result.output.split() == list(scenario_names())
        assert len(scenario_names()) == 8

    def test_unknown_scenario_usage_error(self, runner, tmp_path):
        result = runner.invoke(
            main, ["scenario", "nonsense", "--out", str(tmp_path)]
        )
        assert result.exit_code == 2

    def test_error_inside_scenario_is_not_a_usage_error(
        self, runner, small_config, tmp_path, monkeypatch
    ):
        from torusflux import scenarios

        def broken(bench):
            raise KeyError("missing table")

        monkeypatch.setitem(scenarios._SCENARIOS, "iteration-growth", broken)
        result = runner.invoke(
            main,
            ["scenario", "iteration-growth", "--config", str(small_config),
             "--out", str(tmp_path)],
        )
        # a failed check, as in verify: reports written, exit code 1
        assert result.exit_code == 1, result.output
        assert "FAIL  iteration-growth-error" in result.output
        csv_text = (tmp_path / "report.csv").read_text()
        assert "iteration-growth-error,KeyError: 'missing table',1,0,0,false" in csv_text
        payload = json.loads((tmp_path / "report.json").read_text())
        assert not payload["all_pass"] and len(payload["rows"]) == 1

    def test_missing_config_usage_error(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["verify", "--config", str(tmp_path / "nope.ini"), "--out", str(tmp_path)],
        )
        assert result.exit_code == 2

    def test_scenario_runs_and_writes(self, runner, small_config, tmp_path):
        out = tmp_path / "reports"
        result = runner.invoke(
            main,
            ["scenario", "iteration-growth", "--config", str(small_config),
             "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        assert (out / "report.csv").exists()
        assert (out / "report.json").exists()
        assert (out / "growth.csv").exists()
        payload = json.loads((out / "report.json").read_text())
        assert payload["schema"] == 1
        assert payload["all_pass"] is True
        assert payload["config"]["resolution"] == 16

    def test_exit_one_on_failure(self, runner, small_config, tmp_path):
        # N = 16 is below the accuracy the exact-law check needs, so the
        # run completes but reports a failure
        out = tmp_path / "reports"
        result = runner.invoke(
            main,
            ["scenario", "defect-survey", "--config", str(small_config),
             "--out", str(out)],
        )
        assert result.exit_code == 1
        rows = (out / "report.csv").read_text().splitlines()
        assert rows[0].startswith("check_id,anchor,value")
        assert any(",false" in row for row in rows[1:])

    def test_a_survey_pair_that_raises_fails_the_rows_and_keeps_the_others(
        self, runner, tmp_path
    ):
        # at N = 16, K = 100 and seed 0 the third pair's pullback is
        # under-resolved (displacement raises ValueError); the first two are not
        tables = {}
        for pairs in (3, 2):
            config = tmp_path / f"pairs{pairs}.ini"
            config.write_text(f"[scenario]\npair_count = {pairs}\n")
            out = tmp_path / f"out{pairs}"
            result = runner.invoke(
                main,
                ["scenario", "defect-survey", "--config", str(config),
                 "--resolution", "16", "--steps", "100", "--out", str(out)],
            )
            tables[pairs] = (out / "defects.csv").read_text().splitlines()
            if pairs == 3:
                assert result.exit_code == 1, result.output
                rows = {row["check_id"]: row for row in
                        json.loads((out / "report.json").read_text())["rows"]}
                assert sorted(rows) == ["defect-01-bound", "defect-02-exact-law"]
                for row in rows.values():
                    assert not row["passed"]
                    assert ("1 of 3 pairs raised, first pair 2: ValueError: "
                            "pullback is under-resolved") in row["anchor"]
        # the good pairs keep their values; the pair that raised reads nan
        assert tables[3][:3] == tables[2]
        assert tables[3][3] == "2,nan,2,nan"

    def test_seed_reproducibility(self, runner, small_config, tmp_path):
        outs = []
        for run in ("a", "b"):
            out = tmp_path / run
            result = runner.invoke(
                main,
                ["scenario", "defect-survey", "--config", str(small_config),
                 "--out", str(out)],
            )
            assert result.exit_code in (0, 1)
            outs.append((out / "report.csv").read_bytes()
                        + (out / "defects.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_seed_changes_tables(self, runner, small_config, tmp_path):
        blobs = []
        for seed in ("3", "4"):
            out = tmp_path / f"s{seed}"
            runner.invoke(
                main,
                ["scenario", "defect-survey", "--config", str(small_config),
                 "--out", str(out), "--seed", seed],
            )
            blobs.append((out / "defects.csv").read_bytes())
        assert blobs[0] != blobs[1]


class TestSaveLoad:
    def test_save_then_load(self, runner, tmp_path):
        path = tmp_path / "iso.npz"
        result = runner.invoke(
            main,
            ["save", str(path), "--family", "shear", "--resolution", "16",
             "--steps", "50"],
        )
        assert result.exit_code == 0, result.output
        result = runner.invoke(main, ["load", str(path)])
        assert result.exit_code == 0
        assert "N=16" in result.output

    def test_load_resampled(self, runner, tmp_path):
        path = tmp_path / "iso.npz"
        runner.invoke(
            main,
            ["save", str(path), "--family", "translation-loop",
             "--resolution", "16", "--steps", "50"],
        )
        result = runner.invoke(main, ["load", str(path), "--resolution", "32"])
        assert result.exit_code == 0
        assert "N=32" in result.output

    def test_load_corrupt_exits_two(self, runner, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"garbage")
        result = runner.invoke(main, ["load", str(path)])
        assert result.exit_code == 2


class TestVerifyErrorRows:
    """A part of verify that raises becomes a FAIL row; the rest still runs."""

    @pytest.fixture()
    def stub_parts(self, monkeypatch):
        from torusflux import scenarios
        from torusflux.reporting import ReportRow

        def passing(name):
            return lambda bench: ([ReportRow(f"{name}-01", "stub", 0.0, 0.0, 0.0)], {})

        def raising(bench):
            raise FloatingPointError("stub overflow")

        for name in scenarios.scenario_names():
            monkeypatch.setitem(scenarios._SCENARIOS, name, passing(name))
        monkeypatch.setitem(scenarios._SCENARIOS, "rigidity", raising)
        monkeypatch.setattr(scenarios, "_displacement_rows",
                            lambda bench: passing("disp")(bench)[0])
        monkeypatch.setattr(scenarios, "_hofer_rows", raising)

    def test_failing_parts_become_error_rows(self, stub_parts, caplog):
        from torusflux.scenarios import run_verify

        with caplog.at_level("ERROR", logger="torusflux.scenarios"):
            rows, _ = run_verify(ExperimentConfig())
        by_id = {r.check_id: r for r in rows}
        # every other part ran, also the ones after the failures
        assert {"flux-01", "factorization2-01", "disp-01"} <= set(by_id)
        assert "rigidity-01" not in by_id
        for part in ("rigidity", "hofer"):
            row = by_id[f"{part}-error"]
            assert row.value == 1.0 and not row.passed
            assert row.anchor == "FloatingPointError: stub overflow"
        assert sum("Traceback" in r.exc_text for r in caplog.records
                   if r.exc_text) == 2

    def test_verify_writes_reports_and_exits_one(self, runner, stub_parts, tmp_path):
        result = runner.invoke(main, ["verify", "--out", str(tmp_path)])
        assert result.exit_code == 1, result.output
        csv_text = (tmp_path / "report.csv").read_text()
        assert "rigidity-error,FloatingPointError: stub overflow,1,0,0,false" in csv_text
        payload = json.loads((tmp_path / "report.json").read_text())
        assert not payload["all_pass"]
        assert len(payload["rows"]) == 10  # 7 scenarios, disp, 2 errors


def test_runtime_imports_no_scipy_solver_package():
    # the lab owns its Simpson rules and the cutoff's spline: at run time
    # only numpy and scipy.ndimage are imported
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    heavy = ["scipy.integrate", "scipy.interpolate", "scipy.optimize",
             "scipy.sparse", "scipy.linalg"]
    code = ("import sys, torusflux.scenarios, torusflux.cli; "
            f"print([m for m in {heavy!r} if m in sys.modules])")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, env=env, check=True)
    assert result.stdout.strip() == "[]"
