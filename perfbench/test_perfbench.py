"""The benchmark's own checks: ``python3 -m pytest -q perfbench``."""

from __future__ import annotations

import json
import sys
from dataclasses import astuple
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SMALL = dict(resolution=16, steps=50, pair_count=2)


@pytest.fixture
def tracer():
    tr = spans.Tracer()
    tr.install()
    yield tr
    tr.restore()


def test_every_binding_site_is_wrapped(tracer):
    assert tracer.unwrapped_references() == []
    import torusflux
    from torusflux import displacement, flows, flux, torus

    # bound by name at import in several modules (GridMap.compose imports
    # eval_spectral at call time and so reads torus.eval_spectral)
    for name, homes in (("eval_spectral", (torusflux, displacement, flux)),
                        ("grad", (flows,)),
                        ("hodge_decompose", (torusflux, displacement, flows)),
                        ("flow", (torusflux,))):
        source = flows if name == "flow" else torus
        wrapper = getattr(source, name)
        assert wrapper.__wrapped__ is not wrapper
        for module in homes:
            assert getattr(module, name) is wrapper, (module.__name__, name)
    assert flux.integrate_trajectories is flows.integrate_trajectories
    assert set(tracer.stats) == {span for span, *_ in spans.TARGETS}


def test_restore_leaves_originals_the_check_detects(tracer):
    tracer.restore()
    found = tracer.unwrapped_references()
    assert "torusflux.displacement.eval_spectral" in found
    assert "torusflux.flows.GridMap.compose" in found


def _survey(config):
    from torusflux.scenarios import run_scenario

    return run_scenario("defect-survey", config)[0]


def test_traced_call_gives_identical_rows_and_counts_layers(tracer):
    from torusflux.config import ExperimentConfig

    config = ExperimentConfig(**SMALL).validate()
    traced = _survey(config)
    metrics = spans.layer_metrics(tracer, traced_wall=1.0, untraced_wall=1.0)
    tracer.restore()
    assert [astuple(r)[:5] for r in _survey(config)] == [astuple(r)[:5] for r in traced]
    assert sorted(metrics) == sorted(_names("per_layer"))
    assert metrics["displacement.composition_defect.calls"] == 2
    assert sum(metrics[f"families.draw.{kind}.ms_p50"] for kind in spans.DRAW_KINDS) > 0
    assert metrics["flows.rk4.point_steps"] >= metrics["flows.flow.calls"] * 16 * 16 * 50 > 0
    assert metrics["torus.eval_spectral.calls"] > 0
    assert metrics["scenarios.defect-survey.s"] > 0


def test_missing_and_failing_rows_count_as_failed():
    expected = ("a", "b", "c")
    calls = [
        {"rows": [["a", 0.0, 0.0, 1.0, True], ["b", 2.0, 0.0, 1.0, False],
                  ["x", 0.0, 0.0, 1.0, True]]},
        {"rows": None, "error": "Traceback ..."},  # the call raised
    ]
    assert run.score(expected, calls) == (4 + 3, 2 + 3)
    assert run.tightest_row(calls) == ("b", -1.0)


def test_benchmark_json_matches_the_code():
    assert _names("workloads") == list(WORKLOADS)
    call = {"wall_s": 1.0, "setup_s": 0.5, "peak_rss_mb": 9.0,
            "rows": [["a", 0.0, 0.0, 1.0, True]]}
    assert list(run.end_to_end([call], [call], 1, 0)) == _names("end_to_end")


def _names(key):
    return [entry["name"] for entry in json.loads((ROOT / "BENCHMARK.json").read_text())[key]]
