"""Spans around the program's public entry points, installed from outside.

``Tracer.install`` replaces each traced function or method by a wrapper that
records a span (calls, inclusive time, self time, errors and a few counts
taken from the arguments) and rebinds every reference a ``torusflux``
module holds to it.  Nothing inside ``src/`` changes.  Self time is a
span's duration minus the time covered by its child spans.

Byte figures (``*_bytes_max``) are computed from array shapes, not measured.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import pkgutil
import statistics
import sys
import time
from collections import Counter, defaultdict

import numpy as np

SMALL_SPECTRAL_POINTS = 64
FFT_FUNCTIONS = ("grad", "divergence", "solve_poisson", "hodge_decompose")
# the ``kind`` of the field a random_conservative_isotopy draw flows
# (translations are "harmonic")
DRAW_KINDS = ("conservative", "hamiltonian", "harmonic")
# spans that enclose the whole call; their self time is unattributed time
ROOT_SPANS = ("scenarios.run_scenario", "scenarios.run_verify")


class Stat:
    """Totals of one span name."""

    __slots__ = ("calls", "s", "self_s", "errors", "counts", "maxima", "samples")

    def __init__(self) -> None:
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.errors = 0
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self.samples: defaultdict[str, list[float]] = defaultdict(list)


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _point_count(points) -> int:
    shape = np.shape(points)
    return 1 if len(shape) < 2 else math.prod(shape[:-1])


# observers run after a span returns: (tracer, stat, seconds, args, kwargs, result)


def _rk4(tr, stat, dur, args, kwargs, result):
    points = _arg(args, kwargs, 1, "points")
    steps = _arg(args, kwargs, 2, "steps")
    n, d = _point_count(points), np.shape(points)[-1]
    stat.counts["point_steps"] += n * steps
    stat.maxima["traj_bytes"] = max(stat.maxima["traj_bytes"], (steps + 1) * n * d * 8)


def _draw(tr, stat, dur, args, kwargs, result):
    stat.samples[result.kind].append(dur * 1e3)


def _latency(tr, stat, dur, args, kwargs, result):
    stat.samples["ms"].append(dur * 1e3)


def _spectral(tr, stat, dur, args, kwargs, result):
    torus = _arg(args, kwargs, 0, "torus")
    n = _point_count(_arg(args, kwargs, 2, "points"))
    stat.counts["points"] += n
    stat.counts["small_calls"] += n <= SMALL_SPECTRAL_POINTS
    dense = n * torus.grid_res ** (torus.dim - 1) * 16
    stat.maxima["dense_bytes"] = max(stat.maxima["dense_bytes"], dense)


def _interp_build(tr, stat, dur, args, kwargs, result):
    torus = _arg(args, kwargs, 1, "torus")
    size = np.size(_arg(args, kwargs, 2, "samples"))
    stat.counts["fields"] += size // torus.grid_res ** torus.dim
    if tr.active["flows.eval_orbit"]:
        tr.stats["flows.eval_orbit"].counts["interp_builds"] += 1


def _interp_eval(tr, stat, dur, args, kwargs, result):
    stat.counts["points"] += _point_count(_arg(args, kwargs, 1, "points"))
    if tr.active["flows.inverse"]:
        tr.stats["flows.inverse"].counts["interp_evals"] += 1


def _scenario(tr, stat, dur, args, kwargs, result):
    stat.counts[_arg(args, kwargs, 0, "name")] += dur


# (span name, module, function or Class.method, observer)
TARGETS = (
    ("flows.rk4", "flows", "integrate_trajectories", _rk4),
    ("flows.field_eval", "flows", "TimeField.__call__", None),
    ("flows.flow", "flows", "flow", None),
    ("flows.compose", "flows", "GridMap.compose", None),
    ("flows.inverse", "flows", "GridMap.inverse", None),
    ("flows.eval_orbit", "flows", "Isotopy.eval_orbit", None),
    ("families.draw", "families", "random_conservative_isotopy", _draw),
    ("torus.eval_spectral", "torus", "eval_spectral", _spectral),
    ("torus.interp.build", "torus", "PeriodicInterp.__init__", _interp_build),
    ("torus.interp.eval", "torus", "PeriodicInterp.at", _interp_eval),
    *(("torus.fft", "torus", name, None) for name in FFT_FUNCTIONS),
    ("displacement.composition_defect", "displacement", "composition_defect",
     _latency),
    ("flux.cocycle_residual", "flux", "cocycle_residual", None),
    ("hofer.lengths", "hofer", "lengths", None),
    ("paths.concat", "paths", "concat_left", None),
    ("paths.concat", "paths", "concat_right", None),
    ("scenarios.run_scenario", "scenarios", "run_scenario", _scenario),
    ("scenarios.run_verify", "scenarios", "run_verify", None),
)


def program_modules() -> list:
    """Every ``torusflux`` module, imported."""
    import torusflux

    for info in pkgutil.iter_modules(torusflux.__path__):
        importlib.import_module(f"torusflux.{info.name}")
    return [m for name, m in sorted(sys.modules.items())
            if name == "torusflux" or name.startswith("torusflux.")]


def _namespaces(modules):
    """``(label, owner, namespace)`` for module globals and for the
    attributes of the classes the modules define."""
    for module in modules:
        yield module.__name__, module, vars(module)
        for cls in list(vars(module).values()):
            if inspect.isclass(cls) and cls.__module__ == module.__name__:
                yield f"{module.__name__}.{cls.__qualname__}", cls, cls.__dict__


class Tracer:
    """Span totals for one traced process."""

    def __init__(self) -> None:
        self.stats: defaultdict[str, Stat] = defaultdict(Stat)
        self.active: Counter = Counter()  # open spans by name
        self._child = [0.0]  # child time of each open span, outermost first
        self._undo: list[tuple[object, str, object]] = []
        self.originals: dict[int, object] = {}

    def wrap(self, name: str, fn, observe=None):
        stat, active, child, clock = self.stats[name], self.active, self._child, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            child.append(0.0)
            active[name] += 1
            ok = False
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                dur = clock() - t0
                active[name] -= 1
                inner = child.pop()
                child[-1] += dur
                stat.calls += 1
                stat.s += dur
                stat.self_s += dur - inner
                stat.errors += not ok
            if observe is not None:
                observe(self, stat, dur, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target and rebind every reference to it."""
        modules = program_modules()
        for span, module, qualname, observe in TARGETS:
            owner = sys.modules[f"torusflux.{module}"]
            *cls, attr = qualname.split(".")
            if cls:
                owner = getattr(owner, cls[0])
            original = vars(owner)[attr]
            wrapper = self.wrap(span, original, observe)
            self.originals[id(original)] = original
            for _, target, space in _namespaces(modules):
                for key, value in list(space.items()):
                    if value is original:
                        setattr(target, key, wrapper)
                        self._undo.append((target, key, original))

    def restore(self) -> None:
        """Put the original functions back."""
        for target, key, original in reversed(self._undo):
            setattr(target, key, original)
        self._undo.clear()

    def unwrapped_references(self) -> list[str]:
        """Places in ``torusflux`` modules that still hold a traced original."""
        found = []
        for where, _, space in _namespaces(program_modules()):
            for key, value in space.items():
                if id(value) in self.originals:
                    found.append(f"{where}.{key}")
                for default in getattr(value, "__defaults__", None) or ():
                    if id(default) in self.originals:
                        found.append(f"{where}.{key} (default argument)")
        return found


def _median(samples: list[float]) -> float:
    return statistics.median(samples) if samples else 0.0


def _p75(samples: list[float]) -> float:
    return statistics.quantiles(samples, n=4)[2] if len(samples) > 1 else _median(samples)


def layer_metrics(tr: Tracer, traced_wall: float, untraced_wall: float) -> dict[str, float]:
    """Every per-layer metric (``per_layer`` in BENCHMARK.json) of one traced call."""
    from torusflux.scenarios import scenario_names

    st = tr.stats
    out: dict[str, float] = {}
    for span in ("flows.rk4", "torus.eval_spectral", "torus.interp.build",
                 "torus.interp.eval", "flows.inverse", "flows.compose",
                 "torus.fft", "displacement.composition_defect",
                 "flux.cocycle_residual", "hofer.lengths", "paths.concat"):
        out[f"{span}.self_s"] = st[span].self_s
    for span in ("flows.field_eval", "flows.flow", "torus.eval_spectral",
                 "torus.interp.build", "torus.interp.eval", "flows.inverse",
                 "flows.compose", "flows.eval_orbit", "torus.fft",
                 "displacement.composition_defect", "flux.cocycle_residual",
                 "hofer.lengths", "paths.concat"):
        out[f"{span}.calls"] = st[span].calls
    out["flows.rk4.point_steps"] = st["flows.rk4"].counts["point_steps"]
    out["flows.rk4.traj_bytes_max"] = st["flows.rk4"].maxima["traj_bytes"]
    out["flows.field_eval.s"] = st["flows.field_eval"].s
    for kind in DRAW_KINDS:
        out[f"families.draw.{kind}.ms_p50"] = _median(st["families.draw"].samples[kind])
    spectral = st["torus.eval_spectral"]
    out["torus.eval_spectral.points"] = spectral.counts["points"]
    out["torus.eval_spectral.small_calls"] = spectral.counts["small_calls"]
    out["torus.eval_spectral.dense_bytes_max"] = spectral.maxima["dense_bytes"]
    out["torus.interp.build.fields"] = st["torus.interp.build"].counts["fields"]
    out["torus.interp.eval.points"] = st["torus.interp.eval"].counts["points"]
    out["torus.interp.points_per_build"] = (
        st["torus.interp.eval"].counts["points"] / max(st["torus.interp.build"].calls, 1)
    )
    out["flows.inverse.interp_evals"] = st["flows.inverse"].counts["interp_evals"]
    out["flows.inverse.errors"] = st["flows.inverse"].errors
    out["flows.eval_orbit.interp_builds"] = st["flows.eval_orbit"].counts["interp_builds"]
    defect = st["displacement.composition_defect"].samples["ms"]
    out["displacement.composition_defect.ms_p50"] = _median(defect)
    out["displacement.composition_defect.ms_p75"] = _p75(defect)
    per_scenario = st["scenarios.run_scenario"].counts
    for name in scenario_names():
        out[f"scenarios.{name}.s"] = per_scenario[name]
    verify_s = st["scenarios.run_verify"].s
    out["scenarios.rows_rest.s"] = verify_s - sum(per_scenario.values()) if verify_s else 0.0
    attributed = sum(s.self_s for name, s in st.items() if name not in ROOT_SPANS)
    out["trace.coverage"] = attributed / traced_wall
    out["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    out["trace.unattributed_s"] = traced_wall - attributed
    return out
