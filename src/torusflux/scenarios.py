"""Named experiments producing structured verification reports.

Each scenario runs a family of checks at the configured grid size and seed
and returns :class:`ReportRow` records plus optional tabular extras (survey
tables, plot data).  Scenarios read their configuration and the canonical
isotopies from one :class:`Workbench`; the ``verify`` entry point builds a
single workbench and runs every scenario's core checks on it, so each
canonical isotopy is built once per run.  Identical configuration and seed
give bit-identical tables.

All randomness flows from one seeded generator per scenario call.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from . import displacement as disp_mod
from . import flux as flux_mod
from . import hofer as hofer_mod
from .config import ExperimentConfig
from .families import (
    TrigHamiltonian,
    _shear_evaluator,
    hamiltonian_loop,
    hamiltonian_shear,
    random_conservative_isotopy,
    shear_profile,
    standard_shear,
    translation_isotopy,
    translation_loop,
    wiggled_translation_loop,
    x_shear_field,
)
from .flows import (
    FlatTorus,
    TimeField,
    compose_pointwise,
    constant_field,
    flow_end,
    flow_tolerance,
    harmonic_isotopy,
    identity_isotopy,
)
from .paths import concat_trace, make_cutoff, reparametrized
from .reporting import ReportRow
from .torus import OneForm, integrate, minimal_geodesic, poincare_pair

log = logging.getLogger(__name__)


@dataclass
class Workbench:
    """Configuration plus the canonical isotopies, built lazily and shared.

    Isotopy arrays are read-only, so every scenario handed the same
    workbench sees the same data.
    """

    config: ExperimentConfig

    @cached_property
    def torus(self) -> FlatTorus:
        return FlatTorus(self.config.dim, self.config.resolution, symplectic=True)

    @cached_property
    def shear(self):
        return standard_shear(self.torus, self.config.steps,
                              self.config.shear_amplitude)

    @cached_property
    def hamiltonian_shear(self):
        return hamiltonian_shear(self.torus, self.config.steps)

    @cached_property
    def translation_loop(self):
        return translation_loop(self.torus, self.config.steps, (1, 0))

    @cached_property
    def hamiltonian_loop(self):
        return hamiltonian_loop(
            self.torus, self.config.steps,
            np.random.default_rng(self.config.seed + 7),
            amplitude=self.config.hamiltonian_amplitude,
        )

    @cached_property
    def half_translation(self):
        return translation_isotopy(self.torus, self.config.steps, (0.5, 0.0))

    @cached_property
    def dx(self) -> OneForm:
        return OneForm.harmonic_form(self.torus, [1.0] + [0.0] * (self.torus.dim - 1))


class _Timer:
    """Row collector; each row's runtime is the time since the previous row
    (or since the collector was created)."""

    def __init__(self):
        self.rows: list[ReportRow] = []
        self._last = time.perf_counter()

    def add(self, check_id: str, anchor: str, value: float,
            tolerance: float, bound: float = 0.0):
        now = time.perf_counter()
        self.rows.append(ReportRow(check_id, anchor, float(value), float(bound),
                                   float(tolerance),
                                   runtime_ms=(now - self._last) * 1e3))
        self._last = now


# ---------------------------------------------------------------------------
# flux scenario
# ---------------------------------------------------------------------------


def scenario_flux(bench: Workbench) -> tuple[list[ReportRow], dict]:
    config = bench.config
    torus = bench.torus
    rng = np.random.default_rng(config.seed)
    out = _Timer()

    # cocycle identity over seeded conservative pairs; the test form carries
    # an exact part so that the identity is not linear-exact in the data
    def cocycle_form(tt: FlatTorus) -> OneForm:
        pot = (
            np.sin(2 * np.pi * tt.grid[0]) * np.sin(2 * np.pi * tt.grid[1]) / 25.0
        )
        return OneForm(tt, [1.0] + [0.0] * (tt.dim - 1), pot)

    # the residual reads 21 slices of each draw through 4-point time windows,
    # so the draws are stored; each pair is released before the next is drawn
    def worst_cocycle(tt: FlatTorus, draws: np.random.Generator, pairs: int) -> float:
        form = cocycle_form(tt)
        worst = 0.0
        for _ in range(pairs):
            worst = max(worst, flux_mod.cocycle_residual(
                random_conservative_isotopy(tt, draws, config.steps),
                random_conservative_isotopy(tt, draws, config.steps), form))
        return worst

    out.add("flux-01-cocycle", "flux cocycle identity",
            worst_cocycle(torus, rng, config.cocycle_pairs), 1e-5)

    # refinement: same seeded pairs at half and full resolution
    res_by_n = {}
    for n in (config.resolution // 2, config.resolution):
        sub = FlatTorus(config.dim, n, symplectic=True)
        res_by_n[n] = worst_cocycle(sub, np.random.default_rng(config.seed + 1), 8)
    ratio = res_by_n[config.resolution // 2] / max(res_by_n[config.resolution], 1e-16)
    out.add("flux-02-cocycle-refinement", "flux cocycle refinement",
            4.0 - ratio, 0.0, bound=0.0)

    # canonical flux classes
    fc = flux_mod.flux_class(bench.shear).pairings
    expected = np.zeros(torus.dim)
    expected[0] = config.shear_amplitude / 2.0
    out.add("flux-03-shear-class", "flux of the standard shear",
            float(np.abs(fc - expected).max()), 1e-7)
    fc = flux_mod.flux_class(bench.hamiltonian_shear).norm()
    out.add("flux-04-hamiltonian-class", "flux of a Hamiltonian flow",
            fc, 1e-7)
    fc = flux_mod.flux_class(bench.translation_loop).pairings
    loop_expected = np.zeros(torus.dim)
    loop_expected[0] = 1.0
    out.add("flux-05-translation-loop-class", "flux of a coordinate loop",
            float(np.abs(fc - loop_expected).max()), 1e-9)

    # group homomorphism under pointwise composition (endpoint only): each
    # draw is kept at its ends, so its stack is released at once
    worst = 0.0
    for _ in range(10):
        phi = random_conservative_isotopy(torus, rng, config.steps).ends()
        psi = random_conservative_isotopy(torus, rng, config.steps).ends()
        end = phi.time_one().compose(psi.time_one())
        combined = flux_mod._flux_class_at(torus, end.disp).pairings
        parts = (
            flux_mod.flux_class(phi).pairings
            + flux_mod.flux_class(psi).pairings
        )
        worst = max(worst, float(np.abs(combined - parts).max()))
    out.add("flux-06-homomorphism", "flux additivity under composition",
            worst, 1e-6)

    # defining equation of the flux function
    mixed = OneForm(
        torus, [1.0] + [0.0] * (torus.dim - 1),
        np.sin(2 * np.pi * torus.grid[0]) * np.sin(2 * np.pi * torus.grid[1]) / 10,
    )
    worst = max(
        flux_mod.flux_pde_residual(mixed, bench.shear, t)
        for t in (0.2, 0.4, 0.6, 0.8, 1.0)
    )
    out.add("flux-07-gradient-identity", "flux function differential identity",
            worst, flow_tolerance(config.resolution, 10.0) * 10)

    # representative independence
    base_val = poincare_pair(bench.dx.harmonic,
                             flux_mod.flux_class(bench.shear))
    shifted = OneForm(torus, bench.dx.harmonic,
                      np.cos(2 * np.pi * torus.grid[1]) / 7)
    shifted_val = integrate(
        torus, flux_mod.flux_function(shifted, bench.shear, 1.0)
    )
    out.add("flux-08-representative-independence",
            "independence of the exact part",
            abs(base_val - shifted_val), 1e-9)

    # reparametrization invariance of the endpoint flux function; each
    # reparametrized stack is released before the next is built
    worst = 0.0
    for warp in (lambda s: s**2, lambda s: s**3 * (4 - 3 * s),
                 lambda s: 0.5 * (1 - np.cos(np.pi * s))):
        worst = max(
            worst,
            float(np.abs(
                flux_mod.flux_function(bench.dx, reparametrized(bench.shear, warp), 1.0)
                - flux_mod.flux_function(bench.dx, bench.shear, 1.0)
            ).max()),
        )
    out.add("flux-09-homotopy-invariance",
            "endpoint flux under time reparametrization", worst, 1e-8)

    # factorizations through the partial paths
    rows = flux_mod.factorization1_check(lambda t: bench.dx, bench.shear)
    worst = max(r[3] for r in rows)
    out.add("flux-10-factorization-shear", "flux factorization, shear",
            worst, 1e-5)

    def mixed_family(t: float) -> OneForm:
        coeffs = np.zeros(torus.dim)
        coeffs[0] = 1.0 - t
        coeffs[1] = t
        return OneForm.harmonic_form(torus, coeffs)

    rows = flux_mod.factorization1_check(
        mixed_family, bench.translation_loop, ts=(0.2, 0.4, 0.5, 0.8, 1.0)
    )
    worst = max(r[3] for r in rows)
    mid = [r for r in rows if abs(r[0] - 0.5) < 1e-12]
    value_err = abs(mid[0][1] - 0.25) if mid else 1.0
    out.add("flux-11-factorization-translation",
            "flux factorization, mixed family", max(worst, value_err),
            1e-6)
    exact = OneForm.exact_form(torus, np.sin(2 * np.pi * torus.grid[0]) / 5)
    rows = flux_mod.factorization1_check(lambda t: exact, bench.shear)
    worst = max(max(abs(r[1]), abs(r[2])) for r in rows)
    out.add("flux-12-factorization-exact", "flux factorization, exact form",
            worst, 1e-6)

    # orbit homology
    value, dev = flux_mod.loop_orbit_constancy(bench.translation_loop, bench.dx)
    out.add("flux-13-orbit-constancy", "orbit integrals along a loop",
            max(abs(value - 1.0), dev), 1e-6)
    report = flux_mod.rigidity_experiment(
        [bench.hamiltonian_loop], bench.hamiltonian_loop,
        sample_points=np.random.default_rng(config.seed + 2).uniform(
            size=(16, torus.dim)
        ),
    )
    max_winding = float(np.abs(report.windings).max()) if report.windings is not None else 1.0
    out.add("flux-14-hamiltonian-loop-windings",
            "contractibility of Hamiltonian loop orbits",
            max_winding, 0.0)

    # zero flux iff contractible orbits, both directions
    ham_fc = flux_mod.flux_class(bench.hamiltonian_loop).norm()
    out.add("flux-15-kernel-forward", "zero flux from contractible orbits",
            ham_fc, 1e-6)
    out.add("flux-16-kernel-converse", "nonzero flux forces winding",
            1.0 - abs(value), 1e-6)

    # orbit criterion for flux equality
    # the verdicts read the concatenations' time-one maps only
    same = concat_trace(bench.shear, bench.hamiltonian_loop, None, left=False)
    verdict = flux_mod.flux_equality_via_orbits(bench.shear, same, (0.3, 0.7))
    gap = float(np.abs(verdict.flux_psi - verdict.flux_phi).max())
    out.add("flux-17-orbit-criterion", "equal flux from contractible difference",
            gap if verdict.contractible else 1.0, 1e-6)
    other = concat_trace(bench.shear, bench.translation_loop, None, left=False)
    verdict = flux_mod.flux_equality_via_orbits(bench.shear, other, (0.3, 0.7))
    expected_gap = np.zeros(torus.dim)
    expected_gap[0] = 1.0
    control = float(
        np.abs((verdict.flux_psi - verdict.flux_phi) - expected_gap).max()
    ) + (0.0 if not verdict.contractible else 1.0)
    out.add("flux-18-orbit-criterion-control",
            "winding obstruction detected", control, 1e-6)

    # finite-order cycles
    rep2 = flux_mod.order_cycle_test(bench.half_translation, 2)
    val = rep2.relation_residual + (0.0 if tuple(rep2.cycle_winding[:2]) == (1, 0) else 1.0)
    out.add("flux-19-order-two", "finite-order cycle, order 2", val, 1e-5)
    third = translation_isotopy(torus, config.steps, (1.0 / 3.0, 0.0))
    rep3 = flux_mod.order_cycle_test(third, 3)
    val = rep3.relation_residual + (0.0 if tuple(rep3.cycle_winding[:2]) == (1, 0) else 1.0)
    out.add("flux-20-order-three", "finite-order cycle, order 3", val, 1e-5)

    # surjectivity of the flux pairing
    target = 0.7 + rng.uniform(0.0, 2.0)
    scaled = flux_mod.scaled_to_target(
        x_shear_field(torus, shear_profile(config.shear_amplitude)),
        bench.dx, target, config.steps,
    )
    achieved = poincare_pair(bench.dx.harmonic,
                             flux_mod.flux_class(scaled))
    out.add("flux-21-surjectivity", "prescribed flux by time scaling",
            abs(achieved - target), 1e-7)

    # loop lattice generators
    lattice = flux_mod.flux_lattice(torus, steps=max(50, config.steps // 4))
    out.add("flux-22-loop-lattice", "coordinate loop lattice",
            float(np.abs(lattice - np.eye(torus.dim)).max()), 1e-9)

    return out.rows, {}


# ---------------------------------------------------------------------------
# displacement scenarios
# ---------------------------------------------------------------------------


def scenario_defect_survey(bench: Workbench) -> tuple[list[ReportRow], dict]:
    config = bench.config
    torus = bench.torus
    rng = np.random.default_rng(config.seed)
    out = _Timer()
    coeffs = bench.dx.harmonic
    base_point = np.zeros(torus.dim)

    records = []
    errors = []
    max_defect = 0.0
    max_exact = 0.0
    bound = 2.0  # 2 A(M)^2 on the unit-area torus
    for pair_id in range(config.pair_count):
        # the defect reads each draw at its ends only: a draw is stored in
        # full, as the benchmark's spans time per draw, and kept at its ends
        # at once, so its stack is released before the next draw
        psi = random_conservative_isotopy(torus, rng, config.steps).ends()
        phi = random_conservative_isotopy(torus, rng, config.steps).ends()
        try:
            report = disp_mod.composition_defect(psi, phi, coeffs, base_point)
        except Exception as exc:
            # a pair that raises has no value: its table row reads nan, and
            # both rows fail with the error, while the other pairs still count
            log.exception("defect survey pair %d failed", pair_id)
            errors.append(f"pair {pair_id}: {type(exc).__name__}: {exc}")
            records.append([pair_id, float("nan"), bound, float("nan")])
            continue
        records.append(
            [pair_id, report.defect, report.bound, report.bound - report.defect]
        )
        max_defect = max(max_defect, report.defect)
        max_exact = max(max_exact, report.exact_law_residual)
    failed = ""
    if errors:
        failed = f"; {len(errors)} of {config.pair_count} pairs raised, first {errors[0]}"
        max_defect = max_exact = float("nan")  # fails: nan is below no bound
    out.add("defect-01-bound", "quasi-morphism defect bound" + failed,
            max_defect, 0.0, bound=bound)
    out.add("defect-02-exact-law", "exact composition law" + failed, max_exact, 1e-5)
    extras = {
        "tables": {
            "defects.csv": (
                ["pair_id", "defect", "bound", "margin"], records,
            )
        }
    }
    return out.rows, extras


def scenario_separation(bench: Workbench) -> tuple[list[ReportRow], dict]:
    config = bench.config
    torus = bench.torus
    out = _Timer()

    wiggle = wiggled_translation_loop(
        torus, config.steps, rng=np.random.default_rng(config.seed + 3),
    )
    report = disp_mod.separation_check(wiggle, samples=config.sample_count)
    ok = report.hypothesis_met and report.min_margin is not None and report.min_margin > 0
    out.add("separation-01-wiggle", "orbits exceed endpoint distance",
            -(report.min_margin or -1.0) if ok else 1.0, 0.0)

    big = bench.shear
    rep2 = disp_mod.separation_check(big, samples=16)
    out.add("separation-02-hypothesis-control",
            "closeness hypothesis correctly rejected",
            0.0 if not rep2.hypothesis_met else 1.0, 0.0)

    small = translation_isotopy(torus, config.steps, (0.05, 0.0))
    rep3 = disp_mod.separation_check(small, samples=4)
    consistent = (not rep3.hypothesis_met) and rep3.delta0 <= rep3.c0_gap
    out.add("separation-03-translation-selfcheck",
            "geodesic translations reject the hypothesis",
            0.0 if consistent else 1.0, 0.0)
    return out.rows, {}


def scenario_rigidity(bench: Workbench) -> tuple[list[ReportRow], dict]:
    config = bench.config
    torus = bench.torus
    rng = np.random.default_rng(config.seed + 5)
    out = _Timer()

    # built one member at a time, as the experiment reads it
    seq = (
        hamiltonian_loop(
            torus, config.steps, np.random.default_rng(config.seed + 7),
            amplitude=config.hamiltonian_amplitude * (1.0 + 1.0 / (i + 1)),
        )
        for i in range(config.sequence_length)
    )
    limit = bench.hamiltonian_loop
    report = flux_mod.rigidity_experiment(
        seq, limit, sample_points=rng.uniform(size=(config.sample_count // 4 or 1,
                                                    torus.dim)),
    )
    winding = float(np.abs(report.windings).max()) if report.windings is not None else 1.0
    distances_ok = report.distances[-1] < report.distances[0]
    out.add("rigidity-01-limit-windings", "limit loop orbits contract",
            winding if report.hypothesis_ok and distances_ok else 1.0,
            0.0)

    bad = flux_mod.rigidity_experiment([bench.translation_loop],
                                       bench.translation_loop)
    out.add("rigidity-02-hypothesis-control", "nonzero flux sequence flagged",
            0.0 if not bad.hypothesis_ok else 1.0, 0.0)

    const = flux_mod.rigidity_experiment(
        [limit, limit], limit,
        sample_points=rng.uniform(size=(4, torus.dim)),
    )
    winding = float(np.abs(const.windings).max()) if const.windings is not None else 1.0
    out.add("rigidity-03-constant-sequence", "constant sequence windings",
            winding if const.hypothesis_ok else 1.0, 0.0)
    return out.rows, {}


# ---------------------------------------------------------------------------
# hofer scenarios
# ---------------------------------------------------------------------------


def scenario_iteration_growth(bench: Workbench) -> tuple[list[ReportRow], dict]:
    config = bench.config
    out = _Timer()
    report = hofer_mod.iteration_growth_check(bench.translation_loop,
                                              config.iterate_count)
    ratio_err = max(abs(r.ratio - report.k0) for r in report.rows)
    out.add("growth-01-ratio", "length growth ratio equals the flux pairing",
            ratio_err, 1e-6)
    lin = max(r.flux_linearity_residual for r in report.rows)
    out.add("growth-02-flux-linearity", "flux linearity under iteration",
            lin, 1e-6)
    out.add("growth-03-nonidentity", "iterates stay away from the identity",
            0.0 if report.all_nonidentity else 1.0, 0.0)

    half = bench.half_translation
    linf = hofer_mod.lengths(half).linf_length
    k0_half = flux_mod.flux_class(half).norm()
    out.add("growth-04-sup-length-bound", "flux pairing below the sup length",
            k0_half - linf, 1e-9)

    plot = [
        [r.power, r.length, r.ratio, report.k0] for r in report.rows
    ]
    extras = {
        "tables": {
            "growth.csv": (["power", "length", "ratio", "k0"], plot),
        }
    }
    return out.rows, extras


def scenario_deformation(bench: Workbench) -> tuple[list[ReportRow], dict]:
    config = bench.config
    torus = bench.torus
    out = _Timer()

    for idx, c in enumerate((0.1, 0.5, 2.0)):
        def loop_coeffs(t):
            return np.array([c * np.cos(2 * np.pi * t)] + [0.0] * (torus.dim - 1))

        fam = hofer_mod.mcduff_deformation(torus, loop_coeffs)
        refined = hofer_mod.mcduff_deformation(torus, loop_coeffs, s_res=128, t_res=128)
        margin = min(fam.slope_margin(), refined.slope_margin())
        out.add(f"deform-0{idx + 1}-slope-c{c}", "deformation slope bound",
                -margin, 0.0)
        if idx == 1:
            osc_rows = refined.oscillation_bound_rows()
            worst = max(v - b for _, v, b in osc_rows)
            out.add("deform-04-oscillation", "oscillation bound of the sweep",
                    worst, 1e-12)
            out.add("deform-05-endpoint", "deformation endpoints match",
                    refined.endpoint_residual, 1e-8)
    del fam, refined  # the straightening below reads neither family

    hs = bench.hamiltonian_shear

    def coeffs_of_t(t):
        coeffs = np.zeros(torus.dim)
        coeffs[0] = 0.3 * np.cos(2 * np.pi * t)
        return coeffs

    wiggle = harmonic_isotopy(torus, coeffs_of_t, config.steps)
    composite = compose_pointwise(wiggle, hs)
    straightened, report = hofer_mod.fgeo_deformation(composite)
    out.add("deform-06-straighten-harmonic", "straightened path is Hamiltonian",
            report.harmonic_residual, 1e-6)
    out.add("deform-07-straighten-endpoint", "straightening preserves endpoints",
            report.endpoint_gap, 1e-6)
    return out.rows, {}


def scenario_norm_comparison(bench: Workbench) -> tuple[list[ReportRow], dict]:
    out = _Timer()
    hs = bench.hamiltonian_shear
    fluxed = concat_trace(hs, bench.translation_loop, None, left=False)
    report = hofer_mod.norm_comparison_check(
        hs.time_one(), [("direct", hs)],
        fluxed_path=fluxed, matching_loop=bench.translation_loop,
    )
    out.add("normcmp-01-trivial-branch", "comparison with constant 6",
            -report.margin_six, 0.0)
    out.add("normcmp-02-lattice-branch", "comparison with constant 72/5",
            -(report.margin_72_5 if report.margin_72_5 is not None else -1.0), 0.0)
    out.add("normcmp-03-combined", "comparison with constant 144/5",
            -report.margin_144_5, 0.0)

    triv = identity_isotopy(bench.torus, 50)
    resid = hofer_mod.energy_invariance_check(
        hs.time_one(),
        [("direct", hs)],
        [("trivial", triv)],
    )
    out.add("normcmp-04-energy-invariance", "loop concatenation invariance",
            resid, 1e-9)
    return out.rows, {}


def scenario_factorization2(bench: Workbench) -> tuple[list[ReportRow], dict]:
    config = bench.config
    out = _Timer()
    res = min(config.resolution, 16)
    steps = min(config.steps, 100)
    torus4 = FlatTorus(4, max(res, 8), symplectic=True)

    # each check stores only the slices of its T^4 flow that it reads; the
    # flow never moves x1 or x3, so each profile is evaluated once, and the
    # field's cache of profile values is released with the check
    product_shear = TimeField(torus4, _shear_evaluator(
        (lambda y: 0.7 * (1 + np.sin(2 * np.pi * y)) / 2, 0, 1),
        (lambda y: 0.4 * (1 + np.cos(2 * np.pi * y)) / 2, 2, 3),
    ), "symplectic")
    report = flux_mod.factorization2_check(product_shear, steps, time_samples=21)
    del product_shear
    out.add("fact2-01-product-shear", "wedge factorization on the 4-torus",
            report.residual, 1e-4)

    rep2 = flux_mod.factorization2_check(
        constant_field(torus4, (1, 0, 0, 0)), max(50, steps // 2), time_samples=11
    )
    out.add("fact2-02-translation", "wedge factorization of a loop",
            rep2.residual, 1e-9)

    ham = TrigHamiltonian(torus4, np.random.default_rng(config.seed + 11),
                          amplitude=0.05)
    rep3 = flux_mod.factorization2_check(
        ham.field(), max(50, steps // 2), time_samples=11
    )
    out.add("fact2-03-hamiltonian", "vanishing wedge flux of Hamiltonian flows",
            max(rep3.residual, float(np.abs(rep3.lhs).max())), 1e-3)
    return out.rows, {}


_SCENARIOS = {
    "flux": scenario_flux,
    "defect-survey": scenario_defect_survey,
    "separation": scenario_separation,
    "rigidity": scenario_rigidity,
    "iteration-growth": scenario_iteration_growth,
    "norm-comparison": scenario_norm_comparison,
    "deformation": scenario_deformation,
    "factorization2": scenario_factorization2,
}


def scenario_names() -> list[str]:
    return sorted(_SCENARIOS)


def run_scenario(
    name: str, config: ExperimentConfig, bench: Workbench | None = None
) -> tuple[list[ReportRow], dict]:
    """Run one named scenario on ``bench`` (a fresh workbench by default)."""
    if name not in _SCENARIOS:
        raise KeyError(name)
    if bench is None:
        bench = Workbench(config)
    elif bench.config != config:
        raise ValueError("workbench was built for a different configuration")
    return _SCENARIOS[name](bench)


# ---------------------------------------------------------------------------
# displacement checks shared by verify
# ---------------------------------------------------------------------------

# random base-point triangles tried by disp-03; three must have zero winding
_TRANSFER_ATTEMPTS = 32


def _displacement_rows(bench: Workbench) -> list[ReportRow]:
    config = bench.config
    torus = bench.torus
    out = _Timer()
    g = shear_profile(config.shear_amplitude)
    coeffs = bench.dx.harmonic
    shear_map = bench.shear.time_one()

    nu = disp_mod.displacement(shear_map, bench.dx, np.zeros(torus.dim))
    expected = g(torus.grid[1]) - config.shear_amplitude / 2.0
    out.add("disp-01-shear-field", "displacement of the coordinate form",
            float(np.abs(nu.samples - expected).max()), 1e-7)

    z = np.array([0.37, 0.81] + [0.11] * (torus.dim - 2))
    hodge_val = float(nu.at(z)[0])
    geo_val = disp_mod.displacement_geodesic_value(
        shear_map, bench.dx, np.zeros(torus.dim), z
    )
    out.add("disp-02-route-agreement", "potential vs geodesic quadrature",
            abs(hodge_val - geo_val), 1e-7)

    rng = np.random.default_rng(config.seed + 13)
    residuals = []
    for _ in range(_TRANSFER_ATTEMPTS):
        p0, p1, p2 = rng.uniform(0.05, 0.95, size=(3, torus.dim))
        report = disp_mod.base_point_transfer_residual(
            shear_map, bench.dx,
            minimal_geodesic(p0, p2, 129),
            minimal_geodesic(p1, p2, 129),
            minimal_geodesic(p0, p1, 129),
        )
        if report.hypothesis_met:
            residuals.append(report.residual)
            if len(residuals) == 3:
                break
    out.add("disp-03-base-transfer", "base point transfer balance",
            max(residuals) if len(residuals) == 3 else 1.0, 1e-8)

    p = np.array([0.0, 0.25] + [0.0] * (torus.dim - 2))
    e = disp_mod.energy(shear_map, coeffs, p)
    out.add("disp-04-shear-energy", "energy of the standard shear",
            abs(e.value - (-0.5 * config.shear_amplitude)), 1e-4)

    resid = disp_mod.gf10_residual(bench.shear, coeffs, p)
    out.add("disp-05-energy-decomposition", "energy decomposition identity",
            resid, 1e-5)

    # the energy reads the other path at its ends only: replayed, not stored
    alt = concat_trace(bench.shear, bench.hamiltonian_loop, None, left=False)
    e1 = disp_mod.energy_via_isotopy(bench.shear, coeffs, p)
    e2 = disp_mod.energy_via_isotopy(alt, coeffs, p)
    out.add("disp-06-choice-independence", "energy independent of the path",
            abs(e1.decomposition - e2.decomposition), 1e-6)

    r3 = disp_mod.iteration_law_residual(bench.shear, 3, coeffs, (0.1, 0.2))
    out.add("disp-07-iteration-law", "energy iteration law, power 3",
            r3, 1e-5)
    rm2 = disp_mod.iteration_law_residual(bench.shear, -2, coeffs, (0.1, 0.2))
    out.add("disp-08-iteration-law-negative", "energy iteration law, power -2",
            rm2, 1e-5)

    maps = []
    for i in (1, 2, 5, 20):
        def gi(y, i=i):
            return g(y) + np.sin(2 * np.pi * y) / (3 * i)

        maps.append(flow_end(x_shear_field(torus, gi), max(50, config.steps // 2)).time_one())
    rows = disp_mod.continuity_check(maps, shear_map, coeffs, np.zeros(torus.dim))
    worst = max((r.energy_gap - r.bound) for r in rows if r.checked)
    out.add("disp-09-continuity", "energy continuity modulus",
            worst, 0.0)
    return out.rows


def _hofer_rows(bench: Workbench) -> list[ReportRow]:
    config = bench.config
    torus = bench.torus
    out = _Timer()

    shear_rep = hofer_mod.lengths(bench.hamiltonian_shear,
                                  validate_tol=flow_tolerance(config.resolution, 100.0))
    out.add("hofer-01-shear-length", "length of the Hamiltonian shear",
            abs(shear_rep.l1_length - 1.0 / np.pi), 1e-9)

    tr = translation_isotopy(torus, config.steps, (0.4, 0.0))
    tr_rep = hofer_mod.lengths(tr)
    out.add("hofer-02-translation-length", "length of a harmonic path",
            abs(tr_rep.l1_length - 0.4), 1e-9)

    samples = np.zeros((torus.dim,) + torus.shape)
    samples[0] = 0.7
    out.add("hofer-03-field-norm", "velocity norm of a constant field",
            abs(hofer_mod.vector_field_b_norm(torus, samples) - 0.7),
            1e-12)

    cut = make_cutoff(1.0 / 32.0)
    out.add("hofer-04-cutoff-slope", "cutoff slope bound",
            cut.sup_slope, 1e-3, bound=1.2)

    # the rows read the generator trace only: no displacement stack
    concat = concat_trace(bench.hamiltonian_shear, tr, 1600, left=True)
    concat_rep = hofer_mod.lengths(concat)
    gap = abs(concat_rep.l1_length - tr_rep.l1_length - shear_rep.l1_length)
    out.add("hofer-05-length-additivity", "concatenation length additivity",
            gap, 1e-9)

    linf_bound = 2.4 * (tr_rep.linf_length + shear_rep.linf_length)
    out.add("hofer-06-sup-length-bound", "sup length concatenation bound",
            concat_rep.linf_length, 0.0, bound=linf_bound)

    split = hofer_mod.hodge_split_isotopy(bench.hamiltonian_shear)
    out.add("hofer-07-hodge-split", "isotopy factorization residuals",
            max(split.remainder_flux,
                split.harmonic_path.time_one().c0_distance()),
            1e-9)
    return out.rows


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def verify_parts(bench: Workbench) -> list[tuple[str, Callable[[], tuple]]]:
    """The parts of ``verify`` in run order, each a ``(name, call)`` on ``bench``.

    Every scenario is one part; the displacement rows and the length rows
    are one part each.  A call returns ``(rows, extras)``.
    """
    parts = [(name, lambda name=name: run_scenario(name, bench.config, bench))
             for name in _SCENARIOS]
    parts.append(("displacement", lambda: (_displacement_rows(bench), {})))
    parts.append(("hofer", lambda: (_hofer_rows(bench), {})))
    return parts


def run_part(name: str, part: Callable[[], tuple]) -> tuple[list[ReportRow], dict]:
    """``part()``'s ``(rows, extras)``; a part that raises fails as one row.

    The failing row is ``<name>-error``, value 1.0, with the exception in
    its anchor and the traceback in the log, so the reports are still
    written and the run exits with the failed-check code.
    """
    started = time.perf_counter()
    try:
        return part()
    except Exception as exc:
        log.exception("part %r failed", name)
        return [ReportRow(
            f"{name}-error", f"{type(exc).__name__}: {exc}", 1.0, 0.0, 0.0,
            runtime_ms=(time.perf_counter() - started) * 1e3,
        )], {}


def run_verify(config: ExperimentConfig) -> tuple[list[ReportRow], dict]:
    """The full invariant suite across the flux, displacement and length
    modules; ~60 rows, all expected to pass at default sizes.  One
    workbench serves every check.

    A part (a scenario, the displacement rows or the length rows) that
    raises becomes one failing ``<part>-error`` row (:func:`run_part`);
    the remaining parts still run.
    """
    rows: list[ReportRow] = []
    extras: dict = {"tables": {}}
    for name, part in verify_parts(Workbench(config)):
        sub_rows, sub_extras = run_part(name, part)
        rows.extend(sub_rows)
        extras["tables"].update(sub_extras.get("tables", {}))
    return rows, extras
