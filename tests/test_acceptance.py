"""Acceptance suite: every criterion at its stated tolerance, desk scale.

Defaults are the production sizes (unit T^2, N = 64, K = 200 unless a
criterion states otherwise).  The full invariant suite is run once per
session and criteria assert on its records; bespoke constructions cover the
pieces with their own stated sample sizes.  Each criterion prints one
pass/fail line (run pytest with -s to see them on success).
"""

import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from torusflux import FlatTorus, OneForm, scenarios
from torusflux.config import ExperimentConfig
from torusflux.families import (
    hamiltonian_loop,
    translation_isotopy,
    translation_loop,
)
from torusflux.flux import loop_orbit_constancy, order_cycle_test, orbit_of
from torusflux.reporting import write_csv
from torusflux.scenarios import run_verify

FULL = ExperimentConfig().validate()  # N = 64, K = 200, 200 pairs, seed 0
SMALL = ExperimentConfig(
    resolution=16, steps=50, pair_count=2, cocycle_pairs=2,
    sample_count=8, sequence_length=2, iterate_count=3,
).validate()


@pytest.fixture(scope="module")
def verify_run():
    t0 = time.perf_counter()
    rows, extras = run_verify(FULL)
    elapsed = time.perf_counter() - t0
    return {r.check_id: r for r in rows}, extras, elapsed


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {name} ({detail})")
    assert ok, f"criterion {num} failed: {name}: {detail}"


def test_c01_cocycle_vanishing(verify_run):
    rows, _, _ = verify_run
    residual = rows["flux-01-cocycle"].value
    ratio_gap = rows["flux-02-cocycle-refinement"].value  # 4 - ratio
    runtime_ms = (rows["flux-01-cocycle"].runtime_ms
                  + rows["flux-02-cocycle-refinement"].runtime_ms)
    ok = residual <= 1e-5 and ratio_gap <= 0.0 and runtime_ms < 30_000
    _report(1, "cocycle vanishing",
            ok,
            f"max residual {residual:.2e} <= 1e-5, refinement ratio "
            f"{4.0 - ratio_gap:.1f} >= 4, runtime {runtime_ms / 1e3:.1f} s < 30 s")


def test_c02_factorization_one(verify_run):
    rows, _, _ = verify_run
    worst = max(rows["flux-10-factorization-shear"].value,
                rows["flux-11-factorization-translation"].value)
    exact_side = rows["flux-12-factorization-exact"].value
    ok = worst <= 1e-5 and exact_side <= 1e-5
    _report(2, "flux factorization through partial paths", ok,
            f"max gap {worst:.2e} <= 1e-5 at 5 sampled times")


def test_c03_factorization_two(verify_run):
    rows, _, _ = verify_run
    residual = rows["fact2-01-product-shear"].value
    ok = residual <= 1e-4
    _report(3, "wedge factorization on the 4-torus", ok,
            f"product-shear residual {residual:.2e} <= 1e-4")


def test_c04_energy_decomposition(verify_run):
    rows, _, _ = verify_run
    residual = rows["disp-05-energy-decomposition"].value
    value_err = rows["disp-04-shear-energy"].value
    ok = residual <= 1e-5 and value_err <= 1e-4
    _report(4, "energy decomposition identity", ok,
            f"residual {residual:.2e} <= 1e-5, shear energy within "
            f"{value_err:.2e} of -0.5")


def test_c05_quasimorphism_defect(verify_run):
    rows, _, _ = verify_run
    defect_row = rows["defect-01-bound"]
    law = rows["defect-02-exact-law"].value
    ok = (defect_row.bound == 2.0 and defect_row.value < 2.0
          and law <= 1e-5 and FULL.pair_count == 200)
    _report(5, "quasi-morphism defect bound", ok,
            f"max defect {defect_row.value:.4f} < 2.0 over 200 pairs, "
            f"exact law residual {law:.2e} <= 1e-5")


def test_c06_orbit_homology():
    torus = FlatTorus(2, FULL.resolution, symplectic=True)
    loop = translation_loop(torus, FULL.steps, (1, 0))
    dx = OneForm.harmonic_form(torus, (1, 0))
    pts = np.random.default_rng(FULL.seed).uniform(size=(100, 2))
    value, dev = loop_orbit_constancy(loop, dx, sample_points=pts)
    ham = hamiltonian_loop(torus, FULL.steps,
                           np.random.default_rng(FULL.seed + 7),
                           amplitude=FULL.hamiltonian_amplitude)
    windings = np.stack([
        orbit_of(ham, p).winding(tol=1e-5)
        for p in np.random.default_rng(1).uniform(size=(20, 2))
    ])
    from torusflux.flux import flux_class

    forward = flux_class(ham).norm()  # contractible => zero flux
    converse = abs(value - 1.0)  # nonzero flux => winding orbits
    ok = (abs(value - 1.0) <= 1e-6 and dev <= 1e-6
          and not np.any(windings) and forward <= 1e-6 and converse <= 1e-6)
    _report(6, "orbit homology of loops", ok,
            f"constant {value:.8f} +- {dev:.1e} over 100 points; "
            f"Hamiltonian loop windings all zero; kernel holds both ways")


def test_c07_finite_order_cycles():
    torus = FlatTorus(2, FULL.resolution, symplectic=True)
    half = translation_isotopy(torus, FULL.steps, (0.5, 0.0))
    report = order_cycle_test(half, 2)
    flux_err = float(np.abs(report.flux - [0.5, 0.0]).max())
    ok = (tuple(report.cycle_winding) == (1, 0) and flux_err <= 1e-6
          and report.relation_residual <= 1e-5 and report.verdict)
    _report(7, "finite-order cycle relation", ok,
            f"cycle winding {tuple(report.cycle_winding)}, flux error "
            f"{flux_err:.1e} <= 1e-6, relation residual "
            f"{report.relation_residual:.1e} <= 1e-5")


def test_c08_separation(verify_run):
    rows, _, _ = verify_run
    margin_row = rows["separation-01-wiggle"]
    control = rows["separation-03-translation-selfcheck"].value
    ok = margin_row.value < 0.0 and control == 0.0  # value = -min margin
    _report(8, "orbits separate from minimal geodesics", ok,
            f"min orbit-length margin {-margin_row.value:.3f} > 0 under the "
            f"1/8-coefficient threshold; geodesic control consistent")


def test_c09_deformation_bounds(verify_run):
    rows, _, _ = verify_run
    margins = [
        -rows["deform-01-slope-c0.1"].value,
        -rows["deform-02-slope-c0.5"].value,
        -rows["deform-03-slope-c2.0"].value,
    ]
    osc_gap = rows["deform-04-oscillation"].value
    ok = all(m > 0 for m in margins) and osc_gap <= 1e-12
    _report(9, "deformation slope and oscillation bounds", ok,
            f"slope margins {[f'{m:.2f}' for m in margins]} all positive; "
            f"oscillation bound gap {osc_gap:.1e}")


def test_c10_iteration_growth(verify_run):
    rows, _, _ = verify_run
    ratio_err = rows["growth-01-ratio"].value
    lin = rows["growth-02-flux-linearity"].value
    nonid = rows["growth-03-nonidentity"].value
    ok = ratio_err <= 1e-6 and lin <= 1e-6 and nonid == 0.0
    _report(10, "length growth of iterates", ok,
            f"ratio error {ratio_err:.1e} <= 1e-6 for powers up to "
            f"{FULL.iterate_count}, flux linearity {lin:.1e} <= 1e-6")


def test_c11_length_laws(verify_run):
    rows, _, _ = verify_run
    additivity = rows["hofer-05-length-additivity"].value
    sup_row = rows["hofer-06-sup-length-bound"]
    slope = rows["hofer-04-cutoff-slope"].value
    ok = (additivity <= 1e-9 and sup_row.value <= sup_row.bound
          and slope <= 1.201)
    _report(11, "concatenation length laws", ok,
            f"additivity {additivity:.1e} <= 1e-9; sup-length "
            f"{sup_row.value:.3f} <= 2.4-bound {sup_row.bound:.3f}; "
            f"cutoff slope {slope:.4f} <= 1.201")


def test_c12_norm_comparison(verify_run):
    rows, _, _ = verify_run
    margins = {
        "6": -rows["normcmp-01-trivial-branch"].value,
        "72/5": -rows["normcmp-02-lattice-branch"].value,
        "144/5": -rows["normcmp-03-combined"].value,
    }
    ok = all(m > 0 for m in margins.values())
    _report(12, "norm comparison inequalities (surrogate upper bounds on "
                "both sides; a pass certifies family-level consistency)", ok,
            "margins " + ", ".join(f"{k}: {v:.3f}" for k, v in margins.items()))


def test_c13_rigidity(verify_run):
    rows, _, _ = verify_run
    winding = rows["rigidity-01-limit-windings"].value
    ok = winding == 0.0
    _report(13, "uniform limits of zero-flux isotopies", ok,
            f"max sampled winding of the limit loop {winding:.0f}")


def test_c14_reproducibility_and_runtime(verify_run, tmp_path):
    _, _, elapsed = verify_run
    blobs = []
    for run in range(2):
        rows, _extras = run_verify(SMALL)
        write_csv(rows, tmp_path / f"report{run}.csv")
        blobs.append((tmp_path / f"report{run}.csv").read_bytes())
    ok = blobs[0] == blobs[1] and elapsed < 300.0
    _report(14, "reproducibility and runtime", ok,
            f"verify CSV byte-identical across runs; full-size suite "
            f"{elapsed:.0f} s < 300 s")


def test_verify_builds_each_canonical_isotopy_once(monkeypatch):
    # keyed by amplitude: the rigidity sequence adds rescaled Hamiltonian loops
    names = ("standard_shear", "hamiltonian_shear", "translation_loop",
             "hamiltonian_loop")
    builds = Counter()
    for name in names:
        def counted(*args, _build=getattr(scenarios, name), _name=name, **kwargs):
            builds[_name, kwargs.get("amplitude")] += 1
            return _build(*args, **kwargs)

        monkeypatch.setattr(scenarios, name, counted)
    run_verify(SMALL)
    assert {name for name, _ in builds} == set(names)
    assert set(builds.values()) == {1}, builds


def test_factorization2_keeps_one_t4_stack_alive():
    # three T^4 flows at N = 16, K = 50: a full (K+1, 4) + grid stack takes
    # 107 MB; each check stores only its 21 or 11 sampled slices, so the
    # traced peak stays below one full stack
    config = ExperimentConfig(resolution=16, steps=50).validate()
    stack_bytes = (50 + 1) * 4 * 16**4 * 8
    tracemalloc.start()
    try:
        rows, _ = scenarios.run_scenario("factorization2", config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(r.passed for r in rows)
    assert peak < stack_bytes, peak / stack_bytes


def test_defect_survey_peak_does_not_grow_with_the_steps():
    # each draw is stored in full and then released, kept at its ends: from
    # K = 100 to K = 400 the traced peak grows by less than one (K+1, 2) +
    # grid stack at K = 400 (a draw's own stack, built before it is trimmed)
    peaks = {}
    for steps in (100, 400):
        config = ExperimentConfig(resolution=16, steps=steps, pair_count=2).validate()
        tracemalloc.start()
        try:
            rows, _ = scenarios.run_scenario("defect-survey", config)
            _, peaks[steps] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(r.passed for r in rows)
    stack_bytes = (400 + 1) * 2 * 16**2 * 8
    growth = peaks[400] - peaks[100]
    assert growth < stack_bytes, growth / stack_bytes


def test_norm_comparison_peak_stays_below_two_stacks():
    # the fluxed and the loop-corrected paths are replays, and the shear's
    # autonomous potential is one slice: the traced peak is the Hamiltonian
    # shear's own (K+1, 2) + grid stack and a few slices
    config = ExperimentConfig(resolution=16, steps=200).validate()
    tracemalloc.start()
    try:
        rows, _ = scenarios.run_scenario("norm-comparison", config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(r.passed for r in rows)
    stack_bytes = (200 + 1) * 2 * 16**2 * 8
    assert peak < 2 * stack_bytes, peak / stack_bytes


def test_straightening_peak_stays_below_two_stacks(monkeypatch):
    # deform-06/07 straighten the composite of a harmonic wiggle and the
    # Hamiltonian shear: from the composite on, the part holds that one
    # (K+1, 2) + grid stack and a few slices, as the remainder is replayed
    # and its generator is never read (no stored remainder, no U)
    config = ExperimentConfig(resolution=16, steps=200).validate()
    bench = scenarios.Workbench(config)
    bench.hamiltonian_shear  # the workbench's, as in verify
    compose = scenarios.compose_pointwise

    def from_here(*args, **kwargs):
        tracemalloc.reset_peak()
        return compose(*args, **kwargs)

    monkeypatch.setattr(scenarios, "compose_pointwise", from_here)
    tracemalloc.start()
    try:
        rows, _ = scenarios.run_scenario("deformation", config, bench)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(r.passed for r in rows)
    stack_bytes = (200 + 1) * 2 * 16**2 * 8
    assert peak < 2 * stack_bytes, peak / stack_bytes


def test_base_transfer_row_fails_when_no_triangle_qualifies(monkeypatch):
    from torusflux import displacement

    def never_closed(psi, form, xi, gamma, connector):
        return displacement.TransferReport(0.0, np.array([1, 0]), False)

    monkeypatch.setattr(displacement, "base_point_transfer_residual", never_closed)
    rows = {r.check_id: r for r in scenarios._displacement_rows(scenarios.Workbench(SMALL))}
    assert rows["disp-03-base-transfer"].value == 1.0
    assert not rows["disp-03-base-transfer"].passed


def test_all_verify_rows_pass(verify_run):
    rows, _, _ = verify_run
    failures = [r.check_id for r in rows.values() if not r.passed]
    assert not failures, f"verify rows failing at production size: {failures}"
