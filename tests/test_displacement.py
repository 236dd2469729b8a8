import numpy as np
import pytest

from torusflux import OneForm, minimal_geodesic
from torusflux.displacement import (
    base_point_transfer_residual,
    composition_defect,
    continuity_check,
    displacement,
    displacement_geodesic_value,
    energy,
    energy_via_isotopy,
    gf10_residual,
    iteration_law_residual,
    separation_check,
)
from torusflux.families import (
    random_conservative_isotopy,
    shear_profile,
    translation_isotopy,
    wiggled_translation_loop,
    x_shear_field,
    y_shear_field,
)
from torusflux.flows import GridMap, flow
from torusflux.paths import concat_right


@pytest.fixture(scope="module")
def dx(torus):
    return OneForm.harmonic_form(torus, (1, 0))


class TestDisplacementField:
    def test_translation_trivial(self, torus, dx):
        tr = translation_isotopy(torus, 60, (0.3, 0.2))
        nu = displacement(tr.time_one(), dx, (0.1, 0.1))
        assert np.abs(nu.samples).max() < 1e-10

    def test_identity_trivial(self, torus, dx):
        nu = displacement(GridMap.identity(torus), dx, (0.0, 0.0))
        assert np.abs(nu.samples).max() < 1e-14

    def test_shear_profile(self, torus, shear, dx):
        # oracle: nu(z) = g(z_y) - g(0) with g the shear profile
        nu = displacement(shear.time_one(), dx, (0.0, 0.0))
        g = shear_profile(1.0)
        expected = g(torus.grid[1]) - g(0.0)
        assert np.abs(nu.samples - expected).max() < 1e-7

    def test_vanishes_at_base(self, torus, shear, dx):
        p = np.array([0.3, 0.7])
        nu = displacement(shear.time_one(), dx, p)
        assert abs(float(nu.at(p)[0])) < 1e-10

    def test_geodesic_route_agreement(self, torus, shear, dx):
        nu = displacement(shear.time_one(), dx, (0.0, 0.0))
        for z in ((0.37, 0.81), (0.9, 0.13)):
            direct = float(nu.at(np.array(z))[0])
            oracle = displacement_geodesic_value(
                shear.time_one(), dx, (0.0, 0.0), z
            )
            assert abs(direct - oracle) < 1e-7

    def test_exactness_gate(self, torus, shear, dx):
        with pytest.raises(ValueError):
            displacement(shear.time_one(), dx, (0.0, 0.0), exactness_tol=0.0)


class TestBaseTransfer:
    def test_degenerate_triangle(self, torus, shear, dx):
        p, q = np.array([0.1, 0.2]), np.array([0.6, 0.4])
        xi = minimal_geodesic(p, q, 129)
        connector = np.tile(p, (5, 1))
        report = base_point_transfer_residual(shear.time_one(), dx, xi, xi, connector)
        assert report.hypothesis_met
        assert report.residual < 1e-12

    def test_random_triangles(self, torus, shear, dx, rng):
        found = 0
        while found < 3:
            p0, p1, p2 = rng.uniform(0.05, 0.95, size=(3, 2))
            report = base_point_transfer_residual(
                shear.time_one(), dx,
                minimal_geodesic(p0, p2, 129),
                minimal_geodesic(p1, p2, 129),
                minimal_geodesic(p0, p1, 129),
            )
            if not report.hypothesis_met:
                continue
            assert report.residual < 1e-8
            found += 1

    def test_winding_obstruction_flagged(self, torus, shear, dx):
        p, q = np.array([0.1, 0.2]), np.array([0.6, 0.4])
        xi = minimal_geodesic(p, q, 129)
        wound = xi + np.linspace(0, 1, 129)[:, None] * np.array([1.0, 0.0])
        connector = np.tile(p, (5, 1))
        report = base_point_transfer_residual(shear.time_one(), dx, wound, xi, connector)
        assert not report.hypothesis_met
        assert tuple(report.loop_winding) == (1, 0)

    def test_endpoint_mismatch(self, torus, shear, dx):
        xi = minimal_geodesic(np.array([0.1, 0.2]), np.array([0.6, 0.4]), 65)
        gamma = minimal_geodesic(np.array([0.3, 0.3]), np.array([0.7, 0.7]), 65)
        with pytest.raises(ValueError):
            base_point_transfer_residual(
                shear.time_one(), dx, xi, gamma, np.tile(xi[0], (3, 1))
            )


class TestEnergy:
    def test_shear_value(self, torus, shear):
        # oracle: mean(g) - g(1/4) = 1/2 - 1 = -1/2
        e = energy(shear.time_one(), (1, 0), (0.0, 0.25))
        assert abs(e.value - (-0.5)) < 1e-4

    def test_identity_energy(self, torus):
        e = energy(GridMap.identity(torus), (1, 0), (0.3, 0.3))
        assert abs(e.value) < 1e-14

    def test_zero_form_rejected(self, torus, shear):
        with pytest.raises(ValueError):
            energy(shear.time_one(), (0, 0), (0.0, 0.0))

    def test_gf10_decomposition(self, torus, shear):
        assert gf10_residual(shear, (1, 0), (0.0, 0.25)) < 1e-5

    def test_path_independence(self, torus, shear):
        from torusflux.families import hamiltonian_loop

        loop = hamiltonian_loop(torus, shear.steps)
        alt = concat_right(shear, loop)
        e1 = energy_via_isotopy(shear, (1, 0), (0.0, 0.25))
        e2 = energy_via_isotopy(alt, (1, 0), (0.0, 0.25))
        assert abs(e1.decomposition - e2.decomposition) < 1e-6
        assert abs(e1.value - e2.value) < 1e-12  # same time-one map


class TestCompositionLaw:
    def test_identity_factor(self, torus, shear):
        from torusflux.flows import identity_isotopy

        triv = identity_isotopy(torus, shear.steps)
        report = composition_defect(shear, triv, (1, 0), (0.0, 0.0))
        assert report.defect < 1e-9
        assert report.exact_law_residual < 1e-9

    def test_cross_shears(self, torus, shear):
        other = flow(y_shear_field(torus, shear_profile(0.8)), 100)
        report = composition_defect(shear, other, (1, 0), (0.0, 0.0))
        assert report.bound == 2.0
        assert report.defect <= 2.0
        assert report.exact_law_residual < 2e-5  # N = 32; 1e-5 holds at 64

    def test_defect_bound_random(self, torus, rng):
        for _ in range(20):
            a = random_conservative_isotopy(torus, rng, 60)
            b = random_conservative_isotopy(torus, rng, 60)
            report = composition_defect(a, b, (1, 0), (0.0, 0.0))
            assert report.within_bound


class TestIterationLaw:
    def test_power_one_trivial(self, torus, shear):
        assert iteration_law_residual(shear, 1, (1, 0), (0.1, 0.2)) < 1e-12

    def test_power_three(self, torus, shear):
        assert iteration_law_residual(shear, 3, (1, 0), (0.1, 0.2)) < 1e-5

    def test_negative_power(self, torus, shear):
        assert iteration_law_residual(shear, -2, (1, 0), (0.1, 0.2)) < 1e-5

    def test_negative_power_builds_no_inverse_stack(self, shear, monkeypatch):
        # the inverse branch is read at its end: one Newton solve of the
        # time-one inverse and no inverse generator
        from torusflux import flows
        from torusflux.flux import orbit_displacement
        from torusflux.torus import harmonic_norm

        calls = []
        real_generator, real_inverse = flows.inverse_generator, GridMap.inverse

        def counted_generator(isotopy):
            calls.append("generator")
            return real_generator(isotopy)

        def counted_inverse(self, initial=None):
            calls.append("newton")
            return real_inverse(self, initial)

        monkeypatch.setattr(flows, "inverse_generator", counted_generator)
        monkeypatch.setattr(GridMap, "inverse", counted_inverse)
        value = iteration_law_residual(shear, -2, (1, 0), (0.1, 0.2))
        assert calls == ["newton"]
        monkeypatch.undo()
        # the law read along the stored inverse path: its last slice is the
        # Newton chain's, which differs from the inverse solved cold by
        # Newton's residual (<= 1e-12 in the displacement)
        stored = flows.inverse(shear)
        coeffs, x = np.array([1.0, 0.0]), np.array([0.1, 0.2])
        psi_map = shear.time_one()
        lhs = energy(psi_map.power(-2), coeffs, x).value
        orbit_x = float(coeffs @ orbit_displacement(shear, x))
        total, point = 0.0, x.copy()
        for _ in range(2):
            total += float(coeffs @ orbit_displacement(stored, point % 1.0))
            point = stored.time_one().apply(point[None, :])[0]
        rhs = (-2 * energy(psi_map, coeffs, x).value
               + (-2 * orbit_x - total) / harmonic_norm(coeffs))
        assert abs(value - abs(lhs - rhs)) <= 1e-12

    def test_zero_rejected(self, torus, shear):
        with pytest.raises(ValueError):
            iteration_law_residual(shear, 0, (1, 0), (0.1, 0.2))

    def test_homogenization_decay(self, torus):
        # |E(psi^l)/l - E(psi)| shrinks like 1/l for translations
        tr = translation_isotopy(torus, 60, (0.3, 0.0))
        e1 = energy(tr.time_one(), (1, 0), (0.2, 0.2)).value
        gaps = []
        for power in (1, 2, 4):
            el = energy(tr.time_one().power(power), (1, 0), (0.2, 0.2)).value
            gaps.append(abs(el / power - e1))
        assert gaps[2] <= gaps[0] + 1e-9


class TestContinuity:
    def test_equal_maps(self, torus, shear):
        rows = continuity_check([shear.time_one()], shear.time_one(), (1, 0),
                                (0.0, 0.0))
        assert rows[0].checked
        assert rows[0].energy_gap < 1e-12

    def test_perturbation_sequence(self, torus, shear):
        g = shear_profile(1.0)
        maps = []
        for i in range(1, 21):
            def gi(y, i=i):
                return g(y) + np.sin(2 * np.pi * y) / (4 * i)

            maps.append(flow(x_shear_field(torus, gi), 60).time_one())
        rows = continuity_check(maps, shear.time_one(), (1, 0), (0.0, 0.0))
        assert all(r.ok for r in rows)
        assert all(r.checked for r in rows)

    def test_far_map_skipped(self, torus, shear):
        far = translation_isotopy(torus, 60, (0.5, 0.5)).time_one()
        rows = continuity_check([far], shear.time_one(), (1, 0), (0.0, 0.0))
        assert not rows[0].checked


class TestSeparation:
    def test_wiggled_loop(self, torus):
        iso = wiggled_translation_loop(torus, 100)
        report = separation_check(iso, samples=25)
        assert report.hypothesis_met
        assert report.c0_gap < report.delta0
        assert report.min_margin is not None and report.min_margin > 0.5

    def test_translation_self_consistency(self, torus):
        # geodesic orbits force the closeness hypothesis to fail:
        # delta0 = s/8 < s for a straight translation by s
        iso = translation_isotopy(torus, 60, (0.05, 0.0))
        report = separation_check(iso)
        assert not report.hypothesis_met
        assert report.delta0 <= report.c0_gap + 1e-12

    def test_large_displacement_flagged(self, torus, shear):
        report = separation_check(shear)
        assert not report.hypothesis_met

    def test_zero_flux_rejected(self, torus, ham_shear):
        with pytest.raises(ValueError):
            separation_check(ham_shear)
