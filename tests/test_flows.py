import numpy as np
import pytest

from torusflux import (
    FlatTorus,
    GridMap,
    InversionError,
    TimeField,
    c0_distance,
    compose_pointwise,
    constant_field,
    flow,
    generator_of,
    generator_residual,
    hamiltonian_field,
    harmonic_isotopy,
    inverse,
    velocity,
    verify_conservative,
)
from torusflux.families import (
    TrigHamiltonian,
    shear_profile,
    translation_isotopy,
)


class TestFlow:
    def test_constant_field_translates(self, torus):
        iso = flow(constant_field(torus, (1.0, 0.0)), 100)
        # full translation loop: lift advances by exactly (1, 0)
        assert np.abs(iso.disp[-1][0] - 1.0).max() < 1e-12
        assert np.abs(iso.disp[-1][1]).max() < 1e-12

    def test_shear_flow_analytic(self, torus, shear):
        # oracle: phi_t(x, y) = (x + t g(y), y)
        g = shear_profile(1.0)
        for k in (25, 50, 100):
            t = shear.times[k]
            assert np.abs(shear.disp[k][0] - t * g(torus.grid[1])).max() < 1e-10
            assert np.abs(shear.disp[k][1]).max() < 1e-12

    def test_hamiltonian_shear_analytic(self, torus, ham_shear):
        # oracle: phi_t(x, y) = (x - t sin(2 pi y), y)
        expected = -np.sin(2 * np.pi * torus.grid[1])
        assert np.abs(ham_shear.disp[-1][0] - expected).max() < 1e-10

    def test_identity_at_zero(self, shear):
        assert np.abs(shear.disp[0]).max() == 0.0

    def test_arrays_read_only(self, shear):
        with pytest.raises(ValueError):
            shear.disp[1, 0, 0, 0] = 0.0
        with pytest.raises(ValueError):
            shear.times[1] = 0.0

    def test_min_steps(self, torus):
        with pytest.raises(ValueError):
            flow(constant_field(torus, (0.1, 0.0)), 10)

    def test_nonfinite_field(self, torus):
        def bad(t, p):
            out = np.zeros_like(p)
            out[..., 0] = 1.0 / (t - 0.5) if abs(t - 0.5) < 1e-9 else 1.0
            return out

        from torusflux import IntegrationError

        with pytest.raises(IntegrationError):
            flow(TimeField(torus, lambda t, p: np.full_like(p, np.inf)), 60)


class TestHamiltonianField:
    def test_constant_hamiltonian(self, torus):
        field = hamiltonian_field(torus, lambda t: np.ones(torus.shape))
        assert np.abs(field.sample(0.0)).max() < 1e-12

    def test_cosine_hamiltonian(self, torus):
        # H = cos(2 pi y) / (2 pi) generates X = (-sin(2 pi y), 0)
        h = np.cos(2 * np.pi * torus.grid[1]) / (2 * np.pi)
        field = hamiltonian_field(torus, lambda t: h)
        samples = field.sample(0.3)
        assert np.abs(samples[0] + np.sin(2 * np.pi * torus.grid[1])).max() < 1e-10
        assert np.abs(samples[1]).max() < 1e-10

    def test_divergence_free(self, torus, rng):
        ham = TrigHamiltonian(torus, rng)
        assert ham.field().divergence_residual() < 1e-10

    def test_requires_symplectic(self):
        plain = FlatTorus(2, 16)
        with pytest.raises(ValueError):
            hamiltonian_field(plain, lambda t: np.ones(plain.shape))

    def test_kind_tag_validation(self, torus):
        def bad(t, p):
            out = np.zeros_like(p)
            out[..., 0] = np.sin(2 * np.pi * p[..., 0])
            return out

        with pytest.raises(ValueError):
            TimeField(torus, bad, "conservative").validate()
        with pytest.raises(ValueError):
            TimeField(torus, lambda t, p: np.sin(
                2 * np.pi * p[..., ::-1]
            ), "harmonic").validate()
        TimeField(torus, lambda t, p: np.full_like(p, 0.3), "harmonic").validate()


class TestVelocityAndGenerator:
    def test_velocity_matches_field(self, shear):
        v = velocity(shear, 0.5)
        expected = shear.provenance.sample(0.5)
        assert np.abs(v - expected).max() < 1e-8

    def test_translation_generator(self, torus):
        # sign convention oracle: i((a,b))(dx ^ dy) = a dy - b dx
        iso = translation_isotopy(torus, 100, (0.3, 0.2))
        gen = generator_of(iso)
        assert np.allclose(gen.H, [-0.2, 0.3], atol=1e-12)
        assert np.abs(gen.U).max() < 1e-12

    def test_hamiltonian_generator_roundtrip(self, torus, ham_shear):
        gen = generator_of(ham_shear)
        expected = np.cos(2 * np.pi * torus.grid[1]) / (2 * np.pi)
        expected -= expected.mean()
        assert np.abs(gen.H).max() < 1e-10
        assert np.abs(gen.U - expected).max() < 1e-10

    def test_identity_generator(self, torus):
        from torusflux import identity_isotopy

        gen = generator_of(identity_isotopy(torus))
        assert np.abs(gen.U).max() == 0.0
        assert np.abs(gen.H).max() == 0.0

    def test_data_route_agrees(self, shear):
        gen_field = generator_of(shear)
        gen_data = generator_of(shear, from_data=True)
        assert np.abs(gen_field.H - gen_data.H).max() < 1e-8
        assert np.abs(gen_field.U - gen_data.U).max() < 1e-6

    def test_generator_residual(self, shear):
        gen = generator_of(shear)
        assert generator_residual(shear, gen, nt=3) < 1e-6

    def test_velocity_time_range(self, shear):
        with pytest.raises(ValueError):
            velocity(shear, 1.5)

    def test_flow_velocity_roundtrip(self, torus, ham_shear):
        # re-integrating the data-route velocity field reproduces the isotopy
        from torusflux.flows import interp_time
        from torusflux.torus import PeriodicInterp

        stack = np.stack([
            velocity(ham_shear, t) for t in ham_shear.times
        ])

        def field(t, pts):
            samples = interp_time(ham_shear.times, stack, float(np.clip(t, 0, 1)))
            return PeriodicInterp(torus, samples).at(pts)

        redone = flow(TimeField(torus, field), ham_shear.steps)
        rk4_tol = 10.0 * max(1e-8, float(ham_shear.steps) ** -4)
        assert c0_distance(redone, ham_shear) < max(rk4_tol, 1e-6)


class TestInverse:
    def test_translation_inverse(self, torus):
        iso = translation_isotopy(torus, 100, (0.3, 0.1))
        inv = inverse(iso)
        assert np.abs(inv.disp[-1][0] + 0.3).max() < 1e-10
        assert np.abs(inv.disp[-1][1] + 0.1).max() < 1e-10

    def test_double_inverse(self, shear):
        assert c0_distance(inverse(inverse(shear)), shear) < 1e-8

    def test_inverse_composes_to_identity(self, torus, shear):
        end = shear.time_one()
        inv = end.inverse()
        assert end.compose(inv).c0_distance() < 1e-9

    def test_inverse_generator_trace(self, torus, ham_shear):
        from torusflux import generator_residual, generator_of

        inv = inverse(ham_shear)
        assert inv.gen is not None
        assert generator_residual(inv, generator_of(inv), nt=5) < 1e-6
        # harmonic parts negate, oscillations agree
        fwd = generator_of(ham_shear)
        assert np.abs(inv.gen.H + fwd.H).max() < 1e-10

    def test_inverse_builds_one_spline_per_slice(self, ham_shear, monkeypatch):
        # per slice one displacement and one Jacobian spline for the Newton
        # solve, plus one generator spline per time sample
        from torusflux.torus import PeriodicInterp

        builds = []
        init = PeriodicInterp.__init__

        def counting(self, *args, **kwargs):
            builds.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(PeriodicInterp, "__init__", counting)
        inverse(ham_shear)
        assert len(builds) <= 3 * ham_shear.steps + 1

    def test_translation_slices_need_no_jacobian_spline(self, torus):
        # the minimal-lift guess inverts a translation exactly, so no slice
        # takes a Newton step, warm start or not
        from torusflux.torus import PeriodicInterp

        jacobian_builds = []
        init = PeriodicInterp.__init__

        def counting(self, torus_, samples):
            jacobian_builds.append(np.shape(samples)[:1] == (torus_.dim**2,))
            init(self, torus_, samples)

        iso = translation_isotopy(torus, 100, (0.3, 0.1))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(PeriodicInterp, "__init__", counting)
            inv = inverse(iso)
        assert not any(jacobian_builds)
        assert np.abs(inv.disp[1:] + iso.disp[1:]).max() < 1e-12

    def test_fold_over_raises(self, torus):
        # displacement with slope < -1 folds the torus over
        disp = np.zeros((2,) + torus.shape)
        disp[0] = -1.5 * np.sin(2 * np.pi * torus.grid[0]) / (2 * np.pi) * 7
        with pytest.raises(InversionError):
            GridMap(torus, disp).inverse()

    def test_mild_fold_over_raises(self, torus):
        # det D(phi) = 1 + 0.6 pi cos(2 pi x) >= -0.88: Newton converges to
        # a preimage of every grid point (phi o inv is the identity to 1e-6),
        # but inv o phi is 0.5 off it; only the determinant shows the fold
        disp = np.zeros((2,) + torus.shape)
        disp[0] = 0.3 * np.sin(2 * np.pi * torus.grid[0])
        fold = GridMap(torus, disp)
        assert fold.det_jacobian().min() < -0.8
        with pytest.raises(InversionError, match="folds over"):
            fold.inverse()
        with pytest.raises(InversionError, match="folds over"):
            fold.check_unfolded()
        GridMap(torus, 0.5 * disp).check_unfolded()  # det >= 0.06


class TestConservativity:
    def test_hamiltonian_shear_conserves(self, ham_shear):
        report = verify_conservative(ham_shear)
        assert report.max_det_residual < 1e-8
        assert report.max_div_residual < 1e-8
        assert report.ok

    def test_negative_control(self, torus):
        # x-dependent x-velocity is not divergence free
        def bad(t, p):
            out = np.zeros_like(p)
            out[..., 0] = 0.2 * np.sin(2 * np.pi * p[..., 0])
            return out

        iso = flow(TimeField(torus, bad), 60)
        report = verify_conservative(iso)
        assert report.max_div_residual > 1e-2
        assert not report.ok

    def test_det_jacobian_all_times(self, shear):
        report = verify_conservative(shear, nt=11)
        assert report.max_det_residual < 1e-8


class TestComposeAndDistance:
    def test_identity_distance(self, shear):
        assert c0_distance(shear, shear) == 0.0

    def test_translation_distance(self, torus):
        iso = translation_isotopy(torus, 100, (0.1, 0.0))
        assert abs(c0_distance(iso) - 0.1) < 1e-12

    def test_resampling_distance(self, torus):
        a = translation_isotopy(torus, 100, (0.1, 0.0))
        b = translation_isotopy(torus, 60, (0.1, 0.0))
        assert c0_distance(a, b) < 1e-9

    def test_compose_field_layouts(self, torus, shear):
        end = shear.time_one()
        stacked = np.stack([np.sin(2 * np.pi * torus.grid[1]), torus.grid[0] ** 2])
        got = end.compose_field(stacked)
        assert got.shape == stacked.shape
        for j in range(2):
            assert np.array_equal(got[j], end.compose_field(stacked[j]))
        # the shear moves x only, so a function of y is pulled back exactly
        assert np.abs(got[0] - stacked[0]).max() < 1e-12
        cubic = end.compose(end, spectral=False)
        assert np.array_equal(cubic.disp, end.disp + end.compose_field(end.disp))

    def test_compose_pointwise_endpoint(self, torus, shear, ham_shear):
        comp = compose_pointwise(shear, ham_shear)
        expected = shear.time_one().compose(ham_shear.time_one())
        assert np.abs(comp.disp[-1] - expected.disp).max() < 1e-10


class TestHarmonicIsotopy:
    def test_matches_flow(self, torus):
        def coeffs(t):
            return np.array([0.4 * np.cos(2 * np.pi * t), 0.1])

        exact = harmonic_isotopy(torus, coeffs, 100)
        # oracle: translation by the time integral of rot((a, b)) = (b, -a)
        t = exact.times
        got_x = exact.disp[:, 0].reshape(len(t), -1)[:, 0]
        got_y = exact.disp[:, 1].reshape(len(t), -1)[:, 0]
        assert np.abs(got_x - 0.1 * t).max() < 1e-10
        assert np.abs(got_y + 0.4 * np.sin(2 * np.pi * t) / (2 * np.pi)).max() < 1e-10
