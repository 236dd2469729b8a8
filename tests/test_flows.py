import numpy as np
import pytest

from torusflux import (
    FlatTorus,
    GridMap,
    InversionError,
    Isotopy,
    TimeField,
    c0_distance,
    compose_pointwise,
    constant_field,
    flow,
    generator_of,
    generator_residual,
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


def _compressing(t, p):
    out = np.zeros_like(p)
    out[..., 0] = np.sin(2 * np.pi * p[..., 0])
    return out


class TestHamiltonianField:
    def test_divergence_free(self, torus, rng):
        ham = TrigHamiltonian(torus, rng)
        assert ham.field().divergence_residual() < 1e-10

    def test_kind_tag_validation(self, torus):
        with pytest.raises(ValueError):
            TimeField(torus, _compressing, "conservative").validate()
        with pytest.raises(ValueError):
            TimeField(torus, lambda t, p: np.sin(
                2 * np.pi * p[..., ::-1]
            ), "harmonic").validate()
        TimeField(torus, lambda t, p: np.full_like(p, 0.3), "harmonic").validate()

    def test_flow_checks_every_divergence_free_tag(self, torus):
        for kind in ("conservative", "symplectic", "hamiltonian"):
            with pytest.raises(ValueError, match="divergence"):
                flow(TimeField(torus, _compressing, kind), 50)
        # a general field carries no claim to check
        assert flow(TimeField(torus, _compressing, "general"), 50).kind == "general"


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

    @pytest.mark.parametrize("dim, n", [(2, 32), (4, 8)])
    def test_trig_hamiltonian_generator_is_its_value(self, dim, n):
        # oracle: the field of H has the generator U_t = H - mean(H),
        # H_t = 0; on T^4 this checks the sign over both symplectic pairs
        torus = FlatTorus(dim, n, symplectic=True)
        ham = TrigHamiltonian(torus, np.random.default_rng(5))
        gen = generator_of(flow(ham.field(), 50))
        value = ham.value(torus.points).reshape(torus.shape)
        assert np.abs(gen.U - (value - value.mean())).max() < 1e-14
        assert np.abs(gen.H).max() < 1e-14

    def test_identity_generator(self, torus):
        from torusflux import identity_isotopy

        gen = generator_of(identity_isotopy(torus))
        assert np.abs(gen.U).max() == 0.0
        assert np.abs(gen.H).max() == 0.0

    def test_data_route_agrees(self, shear):
        gen_field = generator_of(shear)
        # a copy without provenance takes the finite-difference route
        gen_data = generator_of(Isotopy(shear.torus, shear.times, shear.disp))
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
        # every slice is a translation, inverted by negating its displacement
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

    def test_spectral_paths_evaluate_all_components_in_one_call(
        self, torus, shear, ham_shear, monkeypatch
    ):
        from torusflux import torus as torus_mod

        calls = []
        evaluate = torus_mod.eval_spectral

        def counting(*args, **kwargs):
            calls.append(np.shape(args[1]))
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(torus_mod, "eval_spectral", counting)
        shear.time_one().compose(ham_shear.time_one(), spectral=True)
        assert calls == [(2,) + torus.shape]
        calls.clear()
        path = np.linspace([0.1, 0.2], [0.7, 1.4], 9)
        torus_mod.integrate_form_along_path(torus, shear.disp[-1], path)
        assert calls == [(2,) + torus.shape]

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


class TestRepeatedSlices:
    """A slice bitwise equal to the previous one reuses its result."""

    @staticmethod
    def _per_slice_generator(iso):
        from torusflux.flows import contract_field_to_coeffs
        from torusflux.torus import hodge_decompose

        forms = [
            hodge_decompose(iso.torus,
                            contract_field_to_coeffs(iso.provenance.sample(t)))
            for t in iso.times
        ]
        return (np.stack([f.potential for f in forms]),
                np.stack([f.harmonic for f in forms]))

    # the cos(2 pi t) profile of the loop makes every slice differ: a
    # negative control for the autonomous shear
    @pytest.mark.parametrize("family,every_slice", [
        ("hamiltonian_shear", False), ("hamiltonian_loop", True),
    ])
    def test_generator_splits_each_distinct_slice_once(
        self, torus, monkeypatch, family, every_slice
    ):
        from torusflux import families, flows

        iso = getattr(families, family)(torus, 100)
        ref_u, ref_h = self._per_slice_generator(iso)
        calls = []
        real = flows.hodge_decompose

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(flows, "hodge_decompose", counting)
        gen = generator_of(iso)
        assert len(calls) == (iso.steps + 1 if every_slice else 1)
        assert np.array_equal(gen.U, ref_u)
        assert np.array_equal(gen.H, ref_h)

    @pytest.mark.parametrize("kind", ["x-shear", "y-shear"])
    def test_shear_draw_evaluates_its_profile_once(self, torus, monkeypatch, kind):
        from torusflux import families

        profiles, calls = [], []
        for name in ("x_shear_field", "y_shear_field"):
            def counted_make(torus_, g, _make=getattr(families, name)):
                profiles.append(g)

                def counted(y):
                    calls.append(1)
                    return g(y)

                return _make(torus_, counted)

            monkeypatch.setattr(families, name, counted_make)
        iso = families.random_conservative_isotopy(
            torus, np.random.default_rng(5), 100, kinds=(kind,)
        )
        assert len(calls) == 1
        # the plain per-stage evaluator: g at every RK4 stage of every step
        moved, along = (0, 1) if kind == "x-shear" else (1, 0)

        def plain(t, points):
            out = np.zeros_like(points)
            out[..., moved] = profiles[0](points[..., along])
            return out

        ref = flow(TimeField(torus, plain, "conservative"), 100)
        assert np.array_equal(iso.disp, ref.disp)

    def test_product_shear_evaluates_each_profile_once(self):
        from torusflux import FlatTorus
        from torusflux.families import _shear_evaluator

        torus4 = FlatTorus(4, 8, symplectic=True)
        calls = []

        def sine(y):
            calls.append("sine")
            return 0.7 * (1 + np.sin(2 * np.pi * y)) / 2

        def cosine(y):
            calls.append("cosine")
            return 0.4 * (1 + np.cos(2 * np.pi * y)) / 2

        def plain(t, p):
            vec = np.zeros_like(p)
            vec[..., 0] = 0.7 * (1 + np.sin(2 * np.pi * p[..., 1])) / 2
            vec[..., 2] = 0.4 * (1 + np.cos(2 * np.pi * p[..., 3])) / 2
            return vec

        shear = _shear_evaluator((sine, 0, 1), (cosine, 2, 3))
        iso = flow(TimeField(torus4, shear, "symplectic"), 50)
        assert calls == ["sine", "cosine"]
        ref = flow(TimeField(torus4, plain, "symplectic"), 50)
        assert np.array_equal(iso.disp, ref.disp)

    def test_signed_zero_is_not_a_repeat(self):
        from torusflux.flows import is_repeat

        a = np.array([0.0, 1.0])
        assert is_repeat(a, a.copy())
        assert not is_repeat(a, None)
        assert not is_repeat(np.array([-0.0, 1.0]), a)
        assert not is_repeat(np.array([np.nan]), np.array([np.nan]))


class TestShortcuts:
    """An all-zero field composes without a spline, and the T^2 determinant
    is taken in closed form; both give the numbers of the general route."""

    @pytest.fixture()
    def builds(self, monkeypatch):
        from torusflux.torus import PeriodicInterp

        made = []
        init = PeriodicInterp.__init__

        def counting(self, *args, **kwargs):
            made.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(PeriodicInterp, "__init__", counting)
        return made

    @pytest.mark.parametrize("lead", [(), (2,)])
    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_zero_field_composes_without_a_spline(self, torus, shear, builds,
                                                  lead, zero):
        from torusflux.torus import PeriodicInterp

        end = shear.time_one()
        zeros = np.full(lead + torus.shape, zero)
        got = end.compose_field(zeros)
        assert builds == []
        assert np.array_equal(got, end.compose_field(PeriodicInterp(torus, zeros)))
        assert got.shape == zeros.shape and not np.signbit(got).any()

    def test_harmonic_second_piece_is_pushed_forward_without_splines(
        self, ham_shear, trans_loop, builds
    ):
        from torusflux.paths import concat_right

        # the translation loop's potential is zero on every slice; pushing it
        # forward built one spline per distinct second-half slice (94 here)
        out = concat_right(ham_shear, trans_loop, with_generator=True)
        assert out.gen is not None
        assert len(builds) <= 1

    @pytest.mark.parametrize("spread", [0.05, 2.0])
    def test_closed_form_det_matches_lapack(self, torus, rng, spread):
        from torusflux.flows import _grid_det

        # spread 2.0 folds: about half the grid points have det < 0
        jac = np.eye(2).reshape(2, 2, 1, 1) + spread * rng.standard_normal(
            (2, 2) + torus.shape)
        lapack = np.linalg.det(np.moveaxis(jac, (0, 1), (-2, -1)))
        if spread > 1.0:
            assert (lapack < 0).mean() > 0.2
        scale = np.abs(jac[0, 0] * jac[1, 1]) + np.abs(jac[0, 1] * jac[1, 0])
        assert np.all(np.abs(_grid_det(jac) - lapack) <= 1e-14 * scale)

    def test_det_jacobian_on_t3_is_lapack(self):
        from torusflux import FlatTorus

        t3 = FlatTorus(3, 8)
        disp = np.stack([0.05 * np.sin(2 * np.pi * t3.grid[(i + 1) % 3])
                         * np.cos(2 * np.pi * t3.grid[i]) for i in range(3)])
        g = GridMap(t3, disp)
        lapack = np.linalg.det(np.moveaxis(g.jacobian(), (0, 1), (-2, -1)))
        assert np.array_equal(g.det_jacobian(), lapack)


class TestExactTranslations:
    """A harmonic flow is the origin's orbit broadcast to the grid, and a map
    with one displacement vector is applied, composed and inverted exactly."""

    @pytest.fixture()
    def spy(self, monkeypatch):
        """Counts spline builds, trigonometric evaluations and gradients."""
        from torusflux import flows, torus as torus_mod
        from torusflux.torus import PeriodicInterp

        made = {"spline": 0, "eval_spectral": 0, "grad": 0}
        init = PeriodicInterp.__init__

        def counting_init(self, *args, **kwargs):
            made["spline"] += 1
            init(self, *args, **kwargs)

        def counted(name, real):
            def wrapper(*args, **kwargs):
                made[name] += 1
                return real(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(PeriodicInterp, "__init__", counting_init)
        monkeypatch.setattr(torus_mod, "eval_spectral",
                            counted("eval_spectral", torus_mod.eval_spectral))
        monkeypatch.setattr(flows, "grad", counted("grad", flows.grad))
        return made

    @staticmethod
    def _shift_map(torus, vec):
        return GridMap(torus, np.broadcast_to(
            np.asarray(vec, dtype=float).reshape(2, 1, 1), (2,) + torus.shape).copy())

    def test_harmonic_flow_integrates_one_point(self, torus):
        from torusflux.flows import integrate_trajectories

        def speed(t, points):
            out = np.empty_like(points)
            out[..., 0] = 0.4 * np.cos(2 * np.pi * t)
            out[..., 1] = 0.1 + t
            return out

        sizes = []

        def counted(t, points):
            sizes.append(points.size // 2)
            return speed(t, points)

        iso = flow(TimeField(torus, counted, "harmonic"), 100)
        # every other call is a grid sample of the harmonic guard
        assert sizes.count(1) == 4 * 100
        assert len(sizes) - sizes.count(1) <= 4
        flat = iso.disp.reshape(101, 2, -1)
        assert np.array_equal(flat, np.broadcast_to(flat[..., :1], flat.shape))
        per_point = integrate_trajectories(
            TimeField(torus, speed), torus.points, 100) - torus.points
        per_point = np.moveaxis(per_point, -1, 1).reshape(iso.disp.shape)
        assert np.abs(iso.disp - per_point).max() < 1e-13
        assert iso.kind == "harmonic" and iso.provenance.evaluator is counted

    def test_harmonic_tag_on_a_varying_field_raises(self, torus):
        def shear(t, points):
            out = np.zeros_like(points)
            out[..., 0] = np.sin(2 * np.pi * points[..., 1])
            return out

        with pytest.raises(ValueError, match="not spatially constant"):
            flow(TimeField(torus, shear, "harmonic"), 50)

    def test_harmonic_guard_checks_every_sampled_time(self, torus):
        # divergence free and constant at t = 1/2, but not at t = 0 or 1
        def wave(t, points):
            out = np.zeros_like(points)
            out[..., 0] = (1 - 2 * t) * np.sin(2 * np.pi * points[..., 1]) + 0.3
            return out

        with pytest.raises(ValueError, match="not spatially constant"):
            flow(TimeField(torus, wave, "harmonic"), 50)

    def test_harmonic_guard_takes_no_divergence(self, torus, monkeypatch):
        from torusflux import flows

        calls = []
        real = flows.divergence

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(flows, "divergence", counting)
        flow(constant_field(torus, (0.3, -0.2)), 50)
        assert calls == []

    @pytest.mark.parametrize("spectral", [True, False])
    def test_translation_is_exact_without_splines(self, torus, shear, spy,
                                                  spectral):
        from torusflux.torus import PeriodicInterp, eval_spectral

        vec = (0.3, -0.7)
        shift = self._shift_map(torus, vec)
        inner = shear.time_one()
        points = np.random.default_rng(3).uniform(-1.0, 1.0, (500, 2))
        applied = shift.apply(points)
        composed = shift.compose(inner, spectral=spectral)
        inverted = shift.inverse()
        assert spy == {"spline": 0, "eval_spectral": 0, "grad": 0}
        # the generic routes on the same data
        assert np.array_equal(applied, points + np.array(vec))
        spline = PeriodicInterp(torus, shift.disp)
        assert np.abs(applied - (points + spline.at(points))).max() < 1e-15
        generic = (eval_spectral(torus, shift.disp, inner.image_points()).T
                   .reshape(shift.disp.shape) if spectral
                   else inner.compose_field(spline))
        assert np.abs(composed.disp - inner.disp - generic).max() < 1e-15
        assert np.array_equal(inverted.disp, -shift.disp)
        assert np.abs(shift.compose(inverted).disp).max() == 0.0

    def test_one_ulp_off_takes_the_generic_route(self, torus, shear, spy):
        # guard: exactness is read from the data, bit for bit
        shift = self._shift_map(torus, (0.3, -0.7))
        disp = shift.disp.copy()
        disp[1, 5, 7] = np.nextafter(disp[1, 5, 7], 0.0)
        near = GridMap(torus, disp)
        near.apply(np.zeros((3, 2)))
        assert spy["spline"] == 1
        near.compose(shear.time_one())
        assert spy["eval_spectral"] == 1
        inv = near.inverse()
        assert spy["grad"] == 2
        assert np.abs(inv.disp + shift.disp).max() < 1e-15

    @pytest.mark.parametrize("shift", [(1.0, 0.0), (0.37, -0.11)])
    def test_inverse_of_a_translation_path_is_a_translation_path(self, shift):
        from torusflux import FlatTorus
        from torusflux.families import translation_loop

        def owner(a):
            while a.base is not None:
                a = a.base
            return a

        torus16 = FlatTorus(2, 16, symplectic=True)
        steps = 50
        path = (translation_loop(torus16, steps, (1, 0)) if shift == (1.0, 0.0)
                else translation_isotopy(torus16, steps, shift))
        inv = inverse(path)
        # the (K+1, d) shift and a 0.0 broadcast, no (K+1, d) + grid array
        assert owner(inv.disp).nbytes + owner(inv.gen.U).nbytes <= 2 * (steps + 1) * 2 * 8
        # the dense formula: -disp[k], with +0.0 at slice 0
        dense = -np.array(path.disp)
        dense[0] = 0.0
        assert np.ascontiguousarray(inv.disp).tobytes() == dense.tobytes()
        assert not np.any(inv.gen.U) and not np.signbit(inv.gen.U).any()
        assert np.array_equal(inv.gen.H, -generator_of(path).H)
        assert inv.kind == path.kind

    def test_inverse_of_a_translation_loop_negates_it(self, trans_loop, spy):
        inv = inverse(trans_loop)
        assert spy["spline"] == 0
        assert np.array_equal(inv.disp, -trans_loop.disp)
        assert inv.gen is not None


class TestPathEnds:
    @pytest.mark.parametrize("kind", ["x-shear", "y-shear", "translation", "hamiltonian"])
    def test_ends_are_the_stored_draw(self, kind):
        from torusflux import FlatTorus, families
        from torusflux.flows import flow_end
        from torusflux.flux import flux_class, orbit_displacement

        torus16 = FlatTorus(2, 16, symplectic=True)
        rng_iso, rng_end = np.random.default_rng(3), np.random.default_rng(3)
        iso = families.random_conservative_isotopy(torus16, rng_iso, 60, kinds=(kind,))
        kept = families.random_conservative_isotopy(torus16, rng_end, 60, kinds=(kind,)).ends()
        assert rng_end.bit_generator.state == rng_iso.bit_generator.state
        # the same K RK4 steps of the draw's field, one slice kept
        end = flow_end(iso.provenance, 60)
        points = np.random.default_rng(4).uniform(size=(5, 2))
        for ours in (kept, end):
            assert ours.steps == iso.steps and ours.provenance is not None
            # a translation's slice is a zero-stride broadcast in both
            for mine, stored in ((ours.last, iso.disp[-1]),
                                 (ours.time_one().disp, iso.time_one().disp)):
                assert mine.strides == stored.strides
                assert mine.tobytes() == stored.tobytes()
            assert flux_class(ours).pairings.tobytes() == flux_class(iso).pairings.tobytes()
            assert (orbit_displacement(ours, points).tobytes()
                    == orbit_displacement(iso, points).tobytes())
        # the draw kept at its ends holds no view of its stack
        assert kind == "translation" or not np.shares_memory(kept.last, iso.disp)

    def test_inverse_end_is_the_stored_inverse(self, shear):
        from torusflux.flows import inverse_end

        end = inverse_end(shear)
        stored = inverse(shear).disp[-1]
        assert end.provenance is None and end.steps == shear.steps
        assert end.last.strides == stored.strides
        assert end.last.tobytes() == stored.tobytes()
