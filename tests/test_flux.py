import weakref

import numpy as np
import pytest

from torusflux import FlatTorus, OneForm, integrate, poincare_pair
from torusflux.families import (
    TrigHamiltonian,
    hamiltonian_loop,
    hamiltonian_shear,
    random_conservative_isotopy,
    shear_profile,
    standard_shear,
    translation_isotopy,
    x_shear_field,
    y_shear_field,
)
from torusflux.flows import Isotopy, TimeField, flow, identity_isotopy, verify_conservative
from torusflux.flux import (
    cocycle_residual,
    factorization1_check,
    factorization2_check,
    flux_class,
    flux_equality_via_orbits,
    flux_function,
    flux_lattice,
    flux_pde_residual,
    loop_orbit_constancy,
    orbit_displacement,
    orbit_of,
    order_cycle_test,
    rigidity_experiment,
    scaled_to_target,
)
from torusflux.paths import concat_right


@pytest.fixture(scope="module")
def dx(torus):
    return OneForm.harmonic_form(torus, (1, 0))


def _mk_torus():
    return FlatTorus(2, 32, symplectic=True)


class TestFluxFunction:
    def test_identity_path(self, torus, dx):
        iso = identity_isotopy(torus, 60)
        assert np.abs(flux_function(dx, iso, 1.0)).max() == 0.0

    def test_shear_profile_recovered(self, torus, shear, dx):
        # oracle: the time-one flux function of dx under the shear is g(y)
        got = flux_function(dx, shear, 1.0)
        assert np.abs(got - shear_profile(1.0)(torus.grid[1])).max() < 1e-10

    def test_exact_form_on_loop(self, torus, trans_loop):
        pot = np.sin(2 * np.pi * torus.grid[0])
        form = OneForm.exact_form(torus, pot)
        got = flux_function(form, trans_loop, 1.0)
        assert np.abs(got).max() < 1e-9

    def test_differential_identity(self, torus, shear):
        from torusflux import flow_tolerance

        form = OneForm(
            torus, (1, 0),
            np.sin(2 * np.pi * torus.grid[0]) * np.sin(2 * np.pi * torus.grid[1]) / 10,
        )
        tol = flow_tolerance(torus.grid_res, 20.0)
        for t in (0.25, 0.5, 0.75, 0.9, 1.0):
            assert flux_pde_residual(form, shear, t) < tol

    def test_nonclosed_rejected(self, torus, shear):
        beta = np.zeros((2,) + torus.shape)
        beta[0] = np.sin(2 * np.pi * torus.grid[1])
        from torusflux.torus import hodge_decompose

        form = hodge_decompose(torus, beta)
        with pytest.raises(ValueError):
            flux_function(form, shear, 1.0)


class TestFluxClass:
    def test_shear(self, shear):
        fc = flux_class(shear)
        assert np.abs(fc.pairings - [0.5, 0.0]).max() < 1e-7

    def test_hamiltonian(self, ham_shear):
        assert flux_class(ham_shear).norm() < 1e-7

    def test_translation_loop(self, trans_loop):
        fc = flux_class(trans_loop)
        assert np.abs(fc.pairings - [1.0, 0.0]).max() < 1e-9

    def test_nonconservative_warns(self, torus):
        def bad(t, p):
            out = np.zeros_like(p)
            out[..., 0] = 0.3 * np.sin(2 * np.pi * p[..., 0])
            return out

        # flux_class does not check conservativity; verify_conservative does
        iso = flow(TimeField(torus, bad), 60)
        assert not verify_conservative(iso, nt=3).ok

    def test_homomorphism_over_pairs(self, torus, rng):
        worst = 0.0
        for _ in range(50):
            phi = random_conservative_isotopy(torus, rng, 60)
            psi = random_conservative_isotopy(torus, rng, 60)
            end = phi.time_one().compose(psi.time_one())
            combined = end.disp.reshape(2, -1).mean(axis=1)
            parts = (
                flux_class(phi).pairings
                + flux_class(psi).pairings
            )
            worst = max(worst, float(np.abs(combined - parts).max()))
        assert worst < 1e-6

    def test_representative_independence(self, torus, shear, dx):
        base = integrate(torus, flux_function(dx, shear, 1.0))
        shifted = OneForm(torus, (1, 0), np.cos(2 * np.pi * torus.grid[1]) / 7)
        alt = integrate(torus, flux_function(shifted, shear, 1.0))
        assert abs(base - alt) < 1e-9


class TestCocycle:
    def test_identity_path_trivial(self, torus, shear, dx):
        triv = identity_isotopy(torus, shear.steps)
        assert cocycle_residual(shear, triv, dx) < 1e-12

    def test_two_shears(self, torus, dx):
        a = flow(x_shear_field(torus, shear_profile(0.8)), 100)
        b = flow(y_shear_field(torus, shear_profile(0.6)), 100)
        form = OneForm(
            torus, (1, 0),
            np.sin(2 * np.pi * torus.grid[0]) * np.sin(2 * np.pi * torus.grid[1]) / 25,
        )
        assert cocycle_residual(a, b, form) < 1e-4  # N = 32 here; 1e-5 at 64

    def test_commuting_translations(self, torus, dx):
        a = translation_isotopy(torus, 100, (0.3, 0.0))
        b = translation_isotopy(torus, 100, (0.0, 0.4))
        assert cocycle_residual(a, b, dx) < 1e-8


class TestFactorization1:
    def test_constant_form_shear(self, torus, shear, dx):
        rows = factorization1_check(lambda t: dx, shear, ts=(1.0,))
        t, lhs, rhs, gap = rows[0]
        assert abs(lhs - 0.5) < 1e-6
        assert gap < 1e-6

    def test_time_family_translation(self, torus):
        trans = translation_isotopy(torus, 100, (1.0, 0.0))

        def family(t):
            return OneForm.harmonic_form(torus, (1 - t, t))

        rows = factorization1_check(family, trans, ts=(0.5,))
        t, lhs, rhs, gap = rows[0]
        assert abs(lhs - 0.25) < 1e-9  # pairing of (1/2, 1/2) with (1/2, 0)
        assert gap < 1e-9

    def test_exact_family(self, torus, shear):
        form = OneForm.exact_form(torus, np.sin(2 * np.pi * torus.grid[0]) / 5)
        rows = factorization1_check(lambda t: form, shear)
        assert max(max(abs(r[1]), abs(r[2])) for r in rows) < 1e-6


class TestFactorization2:
    @pytest.fixture(scope="module")
    def torus4(self):
        return FlatTorus(4, 12, symplectic=True)

    def test_product_shear(self, torus4):
        def field(t, p):
            out = np.zeros_like(p)
            out[..., 0] = 0.7 * (1 + np.sin(2 * np.pi * p[..., 1])) / 2
            out[..., 2] = 0.4 * (1 + np.cos(2 * np.pi * p[..., 3])) / 2
            return out

        report = factorization2_check(
            TimeField(torus4, field, "symplectic"), 60, time_samples=13
        )
        # wedge-algebra oracle: pairings are the mean profiles (gbar, 0, hbar, 0)
        assert np.abs(report.lhs - [0.35, 0.0, 0.2, 0.0]).max() < 1e-6
        assert report.residual < 1e-5

    def test_translation(self, torus4):
        def field(t, p):
            out = np.zeros_like(p)
            out[..., 0] = 1.0
            return out

        report = factorization2_check(
            TimeField(torus4, field, "symplectic"), 60, time_samples=7
        )
        assert np.abs(report.lhs - [1, 0, 0, 0]).max() < 1e-9
        assert report.residual < 1e-9

    def test_hamiltonian_vanishes(self, torus4):
        ham = TrigHamiltonian(torus4, np.random.default_rng(5), amplitude=0.05)
        report = factorization2_check(ham.field(), 60, time_samples=7)
        assert report.residual < 1e-3
        assert np.abs(report.lhs).max() < 1e-3

    @pytest.mark.parametrize("steps", [50, 100])
    @pytest.mark.parametrize("kind, time_samples", [
        ("symplectic", 21), ("harmonic", 11), ("hamiltonian", 11),
    ])
    def test_thinned_flow_equals_full_stack(self, steps, kind, time_samples, monkeypatch):
        import weakref

        import torusflux.flux as flux_mod
        from torusflux.flows import constant_field

        torus4 = FlatTorus(4, 8, symplectic=True)

        def shear(t, p):
            out = np.zeros_like(p)
            out[..., 0] = 0.7 * (1 + np.sin(2 * np.pi * p[..., 1])) / 2
            out[..., 2] = 0.4 * (1 + np.cos(2 * np.pi * p[..., 3])) / 2
            return out

        x_field = {
            "symplectic": lambda: TimeField(torus4, shear, "symplectic"),
            "harmonic": lambda: constant_field(torus4, (1, 0, 0, 0)),
            "hamiltonian": lambda: TrigHamiltonian(
                torus4, np.random.default_rng(11), amplitude=0.05).field(),
        }[kind]()
        # every slice the flow yields is tracked while it is alive
        refs, most = [], []
        real = flux_mod.flow_slices

        def tracking(*args):
            for disp in real(*args):
                refs.append(weakref.ref(disp))
                most.append(sum(ref() is not None for ref in refs))
                yield disp

        monkeypatch.setattr(flux_mod, "flow_slices", tracking)
        thinned = factorization2_check(x_field, steps, time_samples=time_samples)
        ks = np.unique(np.linspace(0, steps, time_samples).astype(int))
        assert len(most) == len(ks)
        # the slice being read and the one before it, never the others
        assert max(most) <= 2

        # the full-stack route: every slice of flow(), then the sampled ones
        monkeypatch.setattr(flux_mod, "flow_slices",
                            lambda f, k, keep: iter(flow(f, k).disp[keep]))
        full = factorization2_check(x_field, steps, time_samples=time_samples)
        for name in ("lhs", "rhs", "omega_flux"):
            a, b = getattr(thinned, name), getattr(full, name)
            assert a.tobytes() == b.tobytes(), name

    def test_traced_peak_does_not_grow_with_the_samples(self):
        # at most about two T^4 slices are alive: 51 sampled slices cost no
        # more traced memory than 11 (with stored slices, 40 slices more)
        import tracemalloc

        torus4 = FlatTorus(4, 8, symplectic=True)

        def shear(t, p):
            out = np.zeros_like(p)
            out[..., 0] = 0.7 * (1 + np.sin(2 * np.pi * p[..., 1])) / 2
            out[..., 2] = 0.4 * (1 + np.cos(2 * np.pi * p[..., 3])) / 2
            return out

        x_field = TimeField(torus4, shear, "symplectic")
        slice_bytes = torus4.dim * 8**4 * 8
        peaks = {}
        for samples in (11, 51):
            tracemalloc.start()
            try:
                factorization2_check(x_field, 100, time_samples=samples)
                peaks[samples] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[51] < peaks[11] + 2 * slice_bytes, (
            (peaks[51] - peaks[11]) / slice_bytes)

    def test_dimension_guard(self, torus, shear):
        with pytest.raises(ValueError):
            factorization2_check(shear.provenance, shear.steps)


class TestOrbits:
    def test_loop_constancy_translation(self, torus, trans_loop, dx):
        value, dev = loop_orbit_constancy(trans_loop, dx)
        assert abs(value - 1.0) < 1e-9
        assert dev < 1e-7

    def test_transverse_direction(self, torus, trans_loop):
        dy = OneForm.harmonic_form(torus, (0, 1))
        value, dev = loop_orbit_constancy(trans_loop, dy)
        assert abs(value) < 1e-9
        assert dev < 1e-7

    def test_hamiltonian_loop_contracts(self, torus, dx):
        loop = hamiltonian_loop(torus, 100)
        value, dev = loop_orbit_constancy(loop, dx)
        assert abs(value) < 1e-6
        assert dev < 1e-5
        pts = np.random.default_rng(3).uniform(size=(8, 2))
        for p in pts:
            assert tuple(orbit_of(loop, p).winding(tol=1e-5)) == (0, 0)

    def test_not_a_loop_rejected(self, torus, shear, dx):
        with pytest.raises(ValueError):
            loop_orbit_constancy(shear, dx)

    def test_orbit_length_bound(self, torus, shear):
        orbit = orbit_of(shear, np.array([0.2, 0.4]))
        from torusflux import torus_distance

        chord = float(torus_distance(orbit.path[-1], orbit.path[0]))
        assert orbit.length >= chord - 1e-12


class TestOrbitCriterion:
    def test_reparametrized_same_flux(self, torus, shear):
        from torusflux.paths import reparametrized

        rep = reparametrized(shear, lambda s: s**2)
        verdict = flux_equality_via_orbits(shear, rep, (0.3, 0.7))
        assert verdict.contractible
        assert verdict.fluxes_equal

    def test_hamiltonian_loop_appendix(self, torus, shear):
        loop = hamiltonian_loop(torus, shear.steps)
        other = concat_right(shear, loop)
        verdict = flux_equality_via_orbits(shear, other, (0.3, 0.7))
        assert verdict.contractible
        assert verdict.fluxes_equal

    def test_translation_loop_control(self, torus, shear, trans_loop):
        other = concat_right(shear, trans_loop)
        verdict = flux_equality_via_orbits(shear, other, (0.3, 0.7))
        assert tuple(verdict.winding_difference) == (1, 0)
        assert not verdict.contractible
        gap = verdict.flux_psi - verdict.flux_phi
        assert np.abs(gap - [1.0, 0.0]).max() < 1e-6

    def test_reads_no_orbit_path(self, torus, shear, monkeypatch):
        # the winding comes from the two lifted time-one images alone
        other = concat_right(shear, hamiltonian_loop(torus, shear.steps))
        calls = []
        real = Isotopy.eval_orbit

        def counting(iso, x):
            calls.append(iso)
            return real(iso, x)

        monkeypatch.setattr(Isotopy, "eval_orbit", counting)
        verdict = flux_equality_via_orbits(shear, other, (0.3, 0.7))
        assert verdict.contractible and verdict.fluxes_equal
        assert calls == []

    def test_endpoint_mismatch(self, torus, shear, trans_loop):
        with pytest.raises(ValueError):
            flux_equality_via_orbits(shear, trans_loop, (0.3, 0.7))


class TestOrderCycles:
    def test_half_translation(self, torus):
        half = translation_isotopy(torus, 100, (0.5, 0.0))
        report = order_cycle_test(half, 2)
        assert tuple(report.cycle_winding) == (1, 0)
        assert np.abs(report.flux - [0.5, 0.0]).max() < 1e-6
        assert report.relation_residual < 1e-5
        assert report.verdict

    def test_third_translation(self, torus):
        third = translation_isotopy(torus, 99, (1.0 / 3.0, 0.0))
        report = order_cycle_test(third, 3)
        assert tuple(report.cycle_winding) == (1, 0)
        assert report.relation_residual < 1e-5

    def test_identity_order_one(self, torus):
        loop = hamiltonian_loop(torus, 100)
        report = order_cycle_test(loop, 1)
        assert tuple(report.cycle_winding) == (0, 0)
        assert np.abs(report.flux).max() < 1e-6
        assert report.verdict

    def test_wrong_order_rejected(self, torus, shear):
        with pytest.raises(ValueError):
            order_cycle_test(shear, 2)


class TestOrbitDisplacement:
    """Endpoint displacements are bitwise the orbit's, without the orbit."""

    @pytest.fixture(scope="class")
    def paths16(self):
        torus16 = FlatTorus(2, 16, symplectic=True)
        shear16 = standard_shear(torus16, 60)
        data = Isotopy(torus16, shear16.times, shear16.disp)
        return {"provenance": shear16, "data": data,
                "concatenation": concat_right(shear16, hamiltonian_loop(torus16, 60))}

    @pytest.mark.parametrize("name", ["provenance", "data", "concatenation"])
    @pytest.mark.parametrize("x", [(0.1, 0.2), (0.0, 0.0), ((0.3, 0.7), (0.9, 0.05))])
    def test_equals_the_orbit(self, paths16, name, x, monkeypatch):
        path = paths16[name]
        expected = orbit_of(path, x).displacement
        builds = []
        monkeypatch.setattr(Isotopy, "eval_orbit", lambda *a: builds.append(1))
        got = orbit_displacement(path, x)
        assert builds == []
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()


class TestRigidity:
    def test_sequence_is_read_in_one_pass(self, torus):
        def members():
            for i in range(3):
                yield hamiltonian_loop(torus, 60, np.random.default_rng(7),
                                       amplitude=0.1 * (1 + 1 / (i + 1)))

        limit = hamiltonian_loop(torus, 60, np.random.default_rng(7), amplitude=0.1)
        points = np.array([[0.2, 0.6], [0.7, 0.1]])
        streamed = rigidity_experiment(members(), limit, sample_points=points)
        listed = rigidity_experiment(list(members()), limit, sample_points=points)
        assert streamed.hypothesis_ok and listed.hypothesis_ok
        for name in ("flux_norms", "distances", "windings"):
            a, b = getattr(streamed, name), getattr(listed, name)
            assert a.tobytes() == b.tobytes(), name

    def test_member_is_released_before_the_next_is_built(self, torus):
        # two live (K+1, d) + grid stacks would double the experiment's peak
        built = []

        def members():
            for i in range(3):
                assert all(ref() is None for ref in built), i
                member = hamiltonian_loop(torus, 60, np.random.default_rng(7),
                                          amplitude=0.1 * (1 + 1 / (i + 1)))
                built.append(weakref.ref(member))
                yield member
                del member

        limit = hamiltonian_loop(torus, 60, np.random.default_rng(7), amplitude=0.1)
        report = rigidity_experiment(members(), limit,
                                     sample_points=np.array([[0.2, 0.6]]))
        assert report.hypothesis_ok and len(built) == 3

    def test_hamiltonian_sequence(self, torus):
        rng = np.random.default_rng(7)
        seq = [
            hamiltonian_loop(torus, 80, np.random.default_rng(7),
                             amplitude=0.1 * (1 + 1 / (i + 1)))
            for i in range(3)
        ]
        limit = hamiltonian_loop(torus, 80, np.random.default_rng(7), amplitude=0.1)
        report = rigidity_experiment(seq, limit,
                                     sample_points=rng.uniform(size=(8, 2)))
        assert report.hypothesis_ok
        assert report.all_contractible
        assert report.distances[-1] < report.distances[0]

    def test_flux_violation_flagged(self, torus, trans_loop):
        report = rigidity_experiment([trans_loop], trans_loop)
        assert not report.hypothesis_ok
        assert report.windings is None

    def test_constant_sequence(self, torus):
        limit = hamiltonian_loop(torus, 80)
        report = rigidity_experiment([limit, limit], limit,
                                     sample_points=np.array([[0.2, 0.6]]))
        assert report.hypothesis_ok
        assert report.all_contractible


    def test_limit_path_that_is_not_a_loop_raises(self):
        # flux zero and the hypotheses hold, but the orbit through
        # (0.2, 0.6) ends -sin(1.2 pi) = 0.95 away from where it started
        path = hamiltonian_shear(FlatTorus(2, 16, symplectic=True), 60)
        with pytest.raises(ValueError, match="not closed"):
            rigidity_experiment([path], path, sample_points=[[0.2, 0.6]])


class TestLatticeAndSurjectivity:
    def test_lattice_is_identity(self, torus):
        assert np.abs(flux_lattice(torus, 50) - np.eye(2)).max() < 1e-9

    def test_surjectivity(self, torus, dx):
        field = x_shear_field(torus, shear_profile(1.0))
        for target in (2.0, -0.7, 0.3):
            iso = scaled_to_target(field, dx, target, 80)
            got = poincare_pair(dx.harmonic, flux_class(iso))
            assert abs(got - target) < 1e-7

    def test_zero_pairing_rejected(self, torus, dx):
        field = y_shear_field(torus, shear_profile(1.0))  # pairs to zero with dx
        with pytest.raises(ValueError):
            scaled_to_target(field, dx, 1.0, 80)
