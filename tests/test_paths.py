import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusflux import GridMap, c0_distance, flows, generator_of, identity_isotopy, inverse
from torusflux.families import (
    shear_profile,
    translation_isotopy,
)
from torusflux.flux import flux_class, orbit_of
from torusflux.flows import interp_time
from torusflux.hofer import lengths
from torusflux.paths import (
    _clamped_spline,
    _eval_spline,
    concat_left,
    concat_right,
    concat_trace,
    default_cutoff,
    iterate,
    make_cutoff,
    reparametrized,
)


class TestCutoff:
    def test_default_slope(self):
        cut = make_cutoff(1.0 / 32.0)
        assert cut.sup_slope <= 1.201

    def test_boundary_values(self):
        cut = make_cutoff(1.0 / 32.0)
        assert cut.value(0.0) == 0.0
        assert cut.value(1.0) == 1.0
        assert cut.value(1.0 / 64.0) == 0.0  # flat end at delta/2
        assert cut.value(1.0 - 1.0 / 64.0) == 1.0

    def test_half_is_the_shifted_value_and_twice_the_slope(self):
        f = default_cutoff()
        t = np.linspace(0.0, 1.0, 401)
        for second, u in ((False, 2.0 * t), (True, 2.0 * t - 1.0)):
            warp, rate = f.half(t, second)
            assert np.array_equal(warp, f.value(u))
            assert np.array_equal(rate, 2.0 * f.deriv(u))
            # one array call gives the per-slice scalar values bit for bit
            assert np.array_equal(warp, [float(f.value(s)) for s in u])

    def test_range_validation(self):
        with pytest.raises(ValueError):
            make_cutoff(0.0)
        with pytest.raises(ValueError):
            make_cutoff(0.2)

    def test_slope_tension_at_eighth(self):
        # a monotone ramp from 0 to 1 over [1/8, 7/8] has mean slope 4/3,
        # so the 6/5 bound is out of reach at the largest allowed flat width
        cut = make_cutoff(1.0 / 8.0)
        assert cut.sup_slope > 6.0 / 5.0

    @settings(max_examples=20, deadline=None)
    @given(delta=st.floats(0.004, 0.125))
    def test_monotone_and_flat(self, delta):
        cut = make_cutoff(delta)
        s = np.linspace(0.0, 1.0, 801)
        vals = cut.value(s)
        assert np.all(np.diff(vals) >= -1e-12)
        assert np.all(vals[s <= delta] == 0.0)
        assert np.all(vals[s >= 1.0 - delta] == 1.0)


class TestClampedSpline:
    """The cutoff's spline against scipy's ``CubicSpline``, bit for bit
    (scipy is the oracle)."""

    @pytest.mark.parametrize("delta", [1.0 / 32.0, 1.0 / 8.0])
    def test_equals_scipy_cubic_spline(self, delta, rng):
        from scipy.interpolate import CubicSpline

        cut = default_cutoff() if delta == 1.0 / 32.0 else make_cutoff(delta)
        assert cut.delta == delta
        knots = np.linspace(0.0, 1.0, len(cut.samples))
        ref = CubicSpline(knots, cut.samples, bc_type="clamped")
        coeffs = _clamped_spline(knots, cut.samples)
        assert _same_bits(coeffs, ref.c)
        between = 0.5 * (knots[:-1] + knots[1:])
        t = np.concatenate([knots, between, rng.random(5000), [0.0, 1.0]])
        for nu in (0, 1):
            assert _same_bits(_eval_spline(coeffs, knots, t, nu), ref(t, nu))
            for s in (0.0, 1.0, 0.3, between[100]):
                assert _same_bits(_eval_spline(coeffs, knots, s, nu), ref(s, nu))
        # the cutoff as it reads scipy's spline, clipped inputs included
        u = np.concatenate([t, [-0.5, -1e-9, 1.0 + 1e-9, 2.0]])
        c = np.clip(u, 0.0, 1.0)
        flat = (c <= delta) | (c >= 1.0 - delta)
        value = np.where(c <= delta, 0.0,
                         np.where(c >= 1.0 - delta, 1.0, np.clip(ref(c), 0.0, 1.0)))
        deriv = np.where(flat, 0.0, np.maximum(ref(c, 1), 0.0))
        assert _same_bits(cut.value(u), value)
        assert _same_bits(cut.deriv(u), deriv)


class TestConcat:
    def test_right_endpoint(self, torus, shear):
        tr = translation_isotopy(torus, 100, (0.25, 0.1))
        glued = concat_right(shear, tr)
        # cubic-built concatenation against the cubic and the trigonometric
        # composition routes; the cubic route is the same computation
        cubic = shear.time_one().compose(tr.time_one(), spectral=False)
        assert np.array_equal(glued.disp[-1], cubic.disp)
        spectral = shear.time_one().compose(tr.time_one())
        assert np.abs(glued.disp[-1] - spectral.disp).max() < 1e-5

    def test_left_endpoint(self, torus, shear):
        tr = translation_isotopy(torus, 100, (0.25, 0.1))
        glued = concat_left(tr, shear)
        cubic = tr.time_one().compose(shear.time_one(), spectral=False)
        assert np.array_equal(glued.disp[-1], cubic.disp)

    def test_identity_concat_keeps_flux(self, torus, shear):
        from torusflux import identity_isotopy

        glued = concat_right(shear, identity_isotopy(torus, 50))
        base = flux_class(shear).pairings
        got = flux_class(glued).pairings
        assert np.abs(got - base).max() < 1e-9

    def test_right_orbit_gluing(self, torus, shear):
        # oracle: orbit of p is the shear orbit glued with the image under
        # the shear time-one map of the translation orbit
        tr = translation_isotopy(torus, 100, (0.25, 0.1))
        glued = concat_right(shear, tr)
        p = np.array([0.2, 0.4])
        got = orbit_of(glued, p)
        g = shear_profile(1.0)
        mid = got.path[len(got.times) // 2]
        assert np.abs(mid - (p + np.array([g(0.4), 0.0]))).max() < 1e-6
        analytic = shear.time_one().apply((p + np.array([0.25, 0.1]))[None])[0]
        assert np.abs(got.path[-1] - analytic).max() < 1e-6

    def test_left_orbit_gluing(self, torus, shear):
        tr = translation_isotopy(torus, 100, (0.25, 0.1))
        glued = concat_left(tr, shear)
        p = np.array([0.2, 0.4])
        got = orbit_of(glued, p)
        g = shear_profile(1.0)
        shear_end = p + np.array([g(0.4), 0.0])
        mid = got.path[len(got.times) // 2]
        assert np.abs(mid - shear_end).max() < 1e-6
        assert np.abs(got.path[-1] - (shear_end + np.array([0.25, 0.1]))).max() < 1e-6

    def test_flux_additive_both_orders(self, torus, shear):
        tr = translation_isotopy(torus, 100, (0.25, 0.1))
        total = flux_class(shear).pairings + flux_class(tr).pairings
        for glued in (concat_right(shear, tr), concat_left(tr, shear)):
            got = flux_class(glued).pairings
            assert np.abs(got - total).max() < 1e-6

    def test_torus_mismatch(self, torus, shear):
        from torusflux import FlatTorus
        from torusflux.families import standard_shear

        other = standard_shear(FlatTorus(2, 16, symplectic=True), 60)
        with pytest.raises(ValueError):
            concat_right(shear, other)

    def test_concat_right_generator_exact(self, torus, shear, trans_loop):
        # compare the attached trace against the data route away from the
        # cutoff layers, where time differencing is reliable
        from torusflux.flows import contract_field_to_coeffs, velocity
        from torusflux.torus import grad

        glued = concat_right(shear, trans_loop, with_generator=True)
        gen = generator_of(glued)
        for k in (50, 100, 150):
            x = velocity(glued, glued.times[k])
            coeffs = contract_field_to_coeffs(x)
            rec = grad(torus, gen.U[k]) + gen.H[k].reshape((-1, 1, 1))
            assert np.abs(coeffs - rec).max() < 1e-8


class TestIterate:
    def test_power_one_is_reparametrization(self, torus, shear):
        it = iterate(shear, 1)
        assert c0_distance(it, shear) < 1e-9
        base = flux_class(shear).pairings
        assert np.abs(flux_class(it).pairings - base).max() < 1e-9

    def test_triple_loop_winding(self, torus, trans_loop):
        it = iterate(trans_loop, 3)
        orbit = orbit_of(it, np.array([0.3, 0.3]))
        assert tuple(orbit.winding()) == (3, 0)

    def test_negative_power_endpoint(self, torus, shear):
        it = iterate(shear, -1)
        inv_end = shear.time_one().inverse()
        assert np.abs(it.disp[-1] - inv_end.disp).max() < 1e-8

    def test_zero_power(self, shear):
        with pytest.raises(ValueError):
            iterate(shear, 0)

    def test_flux_linearity(self, torus, shear):
        base = flux_class(shear).pairings
        it = iterate(shear, 3)
        assert np.abs(flux_class(it).pairings - 3 * base).max() < 1e-6


class TestLengthLaws:
    def test_left_additivity(self, torus, ham_shear):
        tr = translation_isotopy(torus, 100, (0.3, 0.0))
        glued = concat_left(tr, ham_shear, steps=1600, with_generator=True)
        gap = abs(
            lengths(glued).l1_length
            - lengths(tr).l1_length
            - lengths(ham_shear).l1_length
        )
        assert gap < 1e-9

    def test_linf_bound(self, torus, ham_shear):
        tr = translation_isotopy(torus, 100, (0.3, 0.0))
        glued = concat_left(tr, ham_shear, steps=800, with_generator=True)
        linf = lengths(glued).linf_length
        bound = 2.4 * (lengths(tr).linf_length + lengths(ham_shear).linf_length)
        assert linf <= bound

    def test_reparametrization_invariance(self, torus, ham_shear):
        base = lengths(ham_shear).l1_length
        warps = (
            (lambda s: s**2, lambda s: 2 * s),
            (lambda s: 0.5 * (1 - np.cos(np.pi * s)),
             lambda s: 0.5 * np.pi * np.sin(np.pi * s)),
            (lambda s: s**3 * (4 - 3 * s), lambda s: 12 * s**2 * (1 - s)),
        )
        for warp, deriv in warps:
            rep = reparametrized(ham_shear, warp, steps=400, warp_deriv=deriv)
            assert abs(lengths(rep).l1_length - base) < 1e-8


class TestRepeatedSlices:
    """The second half copies the previous slice when psi_tau repeats."""

    @staticmethod
    def _per_slice(glue_left, psi, phi, steps):
        """Displacements and generator trace of the concatenation, slice by slice."""
        f = default_cutoff()
        times = np.linspace(0.0, 1.0, steps + 1)
        half = steps // 2
        end = phi.time_one()
        stack = np.empty((steps + 1, 2) + phi.torus.shape)
        for k in range(half + 1):
            stack[k] = phi.disp_at(float(f.value(2.0 * times[k])))
        for k in range(half, steps + 1):
            psi_tau = psi.map_at(float(f.value(2.0 * times[k] - 1.0)))
            glued = (psi_tau.compose(end, spectral=False) if glue_left
                     else end.compose(psi_tau, spectral=False))
            stack[k] = glued.disp
        stack[0] = 0.0

        gen_phi, gen_psi, inv_end = generator_of(phi), generator_of(psi), end.inverse()
        U = np.empty((steps + 1,) + phi.torus.shape)
        H = np.empty((steps + 1, 2))
        for k, t in enumerate(times):
            if k <= half:
                gen, s, rate = gen_phi, f.value(2.0 * t), 2.0 * f.deriv(2.0 * t)
            else:
                gen, s, rate = gen_psi, f.value(2.0 * t - 1.0), 2.0 * f.deriv(2.0 * t - 1.0)
            u = interp_time(gen.times, gen.U, float(s))
            h = interp_time(gen.times, gen.H, float(s))
            H[k] = rate * h
            if k <= half or glue_left:
                U[k] = rate * u
            elif rate == 0.0:
                U[k] = 0.0
            else:
                # the generator of phi_1 o psi_tau is psi's pushed forward by
                # phi_1: U o phi_1^{-1} + <H, lift(phi_1^{-1})>, mean zero
                pushed = rate * (inv_end.compose_field(u)
                                 + np.tensordot(h, inv_end.disp, axes=(0, 0)))
                U[k] = pushed - pushed.mean()
        return stack, U, H

    def _counting_compose(self, monkeypatch):
        calls = []
        real = GridMap.compose

        def counting(self, *args, **kwargs):
            calls.append(1)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(GridMap, "compose", counting)
        return calls

    def test_identity_loop_composes_once(self, torus, ham_shear, monkeypatch):
        triv = identity_isotopy(torus, 50)
        ref, _, _ = self._per_slice(True, triv, ham_shear, 1600)
        calls = self._counting_compose(monkeypatch)
        out = concat_left(triv, ham_shear, steps=1600)
        assert len(calls) <= 2
        assert np.array_equal(out.disp, ref)

    def test_flat_cutoff_ends_are_not_recomposed(
        self, torus, ham_shear, trans_loop, monkeypatch
    ):
        ref, _, _ = self._per_slice(False, trans_loop, ham_shear, 400)
        calls = self._counting_compose(monkeypatch)
        out = concat_right(ham_shear, trans_loop, steps=400)
        # tau is flat (0 or 1) on 7 slices at each end of the second half
        assert len(calls) == 201 - 12
        assert np.array_equal(out.disp, ref)

    @pytest.mark.parametrize("glue_left", [True, False])
    def test_generator_trace_matches_per_slice(self, shear, ham_shear, glue_left):
        # the second piece has both a function and a harmonic part, and the
        # first piece's time-one map is not a translation
        stack, U, H = self._per_slice(glue_left, shear, ham_shear, 200)
        if glue_left:
            out = concat_left(shear, ham_shear, steps=200, with_generator=True)
        else:
            out = concat_right(ham_shear, shear, steps=200, with_generator=True)
        assert np.abs(U[150]).max() > 0.0 and np.abs(H[150]).max() > 0.0
        assert np.array_equal(out.disp, stack)
        assert np.array_equal(out.gen.U, U)
        assert np.array_equal(out.gen.H, H)

    def test_each_piece_generator_is_extracted_once(
        self, shear, ham_shear, monkeypatch
    ):
        calls = []

        def counting(iso, *args, **kwargs):
            calls.append(iso)
            return generator_of(iso, *args, **kwargs)

        # a stored piece's generator() extracts it
        monkeypatch.setattr(flows, "generator_of", counting)
        for out in (concat_right(ham_shear, shear, steps=100, with_generator=True),
                    concat_left(shear, ham_shear, steps=100, with_generator=True)):
            assert out.gen is not None
        # ham_shear runs first in both, and each piece is read once per concatenation
        assert [id(iso) for iso in calls] == [id(ham_shear), id(shear)] * 2


def _same_bits(a, b):
    """Equal shapes and bytes: signed zeros told apart."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestConcatTrace:
    """The replayed concatenation gives the stored one's slices, bit for bit."""

    @pytest.fixture(scope="class")
    def pieces16(self):
        from torusflux import FlatTorus
        from torusflux.families import hamiltonian_shear, standard_shear

        torus16 = FlatTorus(2, 16, symplectic=True)
        return {
            "shear": standard_shear(torus16, 100),
            "ham_shear": hamiltonian_shear(torus16, 100),
            "identity": identity_isotopy(torus16, 50),
            "translation": translation_isotopy(torus16, 100, (0.25, 0.1)),
        }

    @pytest.mark.parametrize("left, pieces, steps", [
        # an identity second piece: tau repeats its slices throughout
        (True, ("ham_shear", "identity"), 201),
        (True, ("translation", "shear"), 200),
        (False, ("ham_shear", "translation"), 200),
        (False, ("identity", "ham_shear"), 151),
        (False, ("shear", "ham_shear"), 120),
    ])
    def test_trace_route_equals_stacked_route(self, pieces16, left, pieces, steps):
        first, second = (pieces16[name] for name in pieces)
        trace = concat_trace(first, second, steps, left=left)
        if left:
            stacked = concat_left(second, first, steps, with_generator=True)
        else:
            stacked = concat_right(first, second, steps, with_generator=True)
        assert trace.steps == stacked.steps == steps + steps % 2
        self._assert_replays(trace, stacked)

    @staticmethod
    def _assert_replays(trace, stacked):
        """The replay's slices, generator, time-one map and lengths are the stored ones'."""
        from torusflux.hofer import inverse_lengths

        assert _same_bits(trace.times, stacked.times)
        replayed = list(trace.slices())
        assert len(replayed) == stacked.steps + 1
        for k, disp in enumerate(replayed):
            assert _same_bits(disp, stacked.disp[k]), k
        generator = list(trace.generator())
        assert len(generator) == stacked.steps + 1
        for k, (u, h) in enumerate(generator):
            assert _same_bits(u, stacked.gen.U[k]), k
            assert _same_bits(h, stacked.gen.H[k]), k
        assert _same_bits(trace.time_one().disp, stacked.time_one().disp)
        assert trace.time_one().disp.flags.c_contiguous
        for read in (lengths, inverse_lengths):
            ours, theirs = read(trace), read(stacked)
            for name in ("times", "osc_trace", "harmonic_trace"):
                assert _same_bits(getattr(ours, name), getattr(theirs, name)), name
            assert (ours.l1_length, ours.linf_length, ours.hofer_l1) == (
                theirs.l1_length, theirs.linf_length, theirs.hofer_l1)

    @pytest.fixture(scope="class")
    def nested16(self):
        """The norm comparison's paths at N = 16, K = 50: (ham, loop, fluxed replay)."""
        from torusflux import FlatTorus
        from torusflux.families import hamiltonian_shear, translation_loop

        torus16 = FlatTorus(2, 16, symplectic=True)
        ham, loop = hamiltonian_shear(torus16, 50), translation_loop(torus16, 50)
        return ham, loop, concat_trace(ham, loop, None, left=False)

    def test_a_replay_of_a_replay_equals_the_stored_path(self, nested16):
        ham, loop, fluxed = nested16
        back = inverse(loop)
        trace = concat_trace(fluxed, back, 600, left=True)
        stacked = concat_left(back, concat_right(ham, loop, with_generator=True), 600,
                              with_generator=True)
        self._assert_replays(trace, stacked)

    def test_norm_comparison_reads_a_replayed_fluxed_path(self, nested16):
        from torusflux.hofer import norm_comparison_check

        ham, loop, fluxed = nested16
        reports = [
            norm_comparison_check(ham.time_one(), [("direct", ham)],
                                  fluxed_path=path, matching_loop=loop)
            for path in (fluxed, concat_right(ham, loop, with_generator=True))
        ]
        assert reports[0] == reports[1]
        assert reports[0].margin_72_5 is not None

    def test_the_time_window_reads_forward_only(self, nested16):
        from torusflux.flows import TimeWindow

        _, _, fluxed = nested16
        stored = concat_right(*nested16[:2], with_generator=True)
        window = TimeWindow(fluxed.times, fluxed.slices())
        for t in (-0.5, 0.0, 0.2, 0.2, 0.55, 0.9, 1.0, 1.5):
            assert _same_bits(window.disp_at(t, fluxed.last), stored.disp_at(t)), t
            assert len(window._held) <= 4
        with pytest.raises(ValueError, match="dropped"):
            window.at(0.1)

    def test_a_trace_holds_no_stack(self, pieces16):
        # pieces, time grid and one glued time-one map: no (K+1)-slice array
        trace = concat_trace(pieces16["ham_shear"], pieces16["translation"], 1600,
                             left=False)
        held = [value for value in vars(trace).values() if isinstance(value, np.ndarray)]
        assert [a.shape for a in held] == [(1601,)]
        assert trace.time_one().disp.shape == (2, 16, 16)

    def test_generator_check_still_applies(self):
        from torusflux import FlatTorus

        plain = FlatTorus(2, 16, symplectic=False)
        triv = identity_isotopy(plain, 50)
        with pytest.raises(ValueError, match="symplectic"):
            concat_trace(triv, triv, 100, left=True)
