import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusflux import c0_distance, generator_of
from torusflux.families import (
    shear_profile,
    translation_isotopy,
)
from torusflux.flux import flux_class, orbit_of
from torusflux.hofer import lengths
from torusflux.paths import (
    concat_left,
    concat_right,
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
        base = flux_class(shear, check=False).pairings
        got = flux_class(glued, check=False).pairings
        assert np.abs(got - base).max() < 1e-9

    def test_right_orbit_gluing(self, torus, shear):
        # oracle: orbit of p is the shear orbit glued with the image under
        # the shear time-one map of the translation orbit
        tr = translation_isotopy(torus, 100, (0.25, 0.1))
        glued = concat_right(shear, tr)
        p = np.array([0.2, 0.4])
        got = orbit_of(glued, p, reintegrate=False)
        g = shear_profile(1.0)
        mid = got.path[len(got.times) // 2]
        assert np.abs(mid - (p + np.array([g(0.4), 0.0]))).max() < 1e-6
        analytic = shear.time_one().apply((p + np.array([0.25, 0.1]))[None])[0]
        assert np.abs(got.path[-1] - analytic).max() < 1e-6

    def test_left_orbit_gluing(self, torus, shear):
        tr = translation_isotopy(torus, 100, (0.25, 0.1))
        glued = concat_left(tr, shear)
        p = np.array([0.2, 0.4])
        got = orbit_of(glued, p, reintegrate=False)
        g = shear_profile(1.0)
        shear_end = p + np.array([g(0.4), 0.0])
        mid = got.path[len(got.times) // 2]
        assert np.abs(mid - shear_end).max() < 1e-6
        assert np.abs(got.path[-1] - (shear_end + np.array([0.25, 0.1]))).max() < 1e-6

    def test_flux_additive_both_orders(self, torus, shear):
        tr = translation_isotopy(torus, 100, (0.25, 0.1))
        total = flux_class(shear, check=False).pairings + flux_class(
            tr, check=False
        ).pairings
        for glued in (concat_right(shear, tr), concat_left(tr, shear)):
            got = flux_class(glued, check=False).pairings
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
        base = flux_class(shear, check=False).pairings
        assert np.abs(flux_class(it, check=False).pairings - base).max() < 1e-9

    def test_triple_loop_winding(self, torus, trans_loop):
        it = iterate(trans_loop, 3)
        orbit = orbit_of(it, np.array([0.3, 0.3]), reintegrate=False)
        assert tuple(orbit.winding()) == (3, 0)

    def test_negative_power_endpoint(self, torus, shear):
        it = iterate(shear, -1)
        inv_end = shear.time_one().inverse()
        assert np.abs(it.disp[-1] - inv_end.disp).max() < 1e-8

    def test_zero_power(self, shear):
        with pytest.raises(ValueError):
            iterate(shear, 0)

    def test_flux_linearity(self, torus, shear):
        base = flux_class(shear, check=False).pairings
        it = iterate(shear, 3)
        assert np.abs(flux_class(it, check=False).pairings - 3 * base).max() < 1e-6

    def test_generator_tile_matches_data(self, torus, trans_loop):
        # the tiled generator trace reproduces the honestly measured length
        it = iterate(trans_loop, 3, with_generator=True)
        assert abs(lengths(it).l1_length - 3.0) < 1e-9
        data_gen = generator_of(it, from_data=True)
        assert np.abs(data_gen.H - it.gen.H).max() < 1e-6


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
