import numpy as np
import pytest

from torusflux import (
    GeneratorPair,
    InversionError,
    Isotopy,
    c0_distance,
    compose_pointwise,
    harmonic_isotopy,
    identity_isotopy,
    inverse,
)
from torusflux.families import (
    hamiltonian_shear,
    translation_isotopy,
    translation_loop,
)
from torusflux.flux import flux_class
from torusflux.hofer import (
    cumulative_simpson,
    energy_invariance_check,
    energy_surrogate,
    fgeo_deformation,
    hodge_split_isotopy,
    inverse_lengths,
    iteration_growth_check,
    lengths,
    mcduff_deformation,
    norm_comparison_check,
    simpson,
    two_way_lengths,
    vector_field_b_norm,
)
from torusflux.paths import concat_left, concat_right, concat_trace


def _same_traces(a, b):
    return all(
        np.array_equal(getattr(a, name), getattr(b, name))
        for name in ("times", "osc_trace", "harmonic_trace")
    )


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestSimpsonRules:
    """The owned rules against scipy 1.17's, bit for bit (scipy is the oracle)."""

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 51, 52, 201, 202, 1600, 1601])
    def test_simpson_equals_scipy(self, n, rng):
        from scipy.integrate import simpson as scipy_simpson

        uniform = np.linspace(0.0, 1.0, n)
        irregular = np.cumsum(rng.random(n) + 0.01)
        for x in (uniform, irregular):
            for y in (rng.standard_normal(n), np.abs(np.sin(7.0 * x))):
                assert _same_bits(simpson(y, x), scipy_simpson(y, x=x))

    @pytest.mark.parametrize("shape", [(65,), (65, 2), (4, 65), (65, 65, 2), (3, 5, 7)])
    def test_cumulative_simpson_equals_scipy(self, shape, rng):
        from scipy.integrate import cumulative_simpson as scipy_cumulative

        y = rng.standard_normal(shape)
        for axis in range(len(shape)):
            if shape[axis] < 3:
                continue
            x = np.linspace(0.0, 1.0, shape[axis])
            ours = cumulative_simpson(y, x, axis, 0.0)
            ref = scipy_cumulative(y, x=x, axis=axis, initial=0.0)
            assert _same_bits(ours, ref)
            # same memory layout, so later reductions see the same order
            assert ours.strides == ref.strides

    def test_both_rules_need_three_points(self):
        with pytest.raises(ValueError):
            simpson(np.ones(2), np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            cumulative_simpson(np.ones(2), np.array([0.0, 1.0]), 0, 0.0)


class TestLengths:
    def test_translation_length(self, torus):
        iso = translation_isotopy(torus, 100, (0.4, 0.0))
        rep = lengths(iso)
        assert abs(rep.l1_length - 0.4) < 1e-9
        assert abs(rep.linf_length - 0.4) < 1e-9
        assert rep.hofer_l1 == 0.0

    def test_hamiltonian_shear_length(self, torus, ham_shear):
        rep = lengths(ham_shear)
        assert abs(rep.l1_length - 1.0 / np.pi) < 1e-9
        assert abs(rep.hofer_l1 - rep.l1_length) < 1e-12  # no harmonic part

    def test_identity_zero(self, torus):
        rep = lengths(identity_isotopy(torus))
        assert rep.l1_length == 0.0
        assert rep.linf_length == 0.0

    def test_order_relations(self, torus, ham_shear):
        rep = lengths(ham_shear)
        assert rep.hofer_l1 <= rep.l1_length + 1e-15
        assert rep.l1_length <= rep.linf_length + 1e-15

    def test_validation_gate(self, torus, ham_shear):
        lengths(ham_shear, validate_tol=1e-6)  # passes
        with pytest.raises(ValueError):
            lengths(ham_shear, validate_tol=1e-16)


class TestFieldNorm:
    def test_constant_field(self, torus):
        samples = np.zeros((2,) + torus.shape)
        samples[0] = 0.7
        assert abs(vector_field_b_norm(torus, samples) - 0.7) < 1e-12

    def test_hamiltonian_bump(self, torus):
        # oracle: norm equals the oscillation of the normalized Hamiltonian
        h = np.cos(2 * np.pi * torus.grid[1]) / (2 * np.pi)
        samples = np.zeros((2,) + torus.shape)
        samples[0] = -np.sin(2 * np.pi * torus.grid[1])
        assert abs(vector_field_b_norm(torus, samples) - (h.max() - h.min())) < 1e-10

    def test_zero_field(self, torus):
        assert vector_field_b_norm(torus, np.zeros((2,) + torus.shape)) == 0.0

    def test_nonsymplectic_rejected(self, torus):
        # x-dependent x-velocity: i(X)omega = sin(2 pi x) dy is not closed
        samples = np.zeros((2,) + torus.shape)
        samples[0] = np.sin(2 * np.pi * torus.grid[0])
        with pytest.raises(ValueError):
            vector_field_b_norm(torus, samples)


class TestHodgeSplit:
    def test_harmonic_path_splits_off(self, torus):
        def coeffs(t):
            return np.array([0.3 * np.cos(2 * np.pi * t), 0.0])

        harm = harmonic_isotopy(torus, coeffs, 100)
        split = hodge_split_isotopy(harm)
        assert c0_distance(split.remainder) < 1e-12
        assert c0_distance(split.harmonic_path, harm) < 1e-12

    def test_hamiltonian_path_trivial_rho(self, torus, ham_shear):
        split = hodge_split_isotopy(ham_shear)
        assert c0_distance(split.harmonic_path) < 1e-12
        assert c0_distance(split.remainder, ham_shear) < 1e-12

    def test_composite_recovers_factors(self, torus, ham_shear):
        def coeffs(t):
            return np.array([0.3 * np.cos(2 * np.pi * t), 0.0])

        harm = harmonic_isotopy(torus, coeffs, 100)
        comp = compose_pointwise(harm, ham_shear)
        split = hodge_split_isotopy(comp)
        assert split.remainder_flux < 1e-9
        assert c0_distance(split.harmonic_path, harm) < 1e-7
        assert split.harmonic_consistency < 1e-6
        # the replayed remainder refers to its path, never to itself, so
        # it is freed as soon as it is dropped
        import gc
        import weakref

        gc.disable()
        try:
            alive = weakref.ref(hodge_split_isotopy(comp).remainder)
            assert alive() is None
        finally:
            gc.enable()

    def test_remainder_slices_are_the_stored_difference(self, torus, ham_shear):
        # each replayed slice is bitwise the row of the stored difference
        # stack, in its layout, with +0.0 at slice 0
        def coeffs(t):
            return np.array([0.3 * np.cos(2 * np.pi * t), 0.0])

        harm = harmonic_isotopy(torus, coeffs, 100)
        for path in (ham_shear, compose_pointwise(harm, ham_shear)):
            split = hodge_split_isotopy(path)
            stored = path.disp - split.harmonic_path.disp
            stored[0] = 0.0
            for k, disp in enumerate(split.remainder.slices()):
                assert disp.strides == stored[k].strides
                assert disp.tobytes() == stored[k].tobytes(), k
            assert split.remainder.last.tobytes() == stored[-1].tobytes()
            for k in (0, 1, 50, 99, 100):
                ref = Isotopy(torus, path.times, stored).velocity_samples(k)
                assert split.remainder.velocity_samples(k).tobytes() == ref.tobytes()

    def test_a_folded_path_raises_naming_the_slice(self, torus):
        # the data route inverts no slice, so the guard is what tells
        fold = np.zeros((2,) + torus.shape)
        fold[0] = 0.3 * np.sin(2 * np.pi * torus.grid[0])
        weights = np.linspace(0.0, 1.0, 61)
        folded = Isotopy(torus, np.linspace(0.0, 1.0, 61),
                         weights[:, None, None, None] * fold)
        with pytest.raises(InversionError, match="time slice 32: map folds over"):
            hodge_split_isotopy(folded)


class TestDeformation:
    def oracle_sup_v(self, c: float) -> float:
        # dense-grid maximization of |s cos(2 pi s t) - s^2 cos(2 pi t)|
        s = np.linspace(0, 1, 1025)[:, None]
        t = np.linspace(0, 1, 1025)[None, :]
        return float(c * np.abs(s * np.cos(2 * np.pi * s * t)
                                - s**2 * np.cos(2 * np.pi * t)).max())

    @pytest.mark.parametrize("c", [0.1, 0.5, 2.0])
    def test_slope_margin(self, torus, c):
        fam = mcduff_deformation(
            torus, lambda t: np.array([c * np.cos(2 * np.pi * t), 0.0])
        )
        assert fam.sup_x_b == pytest.approx(c, abs=1e-12)
        assert abs(fam.sup_v_b - self.oracle_sup_v(c)) < 5e-3 * max(c, 1.0)
        assert fam.slope_margin() > 0.0
        lhs = fam.sup_v_b / (1 + fam.sup_v_b)
        assert lhs <= 6 * fam.sup_x_b

    def test_zero_family(self, torus):
        fam = mcduff_deformation(torus, lambda t: np.zeros(2))
        assert fam.sup_v_b == 0.0
        assert fam.slope_margin() == 0.0

    def test_refinement_stability(self, torus):
        coarse = mcduff_deformation(
            torus, lambda t: np.array([0.5 * np.cos(2 * np.pi * t), 0.0])
        )
        fine = mcduff_deformation(
            torus, lambda t: np.array([0.5 * np.cos(2 * np.pi * t), 0.0]),
            s_res=128, t_res=128,
        )
        assert abs(coarse.sup_v_b - fine.sup_v_b) < 1e-3

    def test_mean_flux_hypothesis(self, torus):
        with pytest.raises(ValueError):
            mcduff_deformation(torus, lambda t: np.array([1.0, 0.0]))

    def test_oscillation_rows(self, torus):
        fam = mcduff_deformation(
            torus, lambda t: np.array([0.5 * np.cos(2 * np.pi * t), 0.0])
        )
        for _, value, bound in fam.oscillation_bound_rows():
            assert value <= bound + 1e-12

    def test_endpoint_condition(self, torus):
        fam = mcduff_deformation(
            torus, lambda t: np.array([0.5 * np.cos(2 * np.pi * t), 0.0])
        )
        assert fam.endpoint_residual < 1e-8


class TestFgeo:
    def test_already_hamiltonian(self, torus, ham_shear):
        out, report = fgeo_deformation(ham_shear)
        assert report.harmonic_residual < 1e-6
        assert report.endpoint_gap < 1e-9
        assert c0_distance(out, ham_shear) < 1e-9

    def test_zero_mean_wiggle(self, torus, ham_shear, monkeypatch):
        from torusflux import hofer

        def coeffs(t):
            return np.array([0.3 * np.cos(2 * np.pi * t), 0.0])

        harm = harmonic_isotopy(torus, coeffs, 100)
        comp = compose_pointwise(harm, ham_shear)
        # comp has no trace and no field, so its generator takes the data
        # route (one Newton inversion per slice): the straightening reads
        # only its harmonic part, and the remainder's generator computes it
        # once, when it is first read, and keeps it for later reads
        routes = []
        real = hofer.generator_of

        def counting(iso, *args, **kwargs):
            routes.append(iso is comp)
            return real(iso, *args, **kwargs)

        monkeypatch.setattr(hofer, "generator_of", counting)
        out, report = fgeo_deformation(comp)
        assert routes.count(True) == 0
        assert report.harmonic_residual < 1e-6
        assert report.endpoint_gap < 1e-6
        assert flux_class(out).norm() < 1e-9
        assert lengths(out).hofer_l1 > 0.0
        assert routes.count(True) == 1
        assert inverse_lengths(out).hofer_l1 > 0.0
        assert routes.count(True) == 1

    def test_nonzero_flux_rejected(self, torus, shear):
        with pytest.raises(ValueError):
            fgeo_deformation(shear)


class TestIterationGrowth:
    def test_translation_loop(self, torus, trans_loop):
        report = iteration_growth_check(trans_loop, 10)
        assert report.k0 == pytest.approx(1.0, abs=1e-9)
        for row in report.rows:
            assert row.ratio == pytest.approx(1.0, abs=1e-6)
            assert row.flux_linearity_residual < 1e-6
        assert report.all_nonidentity

    def test_wiggled_loop_ratio_bound(self, torus, trans_loop):
        from torusflux.families import hamiltonian_loop

        wiggle = hamiltonian_loop(torus, trans_loop.steps)
        combined = compose_pointwise(trans_loop, wiggle)
        report = iteration_growth_check(combined, 5)
        assert report.min_ratio_margin > -1e-6

    def test_zero_flux_rejected(self, torus, ham_shear):
        with pytest.raises(ValueError):
            iteration_growth_check(ham_shear)

    def test_half_translation_sup_variant(self, torus):
        half = translation_isotopy(torus, 100, (0.5, 0.0))
        k0 = flux_class(half).norm()
        assert k0 == pytest.approx(0.5, abs=1e-9)
        assert k0 <= lengths(half).linf_length + 1e-9


class TestSurrogates:
    def test_identity_energy(self, torus):
        from torusflux.flows import GridMap

        sur = energy_surrogate(
            GridMap.identity(torus), [("trivial", identity_isotopy(torus))]
        )
        assert sur.e0 == 0.0

    def test_hamiltonian_shear_bound(self, torus, ham_shear):
        sur = energy_surrogate(ham_shear.time_one(), [("direct", ham_shear)])
        assert sur.e0 <= 1.0 / np.pi + 1e-9

    def test_empty_family_rejected(self, torus, ham_shear, shear):
        with pytest.raises(ValueError):
            energy_surrogate(shear.time_one(), [("wrong", ham_shear)])

    def test_monotone_in_family(self, torus, ham_shear):
        small = energy_surrogate(ham_shear.time_one(), [("direct", ham_shear)])
        slower = concat_right(ham_shear, identity_isotopy(torus, 50))
        bigger = energy_surrogate(
            ham_shear.time_one(), [("direct", ham_shear), ("padded", slower)]
        )
        assert bigger.e0 <= small.e0 + 1e-12

    def test_trace_candidates_keep_the_match_rule(self, torus, ham_shear, shear):
        triv = identity_isotopy(torus, 50)
        reaching = concat_trace(ham_shear, triv, 400, left=True)
        missing = concat_trace(shear, triv, 400, left=True)
        sur = energy_surrogate(
            ham_shear.time_one(), [("missing", missing), ("reaching", reaching)]
        )
        assert sur.labels == ("reaching",)
        assert sur.e0 == lengths(reaching).l1_length
        with pytest.raises(ValueError, match="no candidate"):
            energy_surrogate(ham_shear.time_one(), [("missing", missing)])

    def test_invariance(self, torus, ham_shear):
        resid = energy_invariance_check(
            ham_shear.time_one(),
            [("direct", ham_shear)],
            [("trivial", identity_isotopy(torus, 50))],
        )
        assert resid < 1e-9


class TestInverseLengths:
    def test_two_way_lengths_read_both_reports(self, ham_shear, trans_loop):
        replay = concat_trace(ham_shear, trans_loop, None, left=False)
        for path in (ham_shear, replay):
            forward, backward = two_way_lengths(path)
            assert _same_traces(forward, lengths(path))
            assert _same_traces(backward, inverse_lengths(path))

    def test_provenance_route(self, ham_shear):
        assert ham_shear.gen is None and ham_shear.provenance is not None
        assert _same_traces(inverse_lengths(ham_shear), lengths(inverse(ham_shear)))

    def test_generator_route(self, ham_shear, trans_loop):
        path = concat_left(trans_loop, ham_shear, with_generator=True)
        assert path.gen is not None
        assert _same_traces(inverse_lengths(path), lengths(inverse(path)))

    def test_data_route(self, ham_shear, monkeypatch):
        # without trace or provenance the forward generator comes from the
        # data, which inverts each slice once and nothing else
        from torusflux.flows import GridMap

        data = Isotopy(ham_shear.torus, ham_shear.times, ham_shear.disp)
        calls = []
        solve = GridMap.inverse

        def counting(self, *args, **kwargs):
            calls.append(1)
            return solve(self, *args, **kwargs)

        monkeypatch.setattr(GridMap, "inverse", counting)
        rep = inverse_lengths(data)
        assert len(calls) <= ham_shear.steps + 1
        exact = inverse_lengths(ham_shear)
        assert abs(rep.l1_length - exact.l1_length) < 1e-12
        assert abs(rep.linf_length - exact.linf_length) < 1e-12

    def test_symmetrized_norm_of_a_shear(self, ham_shear):
        # the inverse of a Hamiltonian shear is the shear of the opposite
        # amplitude, whose length is the same
        rep = lengths(ham_shear)
        inv = inverse_lengths(ham_shear)
        assert abs(inv.l1_length - rep.l1_length) < 1e-9


class TestFoldOverControls:
    """Paths through a folded map: det D(phi) = 1 + 0.6 pi cos(2 pi x) has
    minimum -0.88.  Newton still finds a preimage of every grid point, so
    only the fold-over guard can tell."""

    @pytest.fixture(params=["jump", "ramp"])
    def folded(self, request, torus):
        fold = np.zeros((2,) + torus.shape)
        fold[0] = 0.3 * np.sin(2 * np.pi * torus.grid[0])
        steps = 60
        if request.param == "jump":  # every slice after the first is the fold
            weights = np.r_[0.0, np.ones(steps)]
        else:  # the fold ramped in; slices fold from weight 0.53 on
            weights = np.linspace(0.0, 1.0, steps + 1)
        return Isotopy(torus, np.linspace(0.0, 1.0, steps + 1),
                       weights[:, None, None, None] * fold)

    def test_inverse_raises(self, folded):
        with pytest.raises(InversionError, match="folds over"):
            inverse(folded)

    def test_inverse_lengths_raises_on_the_data_route(self, folded):
        with pytest.raises(InversionError, match="folds over"):
            inverse_lengths(folded)

    def test_inverse_lengths_raises_with_a_generator(self, folded):
        # any attached generator selects the route that inverts nothing
        k1 = folded.steps + 1
        gen = GeneratorPair(folded.times, np.zeros((k1,) + folded.torus.shape),
                            np.zeros((k1, 2)))
        with_gen = Isotopy(folded.torus, folded.times, folded.disp, gen=gen)
        with pytest.raises(InversionError, match="folds over"):
            inverse_lengths(with_gen)


class TestNormComparison:
    def test_identity_trivial(self, torus):
        from torusflux.flows import GridMap

        report = norm_comparison_check(
            GridMap.identity(torus), [("trivial", identity_isotopy(torus))],
        )
        assert report.hofer_surrogate <= 1e-3
        assert report.all_pass

    def test_hamiltonian_shear_margins(self, torus, ham_shear, trans_loop):
        fluxed = concat_right(ham_shear, trans_loop, with_generator=True)
        report = norm_comparison_check(
            ham_shear.time_one(), [("direct", ham_shear)],
            fluxed_path=fluxed, matching_loop=trans_loop,
        )
        assert report.margin_six > 0
        assert report.margin_72_5 is not None and report.margin_72_5 > 0
        assert report.margin_144_5 > 0
        # |rho|_H = 0: the left-hand side is the Hofer surrogate, bit for bit
        assert report.hofer_surrogate == 0.5 * (
            lengths(ham_shear).hofer_l1 + inverse_lengths(ham_shear).hofer_l1
        )

    def test_scenario_splits_nothing(self, monkeypatch):
        import torusflux.hofer as hofer_mod
        from torusflux.config import ExperimentConfig
        from torusflux.scenarios import run_scenario

        calls = []

        def counting(iso):
            calls.append(iso)
            return hodge_split_isotopy(iso)

        monkeypatch.setattr(hofer_mod, "hodge_split_isotopy", counting)
        config = ExperimentConfig(resolution=16, steps=50).validate()
        rows, _ = run_scenario("norm-comparison", config)
        assert all(row.passed for row in rows)
        assert calls == []

    def test_candidates_are_never_inverted(self, ham_shear, trans_loop, monkeypatch):
        import torusflux.hofer as hofer_mod
        import torusflux.paths as paths_mod

        inverted = []

        def recording(iso):
            inverted.append(iso)
            return inverse(iso)

        monkeypatch.setattr(hofer_mod, "inverse", recording)
        monkeypatch.setattr(paths_mod, "inverse", recording)
        fluxed = concat_right(ham_shear, trans_loop, with_generator=True)
        norm_comparison_check(
            ham_shear.time_one(), [("direct", ham_shear)],
            fluxed_path=fluxed, matching_loop=trans_loop,
        )
        # only the matching loop, whose displacement the corrected path reads
        assert len(inverted) == 1 and inverted[0] is trans_loop

    def test_replayed_paths_are_read_once(self, ham_shear, trans_loop, monkeypatch):
        # the corrected path replays the fluxed one, whose right half
        # inverts the shear's time-one map: one pass, one inversion
        from torusflux.flows import GridMap

        calls = []
        solve = GridMap.inverse

        def counting(self, *args, **kwargs):
            calls.append(1)
            return solve(self, *args, **kwargs)

        fluxed = concat_trace(ham_shear, trans_loop, None, left=False)
        monkeypatch.setattr(GridMap, "inverse", counting)
        norm_comparison_check(
            ham_shear.time_one(), [("direct", ham_shear)],
            fluxed_path=fluxed, matching_loop=trans_loop,
        )
        assert len(calls) == 1

    def test_nonzero_flux_candidate_rejected(self, torus, shear):
        with pytest.raises(ValueError):
            norm_comparison_check(shear.time_one(), [("fluxed", shear)])

    def test_mismatched_loop_rejected(self, torus, ham_shear):
        half = translation_isotopy(torus, 100, (0.5, 0.0))
        fluxed = concat_right(ham_shear, half, with_generator=True)
        loop = translation_loop(torus, 100, (1, 0))
        with pytest.raises(ValueError):
            norm_comparison_check(
                fluxed.time_one(), [("direct", hamiltonian_shear(torus, 100))],
                fluxed_path=fluxed, matching_loop=loop,
            )


class TestShrinkingSequences:
    def test_split_bounds_along_sequence(self, torus, ham_shear, trans_loop):
        # paths with l_B -> 0: the Hamiltonian factor obeys a 1/N surrogate
        # bound; the harmonic factor is a translation path, whose Hofer term
        # is 0.0 by construction
        for n in (2, 4, 8):
            amp = 1.0 / (n * np.pi)  # l_B of the scaled shear is 1/n

            def coeffs(t, n=n):
                return np.array([0.05 / n * np.cos(2 * np.pi * t), 0.0])

            scaled = hamiltonian_shear(torus, 100, amplitude=amp * np.pi)
            harm = harmonic_isotopy(torus, coeffs, 100)
            comp = compose_pointwise(harm, scaled)
            split = hodge_split_isotopy(comp)
            assert lengths(split.harmonic_path).hofer_l1 == 0.0
            psi_norm = lengths(split.remainder).hofer_l1
            lb_inf = lengths(comp).linf_length
            assert psi_norm <= lb_inf + 0.2 / n
        # the two paths the norm comparison's branches would split
        fluxed = concat_right(ham_shear, trans_loop, with_generator=True)
        corrected = concat_left(inverse(trans_loop), fluxed, steps=600,
                                with_generator=True)
        for path in (ham_shear, corrected):
            rho = hodge_split_isotopy(path).harmonic_path
            assert lengths(rho).hofer_l1 == 0.0

    def test_norm_collapse(self, torus):
        # Hofer-like surrogate going to zero drags the Hofer surrogate along
        prev = None
        for n in (1, 2, 4):
            iso = hamiltonian_shear(torus, 100, amplitude=1.0 / n)
            sur = energy_surrogate(iso.time_one(), [("direct", iso)])
            # symmetrized Hofer-like norm; zero-flux path: it is the Hofer one
            hofer = 0.5 * (sur.e0 + inverse_lengths(iso).l1_length)
            assert hofer <= 1.0 / (np.pi * n) + 1e-9
            if prev is not None:
                assert hofer < prev
            prev = hofer


def _owner(a):
    """The array that owns a view's memory."""
    while a.base is not None:
        a = a.base
    return a


class TestMemory:
    """No dense array is built that no row reads (N = 16, K = 50)."""

    @pytest.fixture(scope="class")
    def torus16(self):
        from torusflux import FlatTorus

        return FlatTorus(2, 16, symplectic=True)

    def test_energy_invariance_holds_no_concatenation_stack(self, torus16):
        import tracemalloc

        ham = hamiltonian_shear(torus16, 50)
        triv = identity_isotopy(torus16, 50)
        stack_bytes = 1601 * torus16.dim * 16**2 * 8
        tracemalloc.start()
        try:
            resid = energy_invariance_check(
                ham.time_one(), [("direct", ham)], [("trivial", triv)]
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert resid < 1e-9
        assert peak < stack_bytes, peak / stack_bytes

    def test_norm_comparison_holds_no_corrected_stack(self, torus16):
        # the loop-corrected path (601 slices) is replayed, and the inverse
        # of the translation loop is a broadcast
        import tracemalloc

        ham = hamiltonian_shear(torus16, 50)
        loop = translation_loop(torus16, 50)
        fluxed = concat_right(ham, loop, with_generator=True)
        stack_bytes = 601 * torus16.dim * 16**2 * 8
        tracemalloc.start()
        try:
            report = norm_comparison_check(
                ham.time_one(), [("direct", ham)],
                fluxed_path=fluxed, matching_loop=loop,
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.all_pass and report.margin_72_5 is not None
        assert peak < stack_bytes, peak / stack_bytes

    def test_harmonic_path_is_a_broadcast(self, torus16):
        from torusflux.flows import GridMap, constant_field, flow_slices

        def coeffs(t):
            return np.array([0.3 * np.cos(2 * np.pi * t), 0.1])

        harm = harmonic_isotopy(torus16, coeffs, 50)
        comp = compose_pointwise(harm, hamiltonian_shear(torus16, 50))
        rho = hodge_split_isotopy(comp).harmonic_path
        paths = (rho, harm, translation_loop(torus16, 50),
                 identity_isotopy(torus16, 50))
        for iso in paths:
            assert _owner(iso.disp).nbytes <= 51 * torus16.dim * 8
            assert not iso.disp.flags.writeable
            assert not np.signbit(iso.disp[0]).any()
            # a slice taken into a map is dense and C-ordered
            assert GridMap(torus16, iso.disp[7]).disp.flags.c_contiguous
        for iso in (rho, harm):
            assert _owner(iso.gen.U).nbytes <= 8
        keep = np.array([0, 10, 50])
        slices = list(flow_slices(constant_field(torus16, (0.3, 0.1)), 50, keep))
        assert len(slices) == len(keep)
        for disp in slices:
            assert _owner(disp).nbytes <= torus16.dim * 8
            assert not disp.flags.writeable

    def test_composing_a_broadcast_translation_keeps_the_layout(self, torus16):
        # a ufunc's output takes the layout of its non-broadcast operand, so
        # a compose with a broadcast inner map would sum its grid mean in
        # another order than the same compose with a stored slice
        from torusflux.flows import GridMap

        def coeffs(t):
            return np.array([0.3 * np.cos(2 * np.pi * t), 0.1])

        phi = hamiltonian_shear(torus16, 50).time_one()
        comp = compose_pointwise(
            harmonic_isotopy(torus16, coeffs, 50), hamiltonian_shear(torus16, 50)
        )
        for tr in (translation_isotopy(torus16, 50, (0.37, 0.11)),
                   harmonic_isotopy(torus16, coeffs, 50),
                   hodge_split_isotopy(comp).harmonic_path):
            dense = GridMap(torus16, np.array(tr.disp[-1]))
            a = phi.compose(tr.time_one()).disp.reshape(2, -1).mean(axis=1)
            b = phi.compose(dense).disp.reshape(2, -1).mean(axis=1)
            assert np.array_equal(a, b), a - b
