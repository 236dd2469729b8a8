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
    energy_invariance_check,
    energy_surrogate,
    fgeo_deformation,
    hodge_split_isotopy,
    inverse_lengths,
    iteration_growth_check,
    lengths,
    mcduff_deformation,
    norm_comparison_check,
    vector_field_b_norm,
)
from torusflux.paths import concat_left, concat_right


def _same_traces(a, b):
    return all(
        np.array_equal(getattr(a, name), getattr(b, name))
        for name in ("times", "osc_trace", "harmonic_trace")
    )


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

    def test_zero_mean_wiggle(self, torus, ham_shear):
        def coeffs(t):
            return np.array([0.3 * np.cos(2 * np.pi * t), 0.0])

        harm = harmonic_isotopy(torus, coeffs, 100)
        comp = compose_pointwise(harm, ham_shear)
        out, report = fgeo_deformation(comp)
        assert report.harmonic_residual < 1e-6
        assert report.endpoint_gap < 1e-6
        assert flux_class(out, check=False).norm() < 1e-9

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
        k0 = flux_class(half, check=False).norm()
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

    def test_invariance(self, torus, ham_shear):
        resid = energy_invariance_check(
            ham_shear.time_one(),
            [("direct", ham_shear)],
            [("trivial", identity_isotopy(torus, 50))],
        )
        assert resid < 1e-9


class TestInverseLengths:
    def test_provenance_route(self, ham_shear):
        assert ham_shear.gen is None and ham_shear.provenance is not None
        assert _same_traces(inverse_lengths(ham_shear), lengths(inverse(ham_shear)))

    def test_generator_route(self, ham_shear, trans_loop):
        path = concat_left(trans_loop, ham_shear, with_generator=True)
        assert path.gen is not None
        assert _same_traces(inverse_lengths(path), lengths(inverse(path)))

    def test_data_route(self, ham_shear):
        data = Isotopy(ham_shear.torus, ham_shear.times, ham_shear.disp)
        assert _same_traces(inverse_lengths(data), lengths(inverse(data)))

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
            eps=1e-3,
        )
        assert report.lhs_zero_flux <= 1e-3
        assert report.all_pass

    def test_hamiltonian_shear_margins(self, torus, ham_shear, trans_loop):
        fluxed = concat_right(ham_shear, trans_loop, with_generator=True)
        report = norm_comparison_check(
            ham_shear.time_one(), [("direct", ham_shear)], eps=1e-3,
            fluxed_path=fluxed, matching_loop=trans_loop,
        )
        assert report.margin_six > 0
        assert report.margin_72_5 is not None and report.margin_72_5 > 0
        assert report.margin_144_5 > 0

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
            ham_shear.time_one(), [("direct", ham_shear)], eps=1e-3,
            fluxed_path=fluxed, matching_loop=trans_loop,
        )
        # only the matching loop, whose displacement the corrected path reads
        assert len(inverted) == 1 and inverted[0] is trans_loop

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
    def test_split_bounds_along_sequence(self, torus):
        # paths with l_B -> 0: the split factors obey 6/N and 1/N surrogate
        # bounds simultaneously
        for n in (2, 4, 8):
            amp = 1.0 / (n * np.pi)  # l_B of the scaled shear is 1/n

            def coeffs(t, n=n):
                return np.array([0.05 / n * np.cos(2 * np.pi * t), 0.0])

            scaled = hamiltonian_shear(torus, 100, amplitude=amp * np.pi)
            harm = harmonic_isotopy(torus, coeffs, 100)
            comp = compose_pointwise(harm, scaled)
            split = hodge_split_isotopy(comp)
            rho_norm = lengths(split.harmonic_path).hofer_l1  # zero: translations
            psi_norm = lengths(split.remainder).hofer_l1
            lb_inf = lengths(comp).linf_length
            assert rho_norm / (1 + rho_norm) <= 6.0 * lb_inf + 1e-9
            assert psi_norm <= lb_inf + 0.2 / n

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
