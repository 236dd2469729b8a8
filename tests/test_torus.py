import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusflux import (
    FlatTorus,
    OneForm,
    eval_spectral,
    harmonic_norm,
    hodge_decompose,
    integrate,
    integrate_form_along_path,
    line_integral,
    minimal_geodesic,
    poincare_pair,
    sup_norm,
    torus_displacement,
    torus_distance,
)
from torusflux import torus as torus_mod
from torusflux.torus import grad


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ValueError):
            FlatTorus(1, 16)
        with pytest.raises(ValueError):
            FlatTorus(2, 7)
        with pytest.raises(ValueError):
            FlatTorus(2, 9)
        with pytest.raises(ValueError):
            FlatTorus(3, 16, symplectic=True)

    def test_volume_quadrature(self, torus):
        assert abs(integrate(torus, np.ones(torus.shape)) - 1.0) < 1e-12

    def test_injectivity_radius(self, torus):
        assert torus.injectivity_radius == 0.5


class TestIntegrate:
    def test_odd_harmonic(self, torus):
        f = np.sin(2 * np.pi * torus.grid[0])
        assert abs(integrate(torus, f)) < 1e-12

    def test_sin_squared(self, torus):
        # closed form: integral of sin^2(2 pi x) over one period is 1/2
        f = np.sin(2 * np.pi * torus.grid[0]) ** 2
        assert abs(integrate(torus, f) - 0.5) < 1e-10

    def test_shape_mismatch(self, torus):
        with pytest.raises(ValueError):
            integrate(torus, np.ones((3, 3)))

    def test_spectral_decay(self):
        # quadrature error on smooth non-band-limited data drops much faster
        # than any fixed power of the resolution
        exact = 1.0 / np.sqrt(3.0)  # integral of 1/(2 + cos(2 pi x))

        def err(n: int) -> float:
            t = FlatTorus(2, n)
            f = 1.0 / (2.0 + np.cos(2.0 * np.pi * t.grid[0]))
            return abs(integrate(t, f) - exact)

        e16, e64 = err(16), err(64)
        assert e64 < max(e16 * (16 / 64) ** 8, 1e-15)


class TestHodge:
    def test_constant_form(self, torus):
        beta = np.zeros((2,) + torus.shape)
        beta[0], beta[1] = 3.0, 2.0
        form = hodge_decompose(torus, beta)
        assert np.allclose(form.harmonic, [3.0, 2.0], atol=1e-13)
        assert np.abs(form.potential).max() < 1e-13

    def test_exact_form_roundtrip(self, torus):
        # differentiate an explicit potential, then decompose
        potential = np.sin(2 * np.pi * torus.grid[0]) * np.sin(2 * np.pi * torus.grid[1])
        form = hodge_decompose(torus, grad(torus, potential))
        assert np.abs(form.harmonic).max() < 1e-12
        assert np.abs(form.potential - potential).max() < 1e-12
        assert form.coexact_sup == 0.0

    def test_mixed_form(self, torus):
        g_pot = np.cos(2 * np.pi * torus.grid[1])
        beta = grad(torus, g_pot)
        beta[0] += 1.0
        form = hodge_decompose(torus, beta)
        assert np.allclose(form.harmonic, [1.0, 0.0], atol=1e-13)
        assert np.abs(form.potential - (g_pot - g_pot.mean())).max() < 1e-12

    def test_nonclosed_residual_reported(self, torus):
        beta = np.zeros((2,) + torus.shape)
        beta[0] = np.sin(2 * np.pi * torus.grid[1])  # curl-carrying field
        form = hodge_decompose(torus, beta)
        assert form.coexact_sup > 0.1
        with pytest.raises(ValueError):
            line_integral(form, np.array([[0.0, 0.0], [0.2, 0.0]]))

    @settings(max_examples=20, deadline=None)
    @given(
        a=st.floats(-2, 2), b=st.floats(-2, 2),
        m=st.integers(1, 3), n=st.integers(1, 3),
        amp=st.floats(-1, 1),
    )
    def test_roundtrip_random(self, a, b, m, n, amp):
        torus = FlatTorus(2, 32)
        pot = amp * np.sin(2 * np.pi * m * torus.grid[0]) * np.cos(
            2 * np.pi * n * torus.grid[1]
        )
        form = OneForm(torus, (a, b), pot - pot.mean())
        back = hodge_decompose(torus, form.samples())
        assert np.abs(back.harmonic - form.harmonic).max() < 1e-8
        assert np.abs(back.potential - form.potential).max() < 1e-8

    def test_roundtrip_production_grid(self, torus64, rng):
        # decompose-reconstruct identity at the production resolution
        for _ in range(5):
            coeffs = rng.normal(size=2)
            pot = np.zeros(torus64.shape)
            for _ in range(3):
                m, n = rng.integers(1, 5, size=2)
                pot += rng.normal() * np.sin(
                    2 * np.pi * m * torus64.grid[0] + rng.uniform(0, 7)
                ) * np.cos(2 * np.pi * n * torus64.grid[1] + rng.uniform(0, 7))
            form = OneForm(torus64, coeffs, pot - pot.mean())
            back = hodge_decompose(torus64, form.samples())
            assert np.abs(back.samples() - form.samples()).max() < 1e-8


def _complex_k(torus, axis):
    """Angular frequencies of the full complex FFT laid along ``axis``."""
    shape = [1] * torus.dim
    shape[axis] = torus.grid_res
    k = 2.0 * np.pi * np.fft.fftfreq(torus.grid_res, d=torus.spacing)
    return k.reshape(shape)


def _complex_grad(torus, f):
    """The gradient by one complex n-D FFT and one inverse per axis."""
    fhat = np.fft.fftn(f)
    return np.stack([np.fft.ifftn(1j * _complex_k(torus, j) * fhat).real
                     for j in range(torus.dim)])


def _complex_divergence(torus, v):
    out = sum(1j * _complex_k(torus, j) * np.fft.fftn(v[j]) for j in range(torus.dim))
    return np.fft.ifftn(out).real


def _complex_poisson(torus, rhs):
    k2 = sum(_complex_k(torus, j) ** 2 for j in range(torus.dim))
    k2[(0,) * torus.dim] = 1.0
    fhat = np.fft.fftn(rhs) / (-k2)
    fhat[(0,) * torus.dim] = 0.0
    return np.fft.ifftn(fhat).real


class TestFFTCalculus:
    """Derivatives are one real transform along their own axis, and Poisson
    solves one real n-D transform; both agree with the full complex FFTs."""

    @pytest.mark.parametrize("dim, n", [(2, 16), (2, 64), (4, 8)])
    def test_matches_the_complex_transforms(self, rng, dim, n):
        t = FlatTorus(dim, n)
        f = rng.standard_normal(t.shape)
        v = rng.standard_normal((dim,) + t.shape)
        rhs = f - f.mean()
        for got, ref in ((torus_mod.grad(t, f), _complex_grad(t, f)),
                         (torus_mod.divergence(t, v), _complex_divergence(t, v)),
                         (torus_mod.solve_poisson(t, rhs), _complex_poisson(t, rhs))):
            assert got.shape == ref.shape
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("dim, n", [(2, 16), (2, 64), (4, 8)])
    def test_band_limited_derivatives_are_analytic(self, rng, dim, n):
        # f = sum_k a_k sin(2 pi m_k . x + p_k) with |m_k| < n/2 per axis
        t = FlatTorus(dim, n)
        x = t.grid.reshape(dim, -1).T
        modes = rng.integers(-(n // 2) + 1, n // 2, size=(5, dim))
        modes[0] = 0
        modes[0, -1] = n // 2 - 1  # the last axis's highest resolved mode
        amps = rng.uniform(0.5, 1.0, size=5)
        phases = rng.uniform(0.0, 2.0 * np.pi, size=5)
        phase = 2.0 * np.pi * x @ modes.T + phases
        f = (np.sin(phase) @ amps).reshape(t.shape)
        df = (2.0 * np.pi * (amps * np.cos(phase)) @ modes).T.reshape((dim,) + t.shape)
        lap = (-(2.0 * np.pi) ** 2 * np.sin(phase) @ (amps * (modes**2).sum(axis=1)))
        lap = lap.reshape(t.shape)
        scale = np.abs(df).max()
        assert np.abs(torus_mod.grad(t, f) - df).max() <= 1e-12 * scale
        assert np.abs(torus_mod.divergence(t, df) - lap).max() <= 1e-12 * np.abs(lap).max()
        assert np.abs(torus_mod.solve_poisson(t, lap) - f).max() <= 1e-12 * np.abs(f).max()

    @pytest.mark.parametrize("dim, n", [(2, 16), (2, 64), (4, 8)])
    def test_nyquist_mode_has_zero_derivative(self, dim, n):
        # cos(pi n x_j) samples (-1)^i along axis j; the real transforms drop
        # it exactly, as the real part of the complex ones does
        t = FlatTorus(dim, n)
        for j in range(dim):
            f = np.cos(np.pi * n * t.grid[j])
            assert not np.any(torus_mod.grad(t, f))
            v = np.zeros((dim,) + t.shape)
            v[j] = f
            assert not np.any(torus_mod.divergence(t, v))


class TestLineIntegral:
    def test_coordinate_loop(self, torus):
        form = OneForm.harmonic_form(torus, (1, 0))
        path = np.stack([np.linspace(0, 1, 33), np.zeros(33)], axis=1)
        assert abs(line_integral(form, path) - 1.0) < 1e-12

    def test_exact_form_over_loop(self, torus):
        pot = np.sin(2 * np.pi * torus.grid[0]) * np.cos(2 * np.pi * torus.grid[1])
        form = OneForm.exact_form(torus, pot)
        s = np.linspace(0, 1, 65)
        loop = np.stack([0.2 + np.cos(2 * np.pi * s) / 4, 0.3 + np.sin(2 * np.pi * s) / 4],
                        axis=1)
        assert abs(line_integral(form, loop)) < 1e-10

    def test_shear_orbit(self, torus):
        # orbit of the standard shear at y = 1/4 has x-displacement g(1/4) = 1
        s = np.linspace(0, 1, 101)
        path = np.stack([0.1 + s * 1.0, np.full_like(s, 0.25)], axis=1)
        form = OneForm.harmonic_form(torus, (1, 0))
        assert abs(line_integral(form, path) - 1.0) < 1e-12

    def test_too_short(self, torus):
        form = OneForm.harmonic_form(torus, (1, 0))
        with pytest.raises(ValueError):
            line_integral(form, np.array([[0.0, 0.0]]))

    def test_null_homotopic_loop_vanishes(self, torus):
        # closed form over a contractible sampled loop integrates to zero
        form = OneForm(
            torus, (0.8, -1.2),
            np.sin(2 * np.pi * torus.grid[0]) * np.cos(2 * np.pi * torus.grid[1]) / 3,
        )
        s = np.linspace(0, 1, 129)
        loop = np.stack(
            [0.4 + 0.3 * np.cos(2 * np.pi * s), 0.5 + 0.2 * np.sin(4 * np.pi * s)],
            axis=1,
        )
        assert abs(line_integral(form, loop)) < 1e-10

    def test_against_quadrature_oracle(self, torus):
        # independent oracle: per-segment Simpson of the sampled components
        form = OneForm(
            torus, (0.7, -0.3),
            np.sin(2 * np.pi * torus.grid[0]) * np.sin(2 * np.pi * torus.grid[1]) / 5,
        )
        path = minimal_geodesic(np.array([0.1, 0.9]), np.array([0.6, 0.4]), 257)
        direct = line_integral(form, path)
        oracle = integrate_form_along_path(torus, form.samples(), path)
        assert abs(direct - oracle) < 1e-9


class TestPairingAndNorms:
    def test_pairing_values(self):
        assert poincare_pair(np.array([1.0, 0.0]), np.array([0.5, 0.0])) == 0.5
        assert poincare_pair(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == 0.0
        assert poincare_pair(np.array([1.0, 1.0]), np.array([1.0, 0.0])) == 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            poincare_pair(np.array([1.0, 0.0]), np.array([1.0, 0.0, 0.0]))

    @settings(max_examples=50, deadline=None)
    @given(
        a=st.floats(-5, 5), b=st.floats(-5, 5), c=st.floats(-5, 5),
        d=st.floats(-5, 5), lam=st.floats(-3, 3),
    )
    def test_bilinearity(self, a, b, c, d, lam):
        u, v = np.array([a, b]), np.array([c, d])
        w = np.array([1.3, -0.4])
        left = poincare_pair(u + lam * v, w)
        assert np.isclose(left, poincare_pair(u, w) + lam * poincare_pair(v, w),
                          rtol=1e-12, atol=1e-9)

    def test_harmonic_norm_values(self):
        assert harmonic_norm([1.0, 0.0]) == 1.0
        assert harmonic_norm([2.0, -1.0]) == 3.0

    def test_sup_norm_unit_basis(self, torus):
        form = OneForm.harmonic_form(torus, (1, 0))
        assert abs(sup_norm(form) - 1.0) < 1e-14

    def test_sup_norm_diagonal(self, torus):
        # dual norm against unit-l1 tangent vectors: brute-force oracle over
        # the extreme directions of the l1 ball
        form = OneForm.harmonic_form(torus, (1, 1))
        directions = np.array([[1, 0], [-1, 0], [0, 1], [0, -1]], dtype=float)
        oracle = max(abs(form.harmonic @ d) for d in directions)
        assert abs(sup_norm(form) - oracle) < 1e-14
        assert sup_norm(form) <= harmonic_norm(form.harmonic)

    def test_norm_comparison_bulk(self, rng):
        coeffs = rng.normal(size=(1000, 2))
        sups = np.abs(coeffs).max(axis=1)
        l1s = np.abs(coeffs).sum(axis=1)
        assert np.all(sups <= l1s + 1e-15)


class TestMetric:
    def test_distance_simple(self):
        assert abs(torus_distance(np.array([0.0, 0.0]), np.array([0.1, 0.0])) - 0.1) < 1e-14

    def test_distance_wraps(self):
        d = torus_distance(np.array([0.0, 0.0]), np.array([0.75, 0.0]))
        assert abs(d - 0.25) < 1e-14

    def test_geodesic_through_wrap(self):
        path = minimal_geodesic(np.array([0.0, 0.0]), np.array([0.75, 0.0]), 9)
        length = np.linalg.norm(np.diff(path, axis=0), axis=1).sum()
        assert abs(length - 0.25) < 1e-12
        assert path[-1][0] == pytest.approx(-0.25)

    def test_cut_locus_deterministic(self):
        d1 = torus_displacement(np.array([0.0, 0.0]), np.array([0.5, 0.0]))
        d2 = torus_displacement(np.array([0.0, 0.0]), np.array([0.5, 0.0]))
        assert np.array_equal(d1, d2)
        assert d1[0] == -0.5  # fixed representative on the cut locus

    @settings(max_examples=40, deadline=None)
    @given(px=st.floats(0, 1), py=st.floats(0, 1), qx=st.floats(0, 1), qy=st.floats(0, 1))
    def test_distance_symmetric_and_bounded(self, px, py, qx, qy):
        p, q = np.array([px, py]), np.array([qx, qy])
        assert np.isclose(torus_distance(p, q), torus_distance(q, p), atol=1e-12)
        assert torus_distance(p, q) <= np.sqrt(0.5) + 1e-12


class TestSpectralEval:
    def test_matches_grid(self, torus):
        f = np.sin(2 * np.pi * torus.grid[0]) + np.cos(4 * np.pi * torus.grid[1])
        vals = eval_spectral(torus, f, torus.points[:50])
        assert np.abs(vals - f.reshape(-1)[:50]).max() < 1e-12

    def test_off_grid_exact_for_band_limited(self, torus):
        pts = np.array([[0.123, 0.456], [0.987, 0.001]])
        f = np.sin(2 * np.pi * torus.grid[0]) * np.cos(2 * np.pi * torus.grid[1])
        expected = np.sin(2 * np.pi * pts[:, 0]) * np.cos(2 * np.pi * pts[:, 1])
        assert np.abs(eval_spectral(torus, f, pts) - expected).max() < 1e-12

    # the per-axis einsum formula the stacked kernel replaced, one component
    # at a time: the oracle for the tests below
    @staticmethod
    def _einsum_oracle(torus, f, points):
        fhat = np.fft.fftn(f) / f.size
        modes = np.fft.fftfreq(torus.grid_res, d=1.0 / torus.grid_res)
        acc = fhat
        for axis in range(torus.dim):
            basis = np.exp(2j * np.pi * np.outer(points[:, axis], modes))
            spec = "pa,a...->p..." if axis == 0 else "pa,pa...->p..."
            acc = np.einsum(spec, basis, acc)
        return acc.real

    @pytest.mark.parametrize("dim, n, count", [(2, 64, 1000), (3, 10, 300)])
    def test_stacked_matches_components_and_einsum_oracle(self, rng, dim, n, count):
        torus = FlatTorus(dim, n)
        samples = rng.standard_normal((2, dim) + torus.shape)
        pts = rng.uniform(-1.5, 2.5, size=(count, dim))
        vals = eval_spectral(torus, samples, pts)
        assert vals.shape == (count, 2, dim)
        for i in range(2):
            for j in range(dim):
                single = eval_spectral(torus, samples[i, j], pts)
                assert single.shape == (count,)
                assert np.abs(vals[:, i, j] - single).max() < 1e-15
                oracle = self._einsum_oracle(torus, samples[i, j], pts)
                assert np.abs(single - oracle).max() < 1e-13

    def test_band_limited_reproduced_off_grid_on_t3(self, rng):
        torus = FlatTorus(3, 12)
        x, y, z = torus.grid

        def poly(x, y, z):
            return (np.cos(2 * np.pi * (2 * x - y)) + 0.5 * np.sin(2 * np.pi * (x + 3 * z))
                    - 0.25 * np.cos(2 * np.pi * (5 * y)) * np.sin(2 * np.pi * 4 * z))

        pts = rng.uniform(-1.0, 2.0, size=(200, 3))
        got = eval_spectral(torus, poly(x, y, z), pts)
        assert np.abs(got - poly(*pts.T)).max() < 1e-12

    def test_chunked_equals_unchunked(self, torus, rng, monkeypatch):
        samples = rng.standard_normal((2,) + torus.shape)
        pts = rng.uniform(0.0, 1.0, size=(777, 2))
        whole = eval_spectral(torus, samples, pts)
        # 2 components x 32 columns per point: chunks of 3 points
        monkeypatch.setattr(torus_mod, "SPECTRAL_BUDGET", 200)
        chunked = eval_spectral(torus, samples, pts)
        assert np.abs(chunked - whole).max() < 1e-15

    def test_production_chunks_are_bitwise_the_wide_evaluation(self, rng, monkeypatch):
        # a spectral compose at N = 64: 4096 points, 2 components; the budget
        # of 2^17 entries splits it into 1024-point chunks, 2^21 did not split
        torus = FlatTorus(2, 64)
        samples = rng.standard_normal((2,) + torus.shape)
        pts = rng.uniform(-0.5, 1.5, size=(4096, 2))
        assert torus_mod.SPECTRAL_BUDGET == 1 << 17
        chunked = eval_spectral(torus, samples, pts)
        monkeypatch.setattr(torus_mod, "SPECTRAL_BUDGET", 1 << 21)
        whole = eval_spectral(torus, samples, pts)
        assert chunked.tobytes() == whole.tobytes()

    def test_spectral_compose_peak_at_64(self):
        # the widest intermediate of a 4096-point, 2-component compose is
        # about 5 MiB in 1024-point chunks (20 MiB in one piece)
        import tracemalloc

        from torusflux.flows import GridMap

        torus = FlatTorus(2, 64, symplectic=True)
        x, y = torus.grid
        outer = GridMap(torus, np.stack([0.1 * np.sin(2 * np.pi * y), 0.05 * np.cos(2 * np.pi * x)]))
        inner = GridMap(torus, np.stack([0.02 * np.cos(2 * np.pi * y), 0.1 * np.sin(2 * np.pi * x)]))
        tracemalloc.start()
        try:
            outer.compose(inner)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, peak / 2**20

    def test_shape_errors(self, torus):
        with pytest.raises(ValueError):
            eval_spectral(torus, np.zeros((3, 8)), torus.points[:2])
        with pytest.raises(ValueError):
            eval_spectral(torus, np.zeros(torus.shape), np.zeros((2, 3)))


class TestPeriodicInterp:
    # lifts where a wrap could lose a sign bit or round up to 1.0
    EDGES = [0.0, -0.0, 5e-324, -5e-324, 1 - 2.0**-53, -(1 - 2.0**-53),
             1.0, -1.0, -2.0, 1e-18, -1e-18]

    def test_wrap_is_mod_one_bit_for_bit(self, torus, rng, monkeypatch):
        # guard: at() wraps by x - floor(x), which must equal x % 1.0 in
        # every bit, signed zeros included
        from torusflux.torus import PeriodicInterp

        lifts = np.concatenate([
            self.EDGES, rng.uniform(-3.0, 3.0, 2000),
            rng.uniform(-1e6, 1e6, 200), rng.uniform(-1e-18, 1e-18, 200),
        ])
        seen = []
        real = torus_mod.ndimage.map_coordinates

        def capture(coeffs, coords, **kwargs):
            seen.append(np.array(coords))
            return real(coeffs, coords, **kwargs)

        monkeypatch.setattr(torus_mod.ndimage, "map_coordinates", capture)
        points = np.stack([lifts, lifts[::-1]], axis=-1)
        PeriodicInterp(torus, np.zeros(torus.shape)).at(points)
        expected = np.moveaxis((points % 1.0) * torus.grid_res, -1, 0)
        assert np.array_equal(seen[0].view(np.int64), expected.view(np.int64))
