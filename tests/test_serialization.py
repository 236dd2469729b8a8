import numpy as np
import pytest

from torusflux import c0_distance
from torusflux.serialization import (
    SerializationError,
    load_isotopy,
    resample_grid,
    save_isotopy,
)


class TestRoundTrip:
    def test_exact_roundtrip(self, torus, shear, tmp_path):
        path = tmp_path / "shear.npz"
        save_isotopy(shear, path)
        back = load_isotopy(path)
        assert back.torus == shear.torus
        assert back.kind == shear.kind
        assert np.array_equal(back.times, shear.times)
        assert c0_distance(back, shear) == 0.0

    def test_truncated_file(self, torus, shear, tmp_path):
        path = tmp_path / "shear.npz"
        save_isotopy(shear, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(SerializationError):
            load_isotopy(path)

    def test_version_mismatch(self, torus, shear, tmp_path, monkeypatch):
        import torusflux.serialization as ser

        path = tmp_path / "shear.npz"
        monkeypatch.setattr(ser, "FORMAT_VERSION", 99)
        save_isotopy(shear, path)
        monkeypatch.undo()
        with pytest.raises(SerializationError):
            load_isotopy(path)

    def test_generator_survives_the_roundtrip(self, torus, ham_shear, trans_loop,
                                              tmp_path):
        from torusflux import Isotopy, harmonic_isotopy
        from torusflux.hofer import inverse_lengths, lengths
        from torusflux.paths import concat_left

        def coeffs(t):
            return np.array([0.3 * np.cos(2 * np.pi * t), 0.1])

        # provenance route (field generator stored) and attached trace; the
        # translation paths' stacks are broadcast views, stored dense
        for iso in (ham_shear, concat_left(trans_loop, ham_shear, with_generator=True),
                    trans_loop, harmonic_isotopy(torus, coeffs, 100)):
            path = tmp_path / "iso.npz"
            save_isotopy(iso, path)
            back = load_isotopy(path)
            assert back.gen is not None and back.provenance is None
            assert np.array_equal(back.disp, iso.disp)
            assert np.array_equal(np.signbit(back.disp), np.signbit(iso.disp))
            for measure in (lengths, inverse_lengths):
                a, b = measure(iso), measure(back)
                assert np.array_equal(a.times, b.times)
                assert np.array_equal(a.osc_trace, b.osc_trace)
                assert np.array_equal(a.harmonic_trace, b.harmonic_trace)
        # a data-only path stores no generator
        save_isotopy(Isotopy(torus, ham_shear.times, ham_shear.disp), path)
        assert load_isotopy(path).gen is None

    def test_version_one_still_loads(self, torus, shear, tmp_path):
        import json

        path = tmp_path / "v1.npz"
        meta = {"format_version": 1, "dim": 2, "resolution": torus.grid_res,
                "volume_scale": 1.0, "symplectic": True, "kind": shear.kind}
        np.savez_compressed(
            path, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
            times=shear.times, disp=shear.disp,
        )
        back = load_isotopy(path)
        assert back.gen is None
        assert c0_distance(back, shear) == 0.0

    def test_other_volume_rejected(self, torus, shear, tmp_path):
        import json

        path = tmp_path / "vol2.npz"
        meta = {"format_version": 1, "dim": 2, "resolution": torus.grid_res,
                "volume_scale": 2.0, "symplectic": True, "kind": shear.kind}
        np.savez_compressed(
            path, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
            times=shear.times, disp=shear.disp,
        )
        with pytest.raises(SerializationError, match="volume_scale"):
            load_isotopy(path)

    def test_garbage_file(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"not an archive at all")
        with pytest.raises(SerializationError):
            load_isotopy(path)


def _complex_resample(samples, dim, new_res):
    """The complex-FFT resampling: frequencies -m..m-1 kept, real part taken."""
    old_res = samples.shape[-1]
    axes = tuple(range(samples.ndim - dim, samples.ndim))
    spec = np.fft.fftn(samples, axes=axes) / old_res**dim
    out = np.zeros(samples.shape[:-dim] + (new_res,) * dim, dtype=complex)
    keep = min(old_res, new_res) // 2
    idx = np.ix_(*([np.r_[0:keep, -keep:0]] * dim))
    lead = (slice(None),) * (samples.ndim - dim)
    out[lead + idx] = spec[lead + idx]
    return np.fft.ifftn(out * new_res**dim, axes=axes).real


class TestRealFFTResampling:
    """The half-spectrum resampling is the complex one on data that is not
    band-limited: every Nyquist mode, odd and even sizes, up and down."""

    @pytest.mark.parametrize("dim,old,new", [
        (2, 16, 32), (2, 32, 16), (2, 16, 24), (2, 24, 16), (2, 15, 32),
        (2, 32, 15), (2, 17, 9), (2, 9, 17), (2, 16, 17), (2, 17, 16),
        (4, 6, 8), (4, 8, 6), (4, 5, 4),
    ])
    def test_matches_the_complex_resampling(self, dim, old, new):
        rng = np.random.default_rng(old * 100 + new)
        stack = rng.standard_normal((3, dim) + (old,) * dim)
        got = resample_grid(stack, dim, new)
        ref = _complex_resample(stack, dim, new)
        assert got.shape == ref.shape == (3, dim) + (new,) * dim
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(stack).max()


class TestResampling:
    def test_spectral_resample_exact_for_band_limited(self, torus):
        field = np.sin(2 * np.pi * torus.grid[0]) * np.cos(2 * np.pi * torus.grid[1])
        up = resample_grid(field[None], 2, 64)[0]
        from torusflux import FlatTorus

        fine = FlatTorus(2, 64)
        expected = np.sin(2 * np.pi * fine.grid[0]) * np.cos(2 * np.pi * fine.grid[1])
        assert np.abs(up - expected).max() < 1e-12

    def test_cross_resolution_load(self, torus, shear, tmp_path, caplog):
        import logging

        path = tmp_path / "shear.npz"
        save_isotopy(shear, path)
        with caplog.at_level(logging.INFO, logger="torusflux.serialization"):
            up = load_isotopy(path, resolution=64)
        assert up.torus.grid_res == 64
        assert any("round-trip error" in rec.message for rec in caplog.records)
        # resampled displacement agrees with the analytic shear profile
        from torusflux.families import shear_profile

        g = shear_profile(1.0)
        assert np.abs(up.disp[-1][0] - g(up.torus.grid[1])).max() < 1e-8

    def test_cross_resolution_load_resamples_the_generator(self, ham_shear, tmp_path):
        from torusflux.hofer import lengths

        path = tmp_path / "ham.npz"
        save_isotopy(ham_shear, path)
        up = load_isotopy(path, resolution=64)
        assert up.gen.U.shape == (ham_shear.steps + 1, 64, 64)
        # U_t = cos(2 pi y) / (2 pi) is band-limited: the length is kept
        assert abs(lengths(up).l1_length - lengths(ham_shear).l1_length) < 1e-12

    def test_downsample_roundtrip_error_small(self, torus, shear):
        down = resample_grid(shear.disp, 2, 16)
        back = resample_grid(down, 2, 32)
        # the shear profile is band-limited to one mode, so nothing is lost
        assert np.abs(back - shear.disp).max() < 1e-10
