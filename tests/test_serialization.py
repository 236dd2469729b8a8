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
        from torusflux import Isotopy
        from torusflux.hofer import inverse_lengths, lengths
        from torusflux.paths import concat_left

        # provenance route (field generator stored) and attached trace
        for iso in (ham_shear, concat_left(trans_loop, ham_shear, with_generator=True)):
            path = tmp_path / "iso.npz"
            save_isotopy(iso, path)
            back = load_isotopy(path)
            assert back.gen is not None and back.provenance is None
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

    def test_garbage_file(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"not an archive at all")
        with pytest.raises(SerializationError):
            load_isotopy(path)


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
