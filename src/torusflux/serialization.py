"""Isotopy container files: versioned, with lifted displacement arrays.

The container is a compressed npz holding the time grid, the full lifted
displacement stack, the kind tag and a format version.  Version 2 also holds
the generator pair (U, H) of a symplectic isotopy whose generator is exact
(an attached trace, or the field route of its provenance), so a loaded path
measures the same lengths without the data route; version 1 files still
load, without a generator.  Loading at a different spatial resolution
resamples the (periodic) displacement fields and U spectrally and logs the
measured round-trip interpolation error.
"""

from __future__ import annotations

import json
import logging
import zipfile
from pathlib import Path

import numpy as np

from .flows import GeneratorPair, Isotopy, generator_of
from .torus import FlatTorus

log = logging.getLogger(__name__)

FORMAT_VERSION = 2
READABLE_VERSIONS = (1, FORMAT_VERSION)


class SerializationError(RuntimeError):
    """Corrupt, truncated or incompatible isotopy container."""


def save_isotopy(isotopy: Isotopy, path: str | Path) -> None:
    path = Path(path)
    meta = {
        "format_version": FORMAT_VERSION,
        "dim": isotopy.torus.dim,
        "resolution": isotopy.torus.grid_res,
        "volume_scale": isotopy.torus.volume_scale,
        "symplectic": isotopy.torus.symplectic,
        "kind": isotopy.kind,
    }
    arrays = {"times": isotopy.times, "disp": isotopy.disp}
    exact = isotopy.gen is not None or isotopy.provenance is not None
    if isotopy.torus.symplectic and exact:
        gen = generator_of(isotopy)
        arrays.update(gen_times=gen.times, gen_U=gen.U, gen_H=gen.H)
    np.savez_compressed(
        path,
        meta=np.frombuffer(json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8),
        **arrays,
    )


def resample_grid(samples: np.ndarray, dim: int, new_res: int) -> np.ndarray:
    """Spectral resampling of periodic grid samples on the last d axes."""
    old_res = samples.shape[-1]
    if new_res == old_res:
        return samples.copy()
    axes = tuple(range(samples.ndim - dim, samples.ndim))
    spec = np.fft.fftn(samples, axes=axes) / old_res**dim
    out_shape = samples.shape[:-dim] + (new_res,) * dim
    out = np.zeros(out_shape, dtype=complex)
    keep = min(old_res, new_res) // 2
    sel_parts = [np.r_[0:keep, -keep:0]]
    idx_old = np.ix_(*([sel_parts[0]] * dim))
    lead = (slice(None),) * (samples.ndim - dim)
    out[lead + idx_old] = spec[lead + idx_old]
    return np.fft.ifftn(out * new_res**dim, axes=axes).real


def load_isotopy(path: str | Path, resolution: int | None = None) -> Isotopy:
    """Load an isotopy container; optionally resample to a new resolution.

    Raises :class:`SerializationError` on corrupt payloads or version
    mismatch.  Cross-resolution loads log the round-trip interpolation error
    of the resampling.
    """
    path = Path(path)
    try:
        with np.load(path) as payload:
            raw_meta = bytes(payload["meta"].tobytes())
            times = payload["times"]
            disp = payload["disp"]
            gen = None
            if "gen_U" in payload.files:
                gen = [payload[key] for key in ("gen_times", "gen_U", "gen_H")]
    except (zipfile.BadZipFile, OSError, ValueError, KeyError, EOFError) as exc:
        raise SerializationError(f"corrupt isotopy container {path}: {exc}") from exc
    try:
        meta = json.loads(raw_meta.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SerializationError(f"corrupt metadata in {path}: {exc}") from exc
    version = meta.get("format_version")
    if version not in READABLE_VERSIONS:
        raise SerializationError(
            f"unsupported container version {version} (supported: "
            f"{', '.join(map(str, READABLE_VERSIONS))})"
        )
    dim = int(meta["dim"])
    res = int(meta["resolution"])
    if disp.shape != (len(times), dim) + (res,) * dim:
        raise SerializationError(f"payload shape mismatch in {path}")
    if gen is not None and (
        gen[1].shape != (len(gen[0]),) + (res,) * dim
        or gen[2].shape != (len(gen[0]), dim)
    ):
        raise SerializationError(f"generator shape mismatch in {path}")
    if resolution is not None and resolution != res:
        back = resample_grid(
            resample_grid(disp, dim, resolution), dim, res
        )
        est = float(np.abs(back - disp).max())
        log.info(
            "resampled isotopy %s from N=%d to N=%d (round-trip error %.3e)",
            path.name, res, resolution, est,
        )
        disp = resample_grid(disp, dim, resolution)
        if gen is not None:
            gen[1] = resample_grid(gen[1], dim, resolution)
        res = resolution
    torus = FlatTorus(
        dim, res,
        volume_scale=float(meta.get("volume_scale", 1.0)),
        symplectic=bool(meta.get("symplectic", False)),
    )
    return Isotopy(
        torus, times, disp, kind=str(meta.get("kind", "general")),
        gen=None if gen is None else GeneratorPair(*gen),
    )
