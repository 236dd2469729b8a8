"""Experiment configuration: a flat key-value file with sections.

The format is INI (diff friendly, language agnostic):

    [torus]
    resolution = 64

    [run]
    steps = 200
    seed = 0

    [scenario]
    pair_count = 200
    shear_amplitude = 1.0
    iterate_count = 10
    sequence_length = 6
    hamiltonian_amplitude = 0.12
    sample_count = 100

Each key takes the type of its field's default.  Unknown keys or sections
are rejected.  Command-line flags override file values.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, fields, replace
from pathlib import Path


class ConfigError(ValueError):
    """Invalid experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    dim = 2  # the workbench torus is T^2: a constant, not a setting
    resolution: int = 64
    steps: int = 200
    seed: int = 0
    pair_count: int = 200
    cocycle_pairs: int = 50
    shear_amplitude: float = 1.0
    hamiltonian_amplitude: float = 0.12
    iterate_count: int = 10
    sequence_length: int = 6
    sample_count: int = 100

    def validate(self) -> "ExperimentConfig":
        # flux-02 refines from a torus at N/2, which must be a valid grid
        # (even and >= 8) as well
        if self.resolution < 16 or self.resolution % 4:
            raise ConfigError(
                f"resolution must be a multiple of 4 and >= 16, got {self.resolution}"
            )
        if self.steps < 50:
            raise ConfigError(f"steps must be >= 50, got {self.steps}")
        for name in ("pair_count", "cocycle_pairs", "iterate_count",
                     "sequence_length", "sample_count"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        return self


_SECTION_KEYS = {
    "torus": {"resolution"},
    "run": {"steps", "seed"},
    "scenario": {
        "pair_count", "cocycle_pairs", "shear_amplitude",
        "hamiltonian_amplitude", "iterate_count", "sequence_length",
        "sample_count",
    },
}


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse and validate an experiment configuration file."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    parser = configparser.ConfigParser()
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    types = {f.name: type(f.default) for f in fields(ExperimentConfig)}
    values: dict = {}
    for section in parser.sections():
        if section not in _SECTION_KEYS:
            raise ConfigError(f"unknown section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SECTION_KEYS[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            try:
                values[key] = types[key](raw)
            except ValueError as exc:
                raise ConfigError(f"bad value for {key!r}: {exc}") from exc
    return ExperimentConfig(**values).validate()


def apply_overrides(config: ExperimentConfig, **overrides) -> ExperimentConfig:
    """Override config fields with non-None values."""
    known = {f.name for f in fields(ExperimentConfig)}
    clean = {}
    for key, value in overrides.items():
        if key not in known:
            raise ConfigError(f"unknown config field {key!r}")
        if value is not None:
            clean[key] = value
    return replace(config, **clean).validate()
