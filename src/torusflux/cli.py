"""Command-line experiment runner.

Subcommands
-----------
verify            run the full invariant suite, write report.csv/report.json
scenario NAME     run one named experiment (``scenario list`` names them)
save PATH         build a canonical isotopy and store it as a container
load PATH         validate a container and print its header

Exit codes: 0 all checks passed, 1 at least one check failed, 2 usage or
configuration error.
"""

from __future__ import annotations

import sys
import time
from dataclasses import asdict
from pathlib import Path

import click
import numpy as np

from .config import ConfigError, ExperimentConfig, apply_overrides, load_config
from .reporting import write_csv, write_json, write_table_csv


def _build_config(config_path, **flags) -> ExperimentConfig:
    try:
        base = load_config(config_path) if config_path else ExperimentConfig()
        return apply_overrides(base, **flags)
    except ConfigError as exc:
        raise click.UsageError(str(exc))


def _common_options(fn):
    fn = click.option("--config", "config_path", type=click.Path(), default=None,
                      help="Experiment config file (INI).")(fn)
    fn = click.option("--out", "out_dir", type=click.Path(), default="reports",
                      show_default=True, help="Output directory.")(fn)
    fn = click.option("--seed", type=int, default=None, help="Random seed.")(fn)
    fn = click.option("--resolution", type=int, default=None,
                      help="Grid points per axis.")(fn)
    fn = click.option("--steps", type=int, default=None, help="Time steps.")(fn)
    return fn


def _emit(rows, extras, config: ExperimentConfig, out_dir: str, runtime_ms: float) -> int:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(rows, out / "report.csv")
    write_json(rows, out / "report.json", asdict(config), runtime_ms)
    for name, (header, records) in extras.get("tables", {}).items():
        write_table_csv(out / name, header, records)
    failures = [r for r in rows if not r.passed]
    for row in sorted(rows, key=lambda r: r.check_id):
        status = "pass" if row.passed else "FAIL"
        click.echo(f"{status}  {row.check_id}  value={row.value:.6g} "
                   f"bound={row.bound:.6g} tol={row.tolerance:.6g}")
    click.echo(f"{len(rows) - len(failures)}/{len(rows)} checks passed "
               f"({runtime_ms / 1e3:.1f} s); reports in {out}/")
    return 1 if failures else 0


@click.group()
def main():
    """Flux geometry and Hofer-like length experiments on flat tori."""


@main.command()
@_common_options
def verify(config_path, out_dir, seed, resolution, steps):
    """Run the full invariant suite."""
    from .scenarios import run_verify

    config = _build_config(config_path, seed=seed, resolution=resolution,
                           steps=steps)
    t0 = time.perf_counter()
    rows, extras = run_verify(config)
    sys.exit(_emit(rows, extras, config, out_dir,
                   (time.perf_counter() - t0) * 1e3))


@main.command()
@click.argument("name")
@_common_options
def scenario(name, config_path, out_dir, seed, resolution, steps):
    """Run one named scenario."""
    from .scenarios import run_part, run_scenario, scenario_names

    if name == "list":
        click.echo("\n".join(scenario_names()))
        return
    if name not in scenario_names():
        raise click.UsageError(
            f"unknown scenario {name!r}; available: {', '.join(scenario_names())}"
        )
    config = _build_config(config_path, seed=seed, resolution=resolution,
                           steps=steps)
    t0 = time.perf_counter()
    rows, extras = run_part(name, lambda: run_scenario(name, config))
    sys.exit(_emit(rows, extras, config, out_dir,
                   (time.perf_counter() - t0) * 1e3))


@main.command()
@click.argument("path", type=click.Path())
@click.option("--family", type=click.Choice(["shear", "hamiltonian-shear",
                                             "translation-loop"]),
              default="shear", show_default=True)
@click.option("--resolution", type=int, default=64, show_default=True)
@click.option("--steps", type=int, default=200, show_default=True)
def save(path, family, resolution, steps):
    """Build a canonical isotopy and serialize it."""
    from .families import hamiltonian_shear, standard_shear, translation_loop
    from .serialization import save_isotopy
    from .torus import FlatTorus

    try:
        torus = FlatTorus(2, resolution, symplectic=True)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    builder = {
        "shear": standard_shear,
        "hamiltonian-shear": hamiltonian_shear,
        "translation-loop": translation_loop,
    }[family]
    iso = builder(torus, steps)
    save_isotopy(iso, path)
    click.echo(f"saved {family} isotopy (N={resolution}, K={steps}) to {path}")


@main.command()
@click.argument("path", type=click.Path(exists=True))
@click.option("--resolution", type=int, default=None,
              help="Resample to this grid resolution.")
def load(path, resolution):
    """Validate an isotopy container and print its header."""
    from .serialization import SerializationError, load_isotopy

    try:
        iso = load_isotopy(path, resolution=resolution)
    except SerializationError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    drift = float(np.abs(iso.disp[-1]).max())
    click.echo(
        f"isotopy on T^{iso.torus.dim}, N={iso.torus.grid_res}, "
        f"K={iso.steps}, kind={iso.kind}, max time-one displacement {drift:.4g}"
    )


if __name__ == "__main__":
    main()
