"""Canonical and seeded-random isotopy families used across experiments.

Everything here is analytic and cheap: shears, translations, Hamiltonian
bumps, and loops built from them.  Random draws all pass through a single
``numpy.random.Generator`` so surveys are reproducible bit for bit.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .flows import (
    Isotopy, TimeField, constant_field, flow, is_repeat, rotate_coeffs_to_field,
)
from .torus import FlatTorus


def shear_profile(amplitude: float = 1.0) -> Callable[[np.ndarray], np.ndarray]:
    """The standard profile g(y) = amplitude * (1 + sin(2 pi y)) / 2."""

    def g(y: np.ndarray) -> np.ndarray:
        return amplitude * (1.0 + np.sin(2.0 * np.pi * y)) / 2.0

    return g


def _shear_evaluator(
    *parts: tuple[Callable[[np.ndarray], np.ndarray], int, int],
) -> Callable[[float, np.ndarray], np.ndarray]:
    """Evaluator of the autonomous shear ``X^moved = g(x^along)`` summed over
    ``parts = (g, moved, along), ...``, other components 0.

    No part moves a coordinate that a part reads, so the flow never changes
    any ``x^along`` and every RK4 stage of every step hands each g the same
    coordinates: a part whose coordinates repeat its previous call's reuses
    its previous profile values.
    """
    cache: list[tuple] = [(None, None)] * len(parts)  # (last arg, last value)

    def evaluator(t: float, points: np.ndarray) -> np.ndarray:
        out = np.zeros_like(points)
        for i, (g, moved, along) in enumerate(parts):
            arg = points[..., along]
            if not is_repeat(arg, cache[i][0]):
                cache[i] = (arg.copy(), g(arg))
            out[..., moved] = cache[i][1]
        return out

    return evaluator


def x_shear_field(torus: FlatTorus, g: Callable[[np.ndarray], np.ndarray]) -> TimeField:
    """Divergence-free shear X = (g(y), 0, ...)."""
    return TimeField(torus, _shear_evaluator((g, 0, 1)), "conservative")


def y_shear_field(torus: FlatTorus, g: Callable[[np.ndarray], np.ndarray]) -> TimeField:
    """Divergence-free shear X = (0, g(x), 0, ...)."""
    return TimeField(torus, _shear_evaluator((g, 1, 0)), "conservative")


def standard_shear(torus: FlatTorus, steps: int, amplitude: float = 1.0) -> Isotopy:
    """Shear with the standard profile; flux class (amplitude/2, 0)."""
    return flow(x_shear_field(torus, shear_profile(amplitude)), steps)


def translation_isotopy(torus: FlatTorus, steps: int, velocity) -> Isotopy:
    """Straight translation path t -> x + t v (a loop when v is integer)."""
    return flow(constant_field(torus, velocity), steps)


def hamiltonian_shear_field(torus: FlatTorus, amplitude: float = 1.0) -> TimeField:
    """Hamiltonian field of H = amplitude * cos(2 pi y) / (2 pi): X = (-a sin(2 pi y), 0)."""

    def g(y: np.ndarray) -> np.ndarray:
        return -amplitude * np.sin(2.0 * np.pi * y)

    return TimeField(torus, _shear_evaluator((g, 0, 1)), "hamiltonian")


def hamiltonian_shear(torus: FlatTorus, steps: int, amplitude: float = 1.0) -> Isotopy:
    return flow(hamiltonian_shear_field(torus, amplitude), steps)


class TrigHamiltonian:
    """Low-mode trigonometric Hamiltonian with analytic field.

    H(x) = sum over three drawn modes of a * sin(2 pi (m . x) + phase); the
    field is the symplectic rotation of dH, divergence free by construction.
    """

    def __init__(self, torus: FlatTorus, rng: np.random.Generator,
                 amplitude: float = 0.15):
        self.torus = torus
        d = torus.dim
        self.modes = rng.integers(-2, 3, size=(3, d)).astype(float)
        bad = ~np.any(self.modes, axis=1)
        self.modes[bad, 0] = 1.0
        # normalize by mode frequency so the field speed is ~amplitude
        scale = 2.0 * np.pi * np.linalg.norm(self.modes, axis=1) * 3
        self.amps = amplitude * rng.uniform(0.3, 1.0, size=3) / scale
        self.phases = rng.uniform(0.0, 2.0 * np.pi, size=3)

    def value(self, points: np.ndarray) -> np.ndarray:
        phase = 2.0 * np.pi * points @ self.modes.T + self.phases
        return np.sin(phase) @ self.amps

    def field(self, time_profile: Callable[[float], float] | None = None) -> TimeField:
        # X = J dH = sum_k cos(2 pi m_k . x + phase_k) J (2 pi a_k m_k): one
        # matrix product against the rotated weights, constants folded.  The
        # phases are held mode-major, (3, P), so the phase shift is a row
        # broadcast and the cosine runs over contiguous rows
        freqs = 2.0 * np.pi * self.modes
        phases = self.phases[:, None]
        weights = rotate_coeffs_to_field(
            ((2.0 * np.pi * self.amps)[:, None] * self.modes).T).T.copy()

        def evaluator(t: float, points: np.ndarray) -> np.ndarray:
            phase = freqs @ points.reshape(-1, points.shape[-1]).T
            phase += phases
            out = (np.cos(phase, out=phase).T @ weights).reshape(points.shape)
            if time_profile is not None:
                out *= time_profile(t)
            return out

        return TimeField(self.torus, evaluator, "hamiltonian")


def hamiltonian_loop(
    torus: FlatTorus, steps: int, rng: np.random.Generator | None = None,
    amplitude: float = 0.15,
) -> Isotopy:
    """Hamiltonian loop at the identity.

    Time profile cos(2 pi t) has zero mean, so the path runs out along the
    autonomous Hamiltonian flow and back: the time-one map is the identity
    and every orbit retraces itself (windings 0).
    """
    rng = rng or np.random.default_rng(7)
    ham = TrigHamiltonian(torus, rng, amplitude=amplitude)
    return flow(ham.field(lambda t: np.cos(2.0 * np.pi * t)), steps)


def translation_loop(torus: FlatTorus, steps: int, winding=(1, 0)) -> Isotopy:
    """Full coordinate translation loop; flux class equals the winding."""
    v = np.zeros(torus.dim)
    v[: len(winding)] = winding
    if np.any(np.abs(v - np.round(v)) > 0):
        raise ValueError("translation loop winding must be integer")
    return translation_isotopy(torus, steps, v)


def wiggled_translation_loop(
    torus: FlatTorus, steps: int, rng: np.random.Generator | None = None
) -> Isotopy:
    """Translation loop perturbed by a Hamiltonian flow of amplitude 0.02.

    The time-one map is 0.02-close to the identity but every orbit winds
    once around the first coordinate, so no orbit is a minimal geodesic
    between its endpoints.
    """
    rng = rng or np.random.default_rng(11)
    ham = TrigHamiltonian(torus, rng, amplitude=0.02)
    base = ham.field()

    def evaluator(t: float, points: np.ndarray) -> np.ndarray:
        out = base(t, points)
        out[..., 0] += 1.0
        return out

    return flow(TimeField(torus, evaluator, "conservative"), steps)


def random_conservative_isotopy(
    torus: FlatTorus, rng: np.random.Generator, steps: int,
    kinds: tuple[str, ...] = ("x-shear", "y-shear", "translation", "hamiltonian"),
) -> Isotopy:
    """One draw from the fixed-seed family of conservative isotopies."""
    kind = kinds[int(rng.integers(len(kinds)))]
    if kind in ("x-shear", "y-shear"):
        # amplitudes kept moderate so that pairwise compositions stay well
        # resolved on the desk-scale grid
        a0 = rng.uniform(-0.25, 0.25)
        a1 = rng.uniform(0.15, 0.4)
        a2 = rng.uniform(-0.1, 0.1)
        p1, p2 = rng.uniform(0.0, 2.0 * np.pi, size=2)

        def g(y: np.ndarray) -> np.ndarray:
            return (
                a0
                + a1 * np.sin(2.0 * np.pi * y + p1)
                + a2 * np.sin(4.0 * np.pi * y + p2)
            )

        make = x_shear_field if kind == "x-shear" else y_shear_field
        return flow(make(torus, g), steps)
    if kind == "translation":
        return translation_isotopy(torus, steps, rng.uniform(-0.7, 0.7, size=torus.dim))
    ham = TrigHamiltonian(torus, rng, amplitude=rng.uniform(0.05, 0.2))
    return flow(ham.field(), steps)
