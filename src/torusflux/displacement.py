"""Displacement of closed 1-forms under diffeomorphisms, and the energy
balance it induces.

For a conservative time-one map psi and a closed 1-form alpha, the pulled
back difference ``psi^* alpha - alpha`` is exact; its potential normalized
to vanish at a base point p is the displacement function nu.  The energy

    E(psi, H, p) = (1 / |H|) * integral of nu

over a harmonic form H decomposes through any isotopy reaching psi into a
flux pairing minus a scaled orbit integral, is continuous with modulus
``2 Vol d_C0``, and on surfaces its composition defect is bounded by twice
the squared symplectic area, which makes it a quasi-morphism.

nu is computed from the Hodge potential of the pulled-back difference
(O(N^d log N)); the per-point geodesic quadrature definition is kept as the
independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .flows import GridMap, Isotopy, PathEnd, flow_tolerance, inverse_end
from .flux import flux_class, orbit_displacement, orbit_of, pullback_difference, winding
from .torus import (
    FlatTorus,
    OneForm,
    eval_spectral,
    harmonic_norm,
    hodge_decompose,
    integrate,
    integrate_form_along_path,
    minimal_geodesic,
    poincare_pair,
    torus_distance,
)

if TYPE_CHECKING:
    from .paths import ConcatTrace


@dataclass(frozen=True)
class DisplacementField:
    """The displacement function nu of a form under a map, based at p."""

    torus: FlatTorus
    base: np.ndarray
    samples: np.ndarray
    form: OneForm

    def at(self, points) -> np.ndarray:
        return eval_spectral(self.torus, self.samples, points)

    def mean(self) -> float:
        return integrate(self.torus, self.samples)


def displacement(
    psi: GridMap, form: OneForm, p, exactness_tol: float | None = None
) -> DisplacementField:
    """Displacement function ``nu(z) = integral over a path p -> z`` of
    ``psi^* alpha - alpha``.

    The difference form must be exact; a harmonic part above tolerance is a
    structural failure and raises.  The coexact residual of the discrete
    decomposition is resolution noise (pullbacks of closed forms are
    closed), tolerated up to a loose ceiling and excluded from nu.
    """
    torus = psi.torus
    tol = flow_tolerance(torus.grid_res, 100.0) if exactness_tol is None else exactness_tol
    p = np.asarray(p, dtype=float)
    split = hodge_decompose(torus, pullback_difference(psi, form))
    drift = float(np.abs(split.harmonic).max())
    if drift > tol:
        raise ValueError(
            f"pulled-back difference is not exact (harmonic drift {drift:.2e})"
        )
    if split.coexact_sup > max(1e-2, tol):
        raise ValueError(
            f"pullback is under-resolved (coexact residual {split.coexact_sup:.2e})"
        )
    at_p = float(eval_spectral(torus, split.potential, p[None, :])[0])
    return DisplacementField(torus, p, split.potential - at_p, form)


def displacement_geodesic_value(psi: GridMap, form: OneForm, p, z) -> float:
    """Oracle for nu(z): quadrature of the difference form along the
    minimal geodesic from p to z, sampled at 2049 points (independent of the
    Hodge route)."""
    beta = pullback_difference(psi, form)
    path = minimal_geodesic(np.asarray(p, float), np.asarray(z, float), 2049)
    return integrate_form_along_path(psi.torus, beta, path)


# ---------------------------------------------------------------------------
# base-point transfer
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransferReport:
    """Closed-triangle integral balance of the displaced form."""

    residual: float
    loop_winding: np.ndarray
    hypothesis_met: bool


def base_point_transfer_residual(
    psi: GridMap, form: OneForm, xi: np.ndarray, gamma: np.ndarray, connector: np.ndarray
) -> TransferReport:
    """Check ``int_xi - int_gamma - int_C = 0`` for the displaced form.

    ``xi`` and ``gamma`` are lifted paths with a common endpoint,
    ``connector`` runs from xi(0) to gamma(0).  The three paths bound a
    2-chain iff the closed concatenation has zero winding; nonzero winding
    flags a hypothesis failure instead of asserting the balance.
    """
    torus = psi.torus
    xi = np.asarray(xi, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    connector = np.asarray(connector, dtype=float)
    if torus_distance(xi[-1], gamma[-1]) > 1e-9:
        raise ValueError("paths must share their endpoint")
    if (
        torus_distance(connector[0], xi[0]) > 1e-9
        or torus_distance(connector[-1], gamma[0]) > 1e-9
    ):
        raise ValueError("connector must run from xi(0) to gamma(0)")
    loop = winding(
        (xi[-1] - xi[0]) - (gamma[-1] - gamma[0]) - (connector[-1] - connector[0]), 1e-6
    )
    beta = pullback_difference(psi, form)
    vals = [
        integrate_form_along_path(torus, beta, path)
        for path in (xi, gamma, connector)
    ]
    residual = abs(vals[0] - vals[1] - vals[2])
    return TransferReport(residual, loop, hypothesis_met=not np.any(loop))


# ---------------------------------------------------------------------------
# energy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EnergyValue:
    """Energy of a map against a harmonic form, with optional decomposition."""

    value: float
    coeffs: np.ndarray
    base: np.ndarray
    pairing_term: float | None = None
    orbit_term: float | None = None

    @property
    def decomposition(self) -> float | None:
        if self.pairing_term is None:
            return None
        return self.pairing_term - self.orbit_term


def energy(psi: GridMap, coeffs, p) -> EnergyValue:
    """E(psi, H, p): the normalized volume average of the displacement."""
    coeffs = np.asarray(coeffs, dtype=float)
    norm = harmonic_norm(coeffs)
    if norm == 0.0:
        raise ValueError("energy requires a nonzero harmonic form")
    form = OneForm.harmonic_form(psi.torus, coeffs)
    nu = displacement(psi, form, p)
    return EnergyValue(nu.mean() / norm, coeffs, np.asarray(p, dtype=float))


def energy_via_isotopy(isotopy: Isotopy | ConcatTrace, coeffs, p) -> EnergyValue:
    """Energy with its flux-pairing / orbit-integral decomposition attached.

    Reads the path at its ends only, so it may be a
    :func:`~torusflux.paths.concat_trace` replay.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    e = energy(isotopy.time_one(), coeffs, p)
    norm = harmonic_norm(coeffs)
    fc = flux_class(isotopy)
    pairing = poincare_pair(coeffs, fc) / norm
    orbit_integral = float(coeffs @ orbit_displacement(isotopy, p))
    orbit_term = orbit_integral / norm
    return EnergyValue(e.value, coeffs, e.base, pairing, orbit_term)


def gf10_residual(isotopy: Isotopy, coeffs, p) -> float:
    """Residual of the energy decomposition through one isotopy."""
    e = energy_via_isotopy(isotopy, coeffs, p)
    return abs(e.value - e.decomposition)


# ---------------------------------------------------------------------------
# composition and iteration laws
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DefectReport:
    """Composition defect of the energy and its quasi-morphism bound."""

    defect: float
    bound: float
    exact_law_residual: float

    @property
    def within_bound(self) -> bool:
        return self.defect <= self.bound + 1e-9


def composition_defect(psi_iso: Isotopy | PathEnd, phi_iso: Isotopy | PathEnd,
                       coeffs, p) -> DefectReport:
    """Defect ``|E(psi o phi) - E(psi) - E(phi)|`` against ``2 A(M)^2 = 2``.

    Also evaluates the exact composition law: the defect equals the scaled
    difference of the orbit integrals of H through p and through phi(p)
    along any isotopy reaching psi.  Both paths are read at their ends
    only, so a :class:`~torusflux.flows.PathEnd` serves.
    """
    torus = psi_iso.torus
    if torus.dim != 2 or not torus.symplectic:
        raise ValueError("the defect bound is stated for symplectic surfaces")
    coeffs = np.asarray(coeffs, dtype=float)
    norm = harmonic_norm(coeffs)
    p = np.asarray(p, dtype=float)
    psi_map = psi_iso.time_one()
    phi_map = phi_iso.time_one()
    comp = psi_map.compose(phi_map)
    e_comp = energy(comp, coeffs, p).value
    e_psi = energy(psi_map, coeffs, p).value
    e_phi = energy(phi_map, coeffs, p).value
    defect = abs(e_comp - e_psi - e_phi)
    bound = 2.0

    orbit_p = orbit_displacement(psi_iso, p)
    phi_p = (phi_map.apply(p[None, :])[0]) % 1.0
    orbit_phi_p = orbit_displacement(psi_iso, phi_p)
    correction = float(coeffs @ (orbit_p - orbit_phi_p)) / norm
    exact_residual = abs(e_comp - e_psi - e_phi - correction)
    return DefectReport(defect, bound, exact_residual)


def iteration_law_residual(phi_iso: Isotopy, power: int, coeffs, x) -> float:
    """Residual of the iteration law for the energy.

    ``E(psi^l) = l E(psi) + (Vol/|H|) (l int_{orbit of x} H -
    sum over iterates of the orbit integrals through psi^{eps i}(x))``
    with eps the sign of l and orbits taken along the eps-branch of the
    path.  The inverse branch is read at its ends
    (:func:`~torusflux.flows.inverse_end`).
    """
    if power == 0:
        raise ValueError("iteration power must be nonzero")
    coeffs = np.asarray(coeffs, dtype=float)
    norm = harmonic_norm(coeffs)
    x = np.asarray(x, dtype=float)
    eps = 1 if power > 0 else -1
    m = abs(power)
    base = phi_iso if eps > 0 else inverse_end(phi_iso)
    psi_map = phi_iso.time_one()
    base_map = base.time_one()

    lhs = energy(psi_map.power(power), coeffs, x).value
    e_one = energy(psi_map, coeffs, x).value

    # first orbit term along the forward path for either sign; the sum runs
    # over the eps-branch orbits through the iterates of x
    orbit_x = float(coeffs @ orbit_displacement(phi_iso, x))
    total = 0.0
    point = x.copy()
    for _ in range(m):
        total += float(coeffs @ orbit_displacement(base, point % 1.0))
        point = base_map.apply(point[None, :])[0]
    rhs = power * e_one + (power * orbit_x - total) / norm
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# continuity and separation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ContinuityRow:
    distance: float
    energy_gap: float
    bound: float
    checked: bool

    @property
    def ok(self) -> bool:
        return (not self.checked) or self.energy_gap <= self.bound


def continuity_check(maps: list[GridMap], psi: GridMap, coeffs, x) -> list[ContinuityRow]:
    """Energy continuity modulus ``|E(psi_i) - E(psi)| <= 2 Vol d_C0``,
    checked up to 1e-9.

    Entries with distance at or beyond the injectivity radius are skipped
    (reported unchecked) since the modulus is only derived inside it.
    """
    torus = psi.torus
    base_val = energy(psi, coeffs, x).value
    rows = []
    for m in maps:
        d = m.c0_distance(psi)
        if d >= torus.injectivity_radius:
            rows.append(ContinuityRow(d, np.nan, np.nan, checked=False))
            continue
        gap = abs(energy(m, coeffs, x).value - base_val)
        bound = 2.0 * d + 1e-9
        rows.append(ContinuityRow(d, gap, bound, checked=True))
    return rows


@dataclass(frozen=True)
class SeparationReport:
    """Orbit-vs-minimal-geodesic audit for a nonzero-flux isotopy.

    ``c0_gap`` is the distance of the time-one map to the identity; the
    threshold delta0 uses the 1/8 coefficient and the maximizing coordinate
    form.  When the hypothesis holds every sampled orbit must be strictly
    longer than the flat distance between its endpoints.
    """

    delta0: float
    c0_gap: float
    hypothesis_met: bool
    min_margin: float | None
    margins: np.ndarray | None


def separation_check(phi_iso: Isotopy, samples: int = 64) -> SeparationReport:
    torus = phi_iso.torus
    fc = flux_class(phi_iso)
    if fc.norm() <= 1e-9:
        raise ValueError("separation check requires a nonzero flux class")
    ratio = float(np.abs(fc.pairings).max())  # coordinate basis, |dx_i| = 1
    delta0 = min(torus.injectivity_radius, ratio) / 8.0
    c0_gap = phi_iso.time_one().c0_distance()
    if c0_gap >= delta0:
        return SeparationReport(delta0, c0_gap, False, None, None)
    stride = max(1, torus.points.shape[0] // samples)
    orbits = np.moveaxis(orbit_of(phi_iso, torus.points[::stride]).path, 0, 1)
    lengths = np.linalg.norm(np.diff(orbits, axis=1), axis=2).sum(axis=1)
    gaps = torus_distance(orbits[:, -1, :], orbits[:, 0, :])
    margins = lengths - gaps
    return SeparationReport(delta0, c0_gap, True, float(margins.min()), margins)
