"""Flux functions, flux classes, factorizations, and orbit homology checks.

For a closed 1-form ``alpha = sum c_i dx_i + dF`` and an isotopy Phi, the
flux function at base point x is the line integral of alpha along the orbit
segment of x up to time t.  With lifted orbits this has the closed form

    Flux_fn(t)(x) = c . (L_t(x) - x) + F(phi_t(x)) - F(x),

the exact antiderivative of the time integrand ``alpha(velocity)`` along the
orbit, so no time quadrature error enters.  The flux class pairs the flux
function of each coordinate form with the volume form, which on the torus
reduces to the grid mean of the lifted displacement.

Contractibility on T^d is decided by the winding vector: pi_1(T^d) = Z^d and
the net integer lift displacement of a closed orbit is a complete invariant.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .flows import (
    GridMap,
    Isotopy,
    PeriodicInterp,
    contract_field_to_coeffs,
    flow_tolerance,
    integrate_trajectories,
    verify_conservative,
)
from .torus import (
    FlatTorus,
    FluxClass,
    OneForm,
    eval_spectral,  # noqa: F401  (perfbench/test_perfbench.py checks this binding)
    line_integral,
    poincare_pair,
    torus_distance,
)


# ---------------------------------------------------------------------------
# orbits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Orbit:
    """Lifted orbit of a point (or of each point of a batch) under an isotopy.

    ``length`` is defined for the orbit of a single point.
    """

    base: np.ndarray  # (..., d)
    times: np.ndarray
    path: np.ndarray  # (K+1, ..., d), lifted

    @property
    def displacement(self) -> np.ndarray:
        return self.path[-1] - self.path[0]

    @property
    def length(self) -> float:
        return float(np.linalg.norm(np.diff(self.path, axis=0), axis=1).sum())

    def winding(self, tol: float = 1e-6) -> np.ndarray:
        """Integer winding vector; valid for orbits of loops."""
        delta = self.displacement
        rounded = np.rint(delta)
        if np.abs(delta - rounded).max() > tol:
            raise ValueError(
                f"orbit is not closed: lift displacement {delta} is not integral"
            )
        return rounded.astype(int)


def orbit_of(isotopy: Isotopy, x, reintegrate: bool = True) -> Orbit:
    """Orbits of a point or a point batch (..., d).

    With ``reintegrate`` the provenance field, if any, is re-integrated,
    which gives RK4-accurate off-grid orbits; otherwise the lifted
    displacement field is interpolated.
    """
    x = np.asarray(x, dtype=float)
    pts = x.reshape(-1, isotopy.torus.dim)
    if reintegrate and isotopy.provenance is not None:
        traj = integrate_trajectories(isotopy.provenance, pts, isotopy.steps)
    else:
        traj = isotopy.eval_orbit(pts)
    return Orbit(x, isotopy.times.copy(), traj.reshape(traj.shape[:1] + x.shape))


# ---------------------------------------------------------------------------
# flux function and flux class
# ---------------------------------------------------------------------------


def flux_function(form: OneForm, isotopy: Isotopy, t: float) -> np.ndarray:
    """The flux function at time t as a scalar field on the grid.

    Defined by integrating the contracted pullback of the form along the
    flow; evaluated exactly through the lifted orbit endpoints.  Raises for
    non-closed forms.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"time {t} outside [0, 1]")
    if form.coexact_sup > 1e-8:
        raise ValueError("flux function requires a closed form")
    phi = isotopy.map_at(t)
    out = np.tensordot(form.harmonic, phi.disp, axes=(0, 0))
    if np.any(form.potential):
        out = out + phi.compose_field(form.potential) - form.potential
    return out


def flux_pde_residual(form: OneForm, isotopy: Isotopy, t: float) -> float:
    """Sup residual of ``d(flux function) = phi_t^* alpha - alpha`` at time t."""
    from .torus import grad

    torus = isotopy.torus
    lhs = grad(torus, flux_function(form, isotopy, t))
    phi = isotopy.map_at(t)
    rhs = phi.pullback(form.samples()) - form.samples()
    return float(np.abs(lhs - rhs).max())


def flux_class(isotopy: Isotopy, check: bool = True, tol: float | None = None) -> FluxClass:
    """Flux class of a conservative isotopy: pairings with the [dx_i] basis.

    Entry i integrates the time-one flux function of dx_i, i.e. the grid
    mean of the lifted displacement.  A conservativity residual above
    tolerance attaches a warning instead of failing.
    """
    torus = isotopy.torus
    pairings = isotopy.disp[-1].reshape(torus.dim, -1).mean(axis=1) * torus.volume_scale
    residual = None
    if check:
        report = verify_conservative(isotopy, tol=tol, nt=3)
        residual = max(report.max_det_residual, report.max_div_residual)
        if not report.ok:
            warnings.warn(
                f"flux_class of a non-conservative isotopy (residual {residual:.2e})",
                stacklevel=2,
            )
    return FluxClass(pairings, conservative_residual=residual)


# ---------------------------------------------------------------------------
# cocycle identity
# ---------------------------------------------------------------------------


def cocycle_residual(
    phi: Isotopy,
    psi: Isotopy,
    form: OneForm,
    time_samples: int = 21,
) -> float:
    """Max deviation from the composition rule of flux functions.

    Checks ``F(phi o psi)(t) = F(psi)(t) + F(phi)(t) o psi_t`` over sampled
    times and all grid points, where ``phi o psi`` is the pointwise
    composition ``t -> phi_t o psi_t`` (built slice by slice at the sampled
    times only).
    """
    if phi.steps != psi.steps:
        raise ValueError("isotopies must share a time grid")
    torus = phi.torus
    ks = np.unique(np.linspace(0, phi.steps, time_samples).astype(int))
    worst = 0.0
    pot = form.potential if np.any(form.potential) else None
    pot_interp = PeriodicInterp(torus, pot) if pot is not None else None
    for k in ks:
        t = float(phi.times[k])
        psi_k = GridMap(torus, psi.disp[k])
        composed = GridMap(torus, phi.disp[k]).compose(psi_k, spectral=False)
        lhs = np.tensordot(form.harmonic, composed.disp, axes=(0, 0))
        if pot_interp is not None:
            lhs = lhs + composed.compose_field(pot_interp) - pot
        term_psi = flux_function(form, psi, t)
        pulled = psi_k.compose_field(flux_function(form, phi, t))
        worst = max(worst, float(np.abs(lhs - term_psi - pulled).max()))
    return worst


# ---------------------------------------------------------------------------
# factorization checks
# ---------------------------------------------------------------------------


def factorization1_check(
    form_of_t, isotopy: Isotopy, ts=(0.2, 0.4, 0.6, 0.8, 1.0)
) -> list[tuple[float, float, float, float]]:
    """Integral of the flux function vs the Poincare pairing, per time.

    For a time family of closed forms alpha_t, compares
    ``integral of Flux_fn(alpha_t)(t)`` against
    ``< class(alpha_t), flux of the partial path up to t >``.
    Returns (t, lhs, rhs, |lhs - rhs|) tuples.
    """
    from .torus import integrate

    torus = isotopy.torus
    out = []
    for t in ts:
        form = form_of_t(t)
        lhs = integrate(torus, flux_function(form, isotopy, t))
        partial_pairings = (
            isotopy.disp_at(float(t)).reshape(torus.dim, -1).mean(axis=1)
            * torus.volume_scale
        )
        rhs = poincare_pair(form.harmonic, partial_pairings)
        out.append((float(t), float(lhs), float(rhs), abs(float(lhs) - float(rhs))))
    return out


def _wedge_tuple(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[tuple[int, ...], int] | None:
    """Wedge of two sorted basis index tuples: merged tuple and sign."""
    if set(a) & set(b):
        return None
    merged = a + b
    order = np.argsort(merged, kind="stable")
    perm = list(order)
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, cycle = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            cycle += 1
        if cycle % 2 == 0:
            sign = -sign
    return tuple(sorted(merged)), sign


def _symplectic_pairs(dim: int) -> list[tuple[int, int]]:
    return [(2 * i, 2 * i + 1) for i in range(dim // 2)]


@dataclass(frozen=True)
class Fact2Report:
    """Direct flux pairings vs the wedge-factorized expression on T^4."""

    lhs: np.ndarray
    rhs: np.ndarray
    omega_flux: np.ndarray

    @property
    def residual(self) -> float:
        return float(np.abs(self.lhs - self.rhs).max())


def factorization2_check(isotopy: Isotopy, time_samples: int | None = None) -> Fact2Report:
    """Even-degree wedge factorization of the volume flux on T^4.

    The volume-form flux pairings (mean lifted displacement) are compared
    with the wedge of the degree-2 flux class with the symplectic class.
    The degree-2 flux is computed honestly as the cohomology class of the
    time integral of the pulled-back contraction, using orbit velocities
    from the provenance field and spectral Jacobians.
    """
    torus = isotopy.torus
    if torus.dim != 4 or not torus.symplectic:
        raise ValueError("wedge factorization check requires the symplectic T^4")
    lhs = flux_class(isotopy, check=False).pairings

    ks = (
        np.arange(isotopy.steps + 1)
        if time_samples is None
        else np.unique(np.linspace(0, isotopy.steps, time_samples).astype(int))
    )
    pulled = np.zeros((len(ks), torus.dim) + torus.shape)
    for row, k in enumerate(ks):
        slice_map = GridMap(torus, isotopy.disp[k])
        if isotopy.provenance is not None:
            vel = isotopy.provenance(
                isotopy.times[k], slice_map.image_points()
            ).T.reshape((torus.dim,) + torus.shape)
        else:
            vel = isotopy.velocity_samples(k)  # along the orbit, at start points
        coeffs_at_image = contract_field_to_coeffs(vel)
        pulled[row] = np.einsum(
            "ji...,j...->i...", slice_map.jacobian(), coeffs_at_image
        )
    omega_flux = np.trapezoid(
        pulled.reshape(len(ks), torus.dim, -1).mean(axis=2),
        isotopy.times[ks],
        axis=0,
    )

    pairs = _symplectic_pairs(torus.dim)
    rhs = np.zeros(torus.dim)
    for i in range(torus.dim):
        for j in range(torus.dim):
            for p in pairs:
                w1 = _wedge_tuple((i,), (j,))
                if w1 is None:
                    continue
                w2 = _wedge_tuple(w1[0], p)
                if w2 is None:
                    continue
                if w2[0] == tuple(range(torus.dim)):
                    rhs[i] += omega_flux[j] * w1[1] * w2[1]
    return Fact2Report(lhs, rhs, omega_flux)


# ---------------------------------------------------------------------------
# orbit homology
# ---------------------------------------------------------------------------


def loop_orbit_constancy(
    isotopy: Isotopy,
    form: OneForm,
    sample_points: np.ndarray | None = None,
    loop_tol: float = 1e-6,
) -> tuple[float, float]:
    """Constancy of orbit integrals of a closed form along a loop.

    Requires the time-one map to be the identity.  Returns the predicted
    value ``< class(alpha), flux > / Vol`` and the max deviation of the
    orbit integrals from it over the sample points.
    """
    torus = isotopy.torus
    end = GridMap(torus, isotopy.disp[-1])
    if end.c0_distance() > loop_tol:
        raise ValueError("isotopy is not a loop at the identity")
    fc = flux_class(isotopy, check=False)
    value = poincare_pair(form.harmonic, fc) / torus.volume_scale
    if sample_points is None:
        pts = torus.points[:: max(1, torus.points.shape[0] // 64)]
    else:
        pts = np.atleast_2d(sample_points)
    deviation = 0.0
    for path in np.moveaxis(orbit_of(isotopy, pts).path, 0, 1):
        deviation = max(deviation, abs(line_integral(form, path) - value))
    return float(value), float(deviation)


@dataclass(frozen=True)
class OrbitFluxVerdict:
    """Outcome of the orbit criterion for flux equality."""

    winding_difference: np.ndarray
    contractible: bool
    flux_phi: np.ndarray
    flux_psi: np.ndarray
    tolerance: float

    @property
    def fluxes_equal(self) -> bool:
        return float(np.abs(self.flux_phi - self.flux_psi).max()) <= self.tolerance

    @property
    def consistent(self) -> bool:
        return self.fluxes_equal if self.contractible else True


def flux_equality_via_orbits(
    phi: Isotopy, psi: Isotopy, z0, tol: float | None = None
) -> OrbitFluxVerdict:
    """Equal endpoints + contractible difference cycle => equal fluxes.

    The difference 1-cycle of the two orbits through z0 is contractible on
    the torus iff its winding vector vanishes; in that case the flux classes
    must agree within tolerance.
    """
    torus = phi.torus
    tol = flow_tolerance(torus.grid_res, 10.0) if tol is None else tol
    z0 = np.asarray(z0, dtype=float)
    end_gap = torus_distance(
        GridMap(torus, phi.disp[-1]).apply(z0),
        GridMap(torus, psi.disp[-1]).apply(z0),
    )
    if float(end_gap) > 1e-6:
        raise ValueError("isotopies do not share endpoints at z0")
    # interpolate both lifts so the off-grid evaluation error cancels in
    # the difference
    o_phi = orbit_of(phi, z0, reintegrate=False).displacement
    o_psi = orbit_of(psi, z0, reintegrate=False).displacement
    diff = o_psi - o_phi
    rounded = np.rint(diff)
    if np.abs(diff - rounded).max() > 1e-6:
        raise ValueError("difference cycle winding is not integral")
    winding = rounded.astype(int)
    return OrbitFluxVerdict(
        winding_difference=winding,
        contractible=not np.any(winding),
        flux_phi=flux_class(phi, check=False).pairings,
        flux_psi=flux_class(psi, check=False).pairings,
        tolerance=tol,
    )


@dataclass(frozen=True)
class OrderCycleReport:
    """Finite-order cycle test: winding of the full cycle vs the flux."""

    order: int
    cycle_winding: np.ndarray
    flux: np.ndarray
    relation_residual: float
    tolerance: float

    @property
    def verdict(self) -> bool:
        zero_winding = not np.any(self.cycle_winding)
        zero_flux = float(np.abs(self.flux).max()) <= self.tolerance
        return zero_winding == zero_flux


def order_cycle_test(
    phi: Isotopy, order: int, x=None, tol: float = 1e-6
) -> OrderCycleReport:
    """Flux of a path to a finite-order map from the winding of its cycle.

    If the time-one map has order r, iterating the path r times closes every
    orbit into a cycle; the flux pairings must equal winding / r, and the
    flux vanishes iff the cycle is contractible.
    """
    from .paths import iterate

    torus = phi.torus
    end = GridMap(torus, phi.disp[-1])
    if end.power(order).c0_distance() > tol:
        raise ValueError(f"time-one map is not of order {order} within {tol}")
    x = np.asarray(
        x if x is not None else np.zeros(torus.dim), dtype=float
    )
    loop = iterate(phi, order)
    cycle = orbit_of(loop, x, reintegrate=False)
    winding = cycle.winding(tol=1e-5)
    fc = flux_class(phi, check=False).pairings
    relation = float(np.abs(fc - winding / order).max())
    return OrderCycleReport(order, winding, fc, relation, tol)


@dataclass(frozen=True)
class RigidityReport:
    """Winding audit for the limit loop of a vanishing-flux sequence."""

    hypothesis_ok: bool
    flux_norms: np.ndarray
    distances: np.ndarray
    windings: np.ndarray | None

    @property
    def all_contractible(self) -> bool:
        return self.windings is not None and not np.any(self.windings)


def rigidity_experiment(
    sequence: list[Isotopy],
    limit_loop: Isotopy,
    sample_points: np.ndarray | None = None,
    flux_tol: float = 1e-6,
) -> RigidityReport:
    """Orbits of a uniform limit of vanishing-flux isotopies are contractible.

    Verifies the hypotheses (each member has vanishing flux class, distances
    to the limit decrease to zero) and reports the winding vectors of the
    limit loop's orbits at the sample points; hypothesis failure produces a
    flagged report rather than an error.
    """
    from .flows import c0_distance

    torus = limit_loop.torus
    flux_norms = np.array(
        [flux_class(m, check=False).norm() for m in sequence]
    )
    distances = np.array([c0_distance(m, limit_loop) for m in sequence])
    decreasing = len(sequence) < 2 or distances[-1] <= distances[0] + 1e-12
    hypothesis_ok = bool(np.all(flux_norms <= flux_tol) and decreasing)
    if not hypothesis_ok:
        return RigidityReport(False, flux_norms, distances, None)
    if sample_points is None:
        rng = np.random.default_rng(0)
        sample_points = rng.uniform(size=(16, torus.dim))
    orbits = orbit_of(limit_loop, np.atleast_2d(sample_points))
    windings = np.rint(orbits.displacement).astype(int)
    return RigidityReport(True, flux_norms, distances, windings)


# ---------------------------------------------------------------------------
# lattice and surjectivity helpers
# ---------------------------------------------------------------------------


def flux_lattice(torus: FlatTorus, steps: int = 50) -> np.ndarray:
    """Generators of the loop-flux lattice: one coordinate loop per row."""
    from .families import translation_loop

    rows = []
    for i in range(torus.dim):
        winding = [0] * torus.dim
        winding[i] = 1
        rows.append(flux_class(translation_loop(torus, steps, winding), check=False).pairings)
    return np.stack(rows)


def scaled_to_target(field, form: OneForm, target: float, steps: int) -> Isotopy:
    """Rescale an autonomous field so its flow has prescribed total flux.

    With ``lam = target / integral(alpha(X))`` the flow of ``lam X`` pairs to
    exactly the target; realizes surjectivity of the flux pairing.
    """
    from .flows import TimeField, flow
    from .torus import integrate

    torus = field.torus
    samples = field.sample(0.0)
    pairing = integrate(
        torus, np.einsum("i...,i...->...", form.samples(), samples)
    )
    if abs(pairing) < 1e-12:
        raise ValueError("field pairs to zero; cannot rescale")
    lam = target / pairing

    def evaluator(t: float, points: np.ndarray) -> np.ndarray:
        return lam * field(t, points)

    return flow(TimeField(torus, evaluator, field.kind), steps)
