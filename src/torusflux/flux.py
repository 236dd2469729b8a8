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

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .families import translation_loop
from .flows import (
    GridMap,
    Isotopy,
    PathEnd,
    PeriodicInterp,
    TimeField,
    c0_distance,
    contract_field_to_coeffs,
    flow_end,
    flow_slices,
    flow_tolerance,
    integrate_trajectories,
)
from .torus import (
    FlatTorus,
    FluxClass,
    OneForm,
    eval_spectral,  # noqa: F401  (perfbench/test_perfbench.py checks this binding)
    grad,
    integrate,
    line_integral,
    poincare_pair,
    torus_distance,
)

if TYPE_CHECKING:
    from .paths import ConcatTrace


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
        return winding(self.displacement, tol)


def winding(delta: np.ndarray, tol: float) -> np.ndarray:
    """The integers ``delta`` rounds to: the winding of a closed lifted cycle.

    Raises unless every entry is within ``tol`` of an integer, i.e. unless
    the cycle closes on the torus.
    """
    rounded = np.rint(delta)
    if np.abs(delta - rounded).max() > tol:
        raise ValueError(f"cycle is not closed: lift displacement {delta} is not integral")
    return rounded.astype(int)


def orbit_of(isotopy: Isotopy, x) -> Orbit:
    """Orbits of a point or a point batch (..., d).

    The provenance field, if any, is re-integrated, which gives RK4-accurate
    off-grid orbits; otherwise the lifted displacement field is
    interpolated.
    """
    x = np.asarray(x, dtype=float)
    pts = x.reshape(-1, isotopy.torus.dim)
    if isotopy.provenance is not None:
        traj = integrate_trajectories(isotopy.provenance, pts, isotopy.steps)
    else:
        traj = isotopy.eval_orbit(pts)
    return Orbit(x, isotopy.times.copy(), traj.reshape(traj.shape[:1] + x.shape))


def orbit_displacement(isotopy: Isotopy | PathEnd | ConcatTrace, x) -> np.ndarray:
    """Lifted displacement ``orbit_of(isotopy, x).displacement`` of its endpoints.

    Bitwise the orbit's, without the orbit: with a provenance field only
    the first and last of the same K RK4 steps are stored; otherwise the
    time-one map is applied, as slice 0 is the exact identity.  So a path
    read at its ends (a :class:`~torusflux.flows.PathEnd` or a
    :class:`~torusflux.paths.ConcatTrace`) serves as well as a stored one.
    """
    x = np.asarray(x, dtype=float)
    if isotopy.provenance is not None:
        pts = x.reshape(-1, isotopy.torus.dim)
        ends = integrate_trajectories(
            isotopy.provenance, pts, isotopy.steps, keep=[0, isotopy.steps])
        return (ends[1] - ends[0]).reshape(x.shape)
    return isotopy.time_one().apply(x) - x


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
    potential = form.potential if np.any(form.potential) else None
    return _flux_of_map(form, isotopy.map_at(t), potential)


def _flux_of_map(form: OneForm, g: GridMap, potential) -> np.ndarray:
    """``c . lift(g) + F o g - F`` for the closed form ``c . dx + dF``.

    ``potential`` is what ``g.compose_field`` reads for F (its samples or
    their spline), or None when F vanishes.
    """
    out = np.tensordot(form.harmonic, g.disp, axes=(0, 0))
    if potential is not None:
        out = out + g.compose_field(potential) - form.potential
    return out


def pullback_difference(psi: GridMap, form: OneForm) -> np.ndarray:
    """Componentwise samples of ``psi^* alpha - alpha``."""
    comps = form.samples()
    return psi.pullback(comps) - comps


def flux_pde_residual(form: OneForm, isotopy: Isotopy, t: float) -> float:
    """Sup residual of ``d(flux function) = phi_t^* alpha - alpha`` at time t."""
    lhs = grad(isotopy.torus, flux_function(form, isotopy, t))
    rhs = pullback_difference(isotopy.map_at(t), form)
    return float(np.abs(lhs - rhs).max())


def flux_class(isotopy: Isotopy | PathEnd | ConcatTrace) -> FluxClass:
    """Flux class of a conservative isotopy: pairings with the [dx_i] basis.

    Entry i integrates the time-one flux function of dx_i, i.e. the grid
    mean of the lifted displacement ``last`` (``disp[-1]`` of a stored
    path), read in its own layout.  Conservativity is not checked here;
    :func:`~torusflux.flows.verify_conservative` measures it.
    """
    return _flux_class_at(isotopy.torus, isotopy.last)


def _flux_class_at(torus: FlatTorus, time_one: np.ndarray) -> FluxClass:
    """Flux class from the lifted time-one displacement ``(d,) + grid``."""
    return FluxClass(time_one.reshape(torus.dim, -1).mean(axis=1))


# ---------------------------------------------------------------------------
# cocycle identity
# ---------------------------------------------------------------------------


def cocycle_residual(phi: Isotopy, psi: Isotopy, form: OneForm) -> float:
    """Max deviation from the composition rule of flux functions.

    Checks ``F(phi o psi)(t) = F(psi)(t) + F(phi)(t) o psi_t`` over 21
    sampled times and all grid points, where ``phi o psi`` is the pointwise
    composition ``t -> phi_t o psi_t`` (built slice by slice at the sampled
    times only).
    """
    if phi.steps != psi.steps:
        raise ValueError("isotopies must share a time grid")
    torus = phi.torus
    ks = np.unique(np.linspace(0, phi.steps, 21).astype(int))
    worst = 0.0
    pot_interp = PeriodicInterp(torus, form.potential) if np.any(form.potential) else None
    for k in ks:
        t = float(phi.times[k])
        psi_k = GridMap(torus, psi.disp[k])
        composed = GridMap(torus, phi.disp[k]).compose(psi_k, spectral=False)
        lhs = _flux_of_map(form, composed, pot_interp)
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
    torus = isotopy.torus
    out = []
    for t in ts:
        form = form_of_t(t)
        lhs = integrate(torus, flux_function(form, isotopy, t))
        rhs = poincare_pair(form.harmonic, _flux_class_at(torus, isotopy.disp_at(float(t))))
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


def factorization2_check(
    x_field: TimeField, steps: int, time_samples: int | None = None
) -> Fact2Report:
    """Even-degree wedge factorization of the volume flux on T^4.

    The volume-form flux pairings (mean lifted displacement) of the flow of
    ``x_field`` over ``steps`` RK4 steps are compared with the wedge of the
    degree-2 flux class with the symplectic class.  The degree-2 flux is
    computed honestly as the cohomology class of the time integral of the
    pulled-back contraction, using orbit velocities from the field and
    spectral Jacobians, at ``time_samples`` indices of the K-step grid (all
    by default).  Each sampled slice is read once, as the flow reaches it
    (:func:`~torusflux.flows.flow_slices`), so no T^4 stack is held; the
    last one is the time-one map.
    """
    torus = x_field.torus
    if torus.dim != 4 or not torus.symplectic:
        raise ValueError("wedge factorization check requires the symplectic T^4")
    ks = (
        np.arange(steps + 1)
        if time_samples is None
        else np.unique(np.linspace(0, steps, time_samples).astype(int))
    )
    times = np.linspace(0.0, 1.0, steps + 1)[ks]
    means = np.empty((len(ks), torus.dim))
    for row, disp in enumerate(flow_slices(x_field, steps, ks)):
        slice_map = GridMap(torus, disp)
        vel = x_field(times[row], slice_map.image_points())
        vel = vel.T.reshape((torus.dim,) + torus.shape)
        pulled = np.einsum(
            "ji...,j...->i...", slice_map.jacobian(), contract_field_to_coeffs(vel)
        )
        means[row] = pulled.reshape(torus.dim, -1).mean(axis=1)
    lhs = _flux_class_at(torus, disp).pairings  # the last slice: the time-one map
    omega_flux = np.trapezoid(means, times, axis=0)

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
    isotopy: Isotopy, form: OneForm, sample_points: np.ndarray | None = None
) -> tuple[float, float]:
    """Constancy of orbit integrals of a closed form along a loop.

    Requires the time-one map to be the identity (within 1e-6).  Returns the
    predicted value ``< class(alpha), flux >`` and the max deviation of the
    orbit integrals from it over the sample points.
    """
    torus = isotopy.torus
    end = GridMap(torus, isotopy.disp[-1])
    if end.c0_distance() > 1e-6:
        raise ValueError("isotopy is not a loop at the identity")
    fc = flux_class(isotopy)
    value = poincare_pair(form.harmonic, fc)
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


def flux_equality_via_orbits(phi: Isotopy | ConcatTrace, psi: Isotopy | ConcatTrace,
                             z0) -> OrbitFluxVerdict:
    """Equal endpoints + contractible difference cycle => equal fluxes.

    The difference 1-cycle of the two orbits through z0 is contractible on
    the torus iff its winding vector vanishes; in that case the flux classes
    must agree within tolerance.  An orbit's lifted displacement is its
    time-one image minus z0, so the winding is read from the two lifted
    time-one images alone; both are interpolated, so the off-grid
    evaluation error cancels in the difference.  The flux classes are read
    from the time-one slices too (:func:`flux_class`), so either path may
    be a :func:`~torusflux.paths.concat_trace` replay.
    """
    torus = phi.torus
    z0 = np.asarray(z0, dtype=float)
    end_phi = phi.time_one().apply(z0)
    end_psi = psi.time_one().apply(z0)
    if float(torus_distance(end_phi, end_psi)) > 1e-6:
        raise ValueError("isotopies do not share endpoints at z0")
    cycle = winding((end_psi - z0) - (end_phi - z0), 1e-6)
    return OrbitFluxVerdict(
        winding_difference=cycle,
        contractible=not np.any(cycle),
        flux_phi=flux_class(phi).pairings,
        flux_psi=flux_class(psi).pairings,
        tolerance=flow_tolerance(torus.grid_res, 10.0),
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


def order_cycle_test(phi: Isotopy, order: int) -> OrderCycleReport:
    """Flux of a path to a finite-order map from the winding of its cycle.

    If the time-one map has order r, iterating the path r times closes every
    orbit into a cycle; the flux pairings must equal winding / r, and the
    flux vanishes iff the cycle is contractible.  The cycle is the orbit of
    the origin, whose lifted end is the time-one map applied r times to the
    origin, so the iterated path is never built.
    """
    torus = phi.torus
    end = GridMap(torus, phi.disp[-1])
    if end.power(order).c0_distance() > 1e-6:
        raise ValueError(f"time-one map is not of order {order} within 1e-06")
    origin = np.zeros(torus.dim)
    lifted = origin
    for _ in range(order):
        lifted = end.apply(lifted)
    cycle = winding(lifted - origin, 1e-5)
    fc = flux_class(phi).pairings
    relation = float(np.abs(fc - cycle / order).max())
    return OrderCycleReport(order, cycle, fc, relation, 1e-6)


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
    sequence: Iterable[Isotopy],
    limit_loop: Isotopy,
    sample_points: np.ndarray | None = None,
) -> RigidityReport:
    """Orbits of a uniform limit of vanishing-flux isotopies are contractible.

    Verifies the hypotheses (each member has vanishing flux class, distances
    to the limit decrease to zero) and reports the winding vectors of the
    limit loop's orbits at the sample points; hypothesis failure produces a
    flagged report rather than an error.  A limit path whose sampled orbits
    do not close (not a loop) raises.  The sequence is read in one pass, so
    it may be a generator that builds one member at a time; a member is
    released before the next one is built.
    """
    torus = limit_loop.torus
    # map, not a comprehension: its loop variable would keep member i alive
    # while the sequence builds member i + 1
    measured = list(map(
        lambda m: (flux_class(m).norm(), c0_distance(m, limit_loop)), sequence))
    flux_norms = np.array([norm for norm, _ in measured])
    distances = np.array([dist for _, dist in measured])
    decreasing = len(measured) < 2 or distances[-1] <= distances[0] + 1e-12
    hypothesis_ok = bool(np.all(flux_norms <= 1e-6) and decreasing)
    if not hypothesis_ok:
        return RigidityReport(False, flux_norms, distances, None)
    if sample_points is None:
        rng = np.random.default_rng(0)
        sample_points = rng.uniform(size=(16, torus.dim))
    windings = orbit_of(limit_loop, np.atleast_2d(sample_points)).winding()
    return RigidityReport(True, flux_norms, distances, windings)


# ---------------------------------------------------------------------------
# lattice and surjectivity helpers
# ---------------------------------------------------------------------------


def flux_lattice(torus: FlatTorus, steps: int = 50) -> np.ndarray:
    """Generators of the loop-flux lattice: one coordinate loop per row."""
    return np.stack([flux_class(translation_loop(torus, steps, unit)).pairings
                     for unit in np.eye(torus.dim)])


def scaled_to_target(field, form: OneForm, target: float, steps: int) -> PathEnd:
    """Rescale an autonomous field so its flow has prescribed total flux.

    With ``lam = target / integral(alpha(X))`` the flow of ``lam X`` pairs to
    exactly the target; realizes surjectivity of the flux pairing.  The flow
    is kept at its ends (:func:`~torusflux.flows.flow_end`), which is all
    its flux class reads.
    """
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

    return flow_end(TimeField(torus, evaluator, field.kind), steps)
