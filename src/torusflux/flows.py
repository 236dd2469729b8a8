"""Time-dependent vector fields, their flows, and generator extraction.

An :class:`Isotopy` is a time-sampled family of grid diffeomorphisms stored
as lifted displacement fields: ``disp[k, :, i1, ..., id]`` is the real-valued
displacement in R^d of the grid point ``x = (i1, ..., id)/N`` at time
``t_k``, so the lifted orbit of x is ``x + disp[:, :, i1, ..., id]`` and the
torus map is its reduction mod 1.  Tracking lifts keeps orbit winding and all
line integrals of closed forms well defined.

Flows are integrated with the classical 4th-order one-step scheme per grid
point.  Field evaluators must accept arbitrary real coordinates (lifts) and
be 1-periodic in each coordinate.

Sign convention (fixed for the whole package): contraction of a vector field
with the standard symplectic form is ``i(X)(dx ^ dy) = X^1 dy - X^2 dx``, so
per symplectic pair the 1-form coefficients of ``i(X)omega`` are
``(-X^{2i+1}, X^{2i})`` and the Hamiltonian field of H is
``(dH/dy, -dH/dx)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .torus import (
    FlatTorus,
    IntegrationError,
    InversionError,
    PeriodicInterp,
    divergence,
    grad,
    hodge_decompose,
    torus_distance,
)


def flow_tolerance(grid_res: int, scale: float = 1.0) -> float:
    """Default tolerance for flow-coupled checks, ``max(1e-8, C * N^-4)``."""
    return max(1e-8, scale * float(grid_res) ** -4)


# ---------------------------------------------------------------------------
# symplectic index algebra
# ---------------------------------------------------------------------------


def rotate_coeffs_to_field(coeffs: np.ndarray) -> np.ndarray:
    """Solve ``i(X)omega = beta`` pointwise: coefficient vector -> field.

    Acts along the first axis; pairs (2i, 2i+1) map as
    ``X^{2i} = b_{2i+1}``, ``X^{2i+1} = -b_{2i}``.
    """
    beta = np.asarray(coeffs, dtype=float)
    out = np.empty_like(beta)
    out[0::2] = beta[1::2]
    out[1::2] = -beta[0::2]
    return out


def contract_field_to_coeffs(v: np.ndarray) -> np.ndarray:
    """Coefficient vector of ``i(X)omega`` along the first axis."""
    v = np.asarray(v, dtype=float)
    out = np.empty_like(v)
    out[0::2] = -v[1::2]
    out[1::2] = v[0::2]
    return out


# ---------------------------------------------------------------------------
# time-dependent fields
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TimeField:
    """Time-dependent vector field ``(t, points) -> vectors``.

    ``evaluator`` receives points of shape (..., d) (arbitrary lifts) and
    must return vectors of the same shape, 1-periodically.  ``kind`` is one
    of conservative / symplectic / hamiltonian / harmonic / general and is
    validated against grid samples on request.
    """

    torus: FlatTorus
    evaluator: Callable[[float, np.ndarray], np.ndarray]
    kind: str = "general"

    def __call__(self, t: float, points: np.ndarray) -> np.ndarray:
        return self.evaluator(t, points)

    def sample(self, t: float) -> np.ndarray:
        """Grid samples, shape ``(d,) + grid``."""
        vals = self.evaluator(t, self.torus.points)
        return vals.T.reshape((self.torus.dim,) + self.torus.shape)

    def divergence_residual(self, times=(0.0, 0.5, 1.0)) -> float:
        return max(
            float(np.abs(divergence(self.torus, self.sample(t))).max()) for t in times
        )

    def validate(self, tol: float | None = None) -> None:
        tol = flow_tolerance(self.torus.grid_res, 10.0) if tol is None else tol
        if self.kind in ("conservative", "symplectic", "hamiltonian", "harmonic"):
            r = self.divergence_residual()
            if r > tol:
                raise ValueError(f"field tagged {self.kind} has divergence {r:.3e}")
        if self.kind == "harmonic":
            s = self.sample(0.5).reshape(self.torus.dim, -1)
            if float(np.abs(s - s.mean(axis=1, keepdims=True)).max()) > tol:
                raise ValueError("field tagged harmonic is not spatially constant")


def hamiltonian_field(
    torus: FlatTorus, h_of_t: Callable[[float], np.ndarray], kind: str = "hamiltonian"
) -> TimeField:
    """Field with ``i(X)omega = dH_t`` from grid samples of H_t.

    The gradient is spectral; off-grid evaluation is periodic cubic.
    """
    if not torus.symplectic:
        raise ValueError("hamiltonian_field requires a symplectic torus")
    cache: dict[float, PeriodicInterp] = {}

    def evaluator(t: float, points: np.ndarray) -> np.ndarray:
        key = round(float(t), 12)
        interp = cache.get(key)
        if interp is None:
            x_samples = rotate_coeffs_to_field(grad(torus, h_of_t(t)))
            interp = PeriodicInterp(torus, x_samples)
            if len(cache) > 8:
                cache.clear()
            cache[key] = interp
        return interp.at(points)

    return TimeField(torus, evaluator, kind)


def constant_field(torus: FlatTorus, velocity) -> TimeField:
    """Constant translation field."""
    vec = np.asarray(velocity, dtype=float)

    def evaluator(t: float, points: np.ndarray) -> np.ndarray:
        return np.broadcast_to(vec, points.shape).copy()

    return TimeField(torus, evaluator, "harmonic")


# ---------------------------------------------------------------------------
# grid maps (single diffeomorphisms)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridMap:
    """Torus diffeomorphism sampled on the grid as a lifted displacement.

    The image of the grid is ``grid + disp``, read exactly; off-grid points
    go through a periodic cubic spline of ``disp``, built once per map.
    """

    torus: FlatTorus
    disp: np.ndarray  # (d,) + grid

    def __post_init__(self) -> None:
        object.__setattr__(self, "disp", self.torus.check_vector(self.disp))

    @classmethod
    def identity(cls, torus: FlatTorus) -> "GridMap":
        return cls(torus, np.zeros((torus.dim,) + torus.shape))

    @property
    def _interp(self) -> PeriodicInterp:
        cached = self.__dict__.get("_interp_cache")
        if cached is None:
            cached = PeriodicInterp(self.torus, self.disp)
            self.__dict__["_interp_cache"] = cached
        return cached

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Lifted image of points (..., d); equivariant under Z^d shifts."""
        points = np.asarray(points, dtype=float)
        return points + self._interp.at(points)

    def grid_image(self) -> np.ndarray:
        """Lifted image of the grid, shape ``(d,) + grid``."""
        return self.torus.grid + self.disp

    def image_points(self) -> np.ndarray:
        """Lifted image of the grid as a point set, shape ``(N^d, d)``."""
        return self.grid_image().reshape(self.torus.dim, -1).T

    def compose_field(self, samples: np.ndarray | PeriodicInterp) -> np.ndarray:
        """Grid samples of ``f o self`` in the layout of f's samples.

        ``samples`` are grid samples of f, scalar or stacked ``(lead,) +
        grid``, or a :class:`PeriodicInterp` already built from them; f is
        evaluated by cubic spline at the exact grid image.
        """
        if not isinstance(samples, PeriodicInterp):
            samples = PeriodicInterp(self.torus, samples)
        vals = samples.at(self.image_points())  # (N^d,) + lead
        return np.moveaxis(vals, 0, -1).reshape(vals.shape[1:] + self.torus.shape)

    def compose(self, other: "GridMap", spectral: bool = True) -> "GridMap":
        """self after other: ``x -> self(other(x))``.

        The displacement of self is evaluated at the exact grid image of
        other.  The default trigonometric evaluation is free of spline
        error, which would otherwise dominate pullback identities checked at
        1e-5; ``spectral=False`` uses the cached cubic spline of self.
        """
        from .torus import eval_spectral

        if spectral:
            image = other.image_points()
            vals = np.stack(
                [eval_spectral(self.torus, self.disp[j], image)
                 for j in range(self.torus.dim)]
            ).reshape((self.torus.dim,) + self.torus.shape)
        else:
            vals = other.compose_field(self._interp)
        return GridMap(self.torus, other.disp + vals)

    def power(self, k: int) -> "GridMap":
        if k < 0:
            return self.inverse().power(-k)
        out = GridMap.identity(self.torus)
        for _ in range(k):
            out = self.compose(out)
        return out

    def inverse(self, tol: float = 1e-12, maxiter: int = 60,
                initial: np.ndarray | None = None) -> "GridMap":
        """Inverse map by damped Newton iteration.

        Starts from the minimal-lift guess (or a supplied warm start, unless
        the map is a translation) and backtracks when a full step does not reduce the residual.  Raises
        :class:`InversionError` up front when the map folds over (see
        :meth:`check_unfolded`): Newton then still converges, to one of
        several preimages, so a small residual proves nothing.  Also raises
        when the residual stagnates or does not converge.  The spline of
        the Jacobian is built only when a Newton step is taken.
        """
        grid_jac = self.jacobian()
        self.check_unfolded(grid_jac)
        d = self.torus.dim
        y = self.torus.points
        # the minimal-lift guess inverts a translation (Du = 0) exactly, where
        # a warm start would cost a Newton step
        eye = np.eye(d).reshape((d, d) + (1,) * d)
        if initial is None or float(np.abs(grid_jac - eye).max()) <= tol:
            x = y - self._interp.at(y)
        else:
            x = initial.copy()
        jac_interp = None
        step = y - x - self._interp.at(x)
        res = float(np.abs(step).max())
        for _ in range(maxiter):
            if res <= tol:
                break
            if jac_interp is None:
                jac_interp = PeriodicInterp(
                    self.torus, grid_jac.reshape((-1,) + self.torus.shape)
                )
            jac = jac_interp.at(x).reshape(x.shape[0], d, d)
            try:
                delta = np.linalg.solve(jac, step[..., None])[..., 0]
            except np.linalg.LinAlgError as exc:
                raise InversionError(f"singular Jacobian during inversion: {exc}")
            scale = 1.0
            for _ in range(8):
                trial = x + scale * delta
                trial_step = y - trial - self._interp.at(trial)
                trial_res = float(np.abs(trial_step).max())
                if trial_res < res:
                    break
                scale *= 0.5
            else:
                raise InversionError(
                    f"map inversion stagnated (residual {res:.3e})"
                )
            x, step, res = trial, trial_step, trial_res
        else:
            raise InversionError(
                f"map inversion did not converge (residual {res:.3e})"
            )
        disp = (x - y).T.reshape((self.torus.dim,) + self.torus.shape)
        return GridMap(self.torus, disp)

    def check_unfolded(self, jac: np.ndarray | None = None) -> None:
        """Raise :class:`InversionError` unless det D(phi) > 0 on the grid.

        ``jac`` is the grid Jacobian of :meth:`jacobian` when it is already
        at hand.  A map with det D(phi) <= 0 somewhere folds the torus over
        and has no inverse.
        """
        jac = self.jacobian() if jac is None else jac
        worst = float(np.linalg.det(np.moveaxis(jac, (0, 1), (-2, -1))).min())
        if not worst > 0.0:
            raise InversionError(f"map folds over (min det D(phi) = {worst:.3e})")

    def jacobian(self) -> np.ndarray:
        """D(phi) = I + Du, shape ``(d, d) + grid`` (spectral derivatives)."""
        d = self.torus.dim
        out = np.empty((d, d) + self.torus.shape)
        for i in range(d):
            out[i] = grad(self.torus, self.disp[i])
            out[i, i] += 1.0
        return out

    def det_jacobian(self) -> np.ndarray:
        jac = np.moveaxis(self.jacobian(), (0, 1), (-2, -1))
        return np.linalg.det(jac)

    def pullback(self, components: np.ndarray) -> np.ndarray:
        """Pullback of a sampled 1-form: ``(phi^* a)_i = (Da)_ji a_j(phi)``."""
        vals = self.compose_field(self.torus.check_vector(components))
        return np.einsum("ji...,j...->i...", self.jacobian(), vals)

    def c0_distance(self, other: "GridMap | None" = None) -> float:
        """Sup over the grid of the flat distance to another map (default id)."""
        theirs = self.torus.points if other is None else other.image_points()
        return float(torus_distance(self.image_points(), theirs).max())


# ---------------------------------------------------------------------------
# generator pairs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeneratorPair:
    """Hodge split of ``i(velocity)omega`` along a symplectic isotopy.

    ``U[k]`` is the mean-zero function part at time ``times[k]`` and
    ``H[k]`` the harmonic coefficient vector, so
    ``i(X_t)omega = dU_t + sum_i H_t[i] dx_i``.
    """

    times: np.ndarray
    U: np.ndarray  # (K+1,) + grid
    H: np.ndarray  # (K+1, d)

    def __post_init__(self) -> None:
        object.__setattr__(self, "times", np.asarray(self.times, dtype=float))
        object.__setattr__(self, "U", np.asarray(self.U, dtype=float))
        object.__setattr__(self, "H", np.asarray(self.H, dtype=float))


# ---------------------------------------------------------------------------
# time interpolation on a uniform grid
# ---------------------------------------------------------------------------


def _time_weights(times: np.ndarray, t: float) -> tuple[slice, np.ndarray]:
    """4-point Lagrange window and weights for a uniform time grid."""
    k = len(times) - 1
    s = float(t) * k
    i = int(np.clip(np.floor(s), 1, max(k - 2, 1)))
    window = slice(i - 1, i + 3)
    xs = np.arange(i - 1, i + 3, dtype=float)
    w = np.ones(4)
    for a in range(4):
        for b in range(4):
            if a != b:
                w[a] *= (s - xs[b]) / (xs[a] - xs[b])
    return window, w


def interp_time(times: np.ndarray, stack: np.ndarray, t: float) -> np.ndarray:
    """Piecewise-cubic time interpolation of a stacked array (K+1, ...)."""
    if len(times) < 4:
        # linear fallback for very short paths
        s = float(t) * (len(times) - 1)
        i = int(np.clip(np.floor(s), 0, len(times) - 2))
        lam = s - i
        return (1 - lam) * stack[i] + lam * stack[i + 1]
    window, w = _time_weights(times, t)
    return np.tensordot(w, stack[window], axes=(0, 0))


# ---------------------------------------------------------------------------
# isotopies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Isotopy:
    """Time-sampled family of grid diffeomorphisms with lifted displacements.

    Immutable after construction: ``times`` and ``disp`` are read-only
    arrays, so isotopies can be shared.  ``provenance`` optionally keeps the
    generating :class:`TimeField`; ``gen`` optionally carries an exact
    generator trace attached by the constructor (flows, concatenations,
    harmonic paths).  Interpolation is periodic cubic in space and
    piecewise cubic in time.
    """

    torus: FlatTorus
    times: np.ndarray  # (K+1,)
    disp: np.ndarray  # (K+1, d) + grid
    kind: str = "general"
    provenance: TimeField | None = None
    gen: GeneratorPair | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        disp = np.asarray(self.disp, dtype=float)
        if disp.shape != (len(times), self.torus.dim) + self.torus.shape:
            raise ValueError("displacement stack shape mismatch")
        if float(np.abs(disp[0]).max()) != 0.0:
            raise ValueError("an isotopy must start at the identity exactly")
        times.flags.writeable = False
        disp.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "disp", disp)

    @property
    def steps(self) -> int:
        return len(self.times) - 1

    def disp_at(self, t: float) -> np.ndarray:
        """Displacement field at arbitrary time, shape ``(d,) + grid``."""
        if t <= 0.0:
            return self.disp[0]
        if t >= 1.0:
            return self.disp[-1]
        return interp_time(self.times, self.disp, t)

    def map_at(self, t: float) -> GridMap:
        return GridMap(self.torus, self.disp_at(t))

    def time_one(self) -> GridMap:
        return GridMap(self.torus, self.disp[-1])

    def eval_orbit(self, x: np.ndarray) -> np.ndarray:
        """Lifted orbit of one or more points, shape (K+1, ..., d)."""
        x = np.asarray(x, dtype=float)
        out = np.empty((len(self.times),) + x.shape)
        for k in range(len(self.times)):
            out[k] = GridMap(self.torus, self.disp[k]).apply(x)
        return out

    def velocity_samples(self, k: int) -> np.ndarray:
        """d/dt of the lifted displacement at time index k (at start points).

        4th-order centered differences in the interior (the Richardson
        refinement of the plain centered stencil), lower-order one-sided
        stencils near the endpoints.
        """
        dt = self.times[1] - self.times[0]
        u = self.disp
        if 2 <= k <= self.steps - 2:
            return (-u[k + 2] + 8 * u[k + 1] - 8 * u[k - 1] + u[k - 2]) / (12 * dt)
        if k == 0:
            return (-25 * u[0] + 48 * u[1] - 36 * u[2] + 16 * u[3] - 3 * u[4]) / (
                12 * dt
            )
        if k == 1:
            return (-3 * u[0] - 10 * u[1] + 18 * u[2] - 6 * u[3] + u[4]) / (12 * dt)
        if k == self.steps:
            return (25 * u[-1] - 48 * u[-2] + 36 * u[-3] - 16 * u[-4] + 3 * u[-5]) / (
                12 * dt
            )
        return (3 * u[-1] + 10 * u[-2] - 18 * u[-3] + 6 * u[-4] - u[-5]) / (12 * dt)


def flow(x_field: TimeField, steps: int, torus: FlatTorus | None = None) -> Isotopy:
    """Integrate a time-dependent field into an isotopy with lift tracking.

    Classical 4th-order one-step integration of every grid point over K
    uniform steps on [0, 1]; the identity at t = 0 is exact.
    """
    torus = torus or x_field.torus
    if steps < 50:
        raise ValueError(f"steps must be >= 50, got {steps}")
    traj = integrate_trajectories(x_field, torus.points, steps)
    traj -= torus.points  # in place: no second (K+1, N^d, d) array
    stack = np.moveaxis(traj, -1, 1).reshape(
        (steps + 1, torus.dim) + torus.shape
    )
    stack[0] = 0.0
    times = np.linspace(0.0, 1.0, steps + 1)
    return Isotopy(torus, times, stack, kind=x_field.kind, provenance=x_field)


def integrate_trajectories(
    x_field: TimeField, points: np.ndarray, steps: int, t0: float = 0.0, t1: float = 1.0
) -> np.ndarray:
    """RK4 trajectories of a point set, shape (K+1, ..., d), lifted."""
    p = np.array(points, dtype=float)
    out = np.empty((steps + 1,) + p.shape)
    out[0] = p
    dt = (t1 - t0) / steps
    for k in range(steps):
        t = t0 + k * dt
        k1 = x_field(t, p)
        k2 = x_field(t + dt / 2, p + (dt / 2) * k1)
        k3 = x_field(t + dt / 2, p + (dt / 2) * k2)
        k4 = x_field(t + dt, p + dt * k3)
        p = p + (dt / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        if not np.all(np.isfinite(p)):
            raise IntegrationError(f"non-finite flow values at t = {t + dt:.6f}")
        out[k + 1] = p
    return out


# ---------------------------------------------------------------------------
# velocities, generators, inverses
# ---------------------------------------------------------------------------


def velocity(isotopy: Isotopy, t: float, from_data: bool = True) -> np.ndarray:
    """Velocity field on the grid at time t, shape ``(d,) + grid``.

    The samples live at grid positions y (not at start points): with
    ``from_data`` the lifted displacement is differenced in time and composed
    with the inverse map; otherwise the provenance field is sampled.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"time {t} outside [0, 1]")
    if not from_data:
        if isotopy.provenance is None:
            raise ValueError("no provenance field attached")
        return isotopy.provenance.sample(t)
    k = int(round(t * isotopy.steps))
    if abs(t - isotopy.times[k]) > 1e-12:
        raise ValueError("data velocities are available at grid times only")
    w = isotopy.velocity_samples(k)  # at start points
    return isotopy.map_at(isotopy.times[k]).inverse().compose_field(w)


def generator_of(isotopy: Isotopy, from_data: bool = False) -> GeneratorPair:
    """Generator pair (U, H) of a symplectic isotopy.

    Prefers an exact trace attached at construction, then the provenance
    field, then the honest finite-difference route (``from_data`` forces the
    latter).
    """
    torus = isotopy.torus
    if not torus.symplectic:
        raise ValueError("generator extraction requires a symplectic torus")
    if not from_data:
        if isotopy.gen is not None:
            return isotopy.gen
        if isotopy.provenance is not None:
            return _generator_from_field(isotopy)
    k1 = isotopy.steps + 1
    U = np.empty((k1,) + torus.shape)
    H = np.empty((k1, torus.dim))
    for k in range(k1):
        x_samples = velocity(isotopy, isotopy.times[k])
        form = hodge_decompose(torus, contract_field_to_coeffs(x_samples))
        U[k] = form.potential
        # the harmonic part is the start-point mean of the contracted
        # orbit velocity (exact under volume preservation), which avoids
        # the interpolation error of the composed samples
        w = contract_field_to_coeffs(isotopy.velocity_samples(k))
        H[k] = w.reshape(torus.dim, -1).mean(axis=1)
    return GeneratorPair(isotopy.times.copy(), U, H)


def _generator_from_field(isotopy: Isotopy) -> GeneratorPair:
    torus = isotopy.torus
    k1 = isotopy.steps + 1
    U = np.empty((k1,) + torus.shape)
    H = np.empty((k1, torus.dim))
    for k in range(k1):
        x_samples = isotopy.provenance.sample(isotopy.times[k])
        form = hodge_decompose(torus, contract_field_to_coeffs(x_samples))
        U[k] = form.potential
        H[k] = form.harmonic
    return GeneratorPair(isotopy.times.copy(), U, H)


def generator_residual(isotopy: Isotopy, gen: GeneratorPair, nt: int = 5) -> float:
    """Sup of ``i(X_t)omega - dU_t - H_t`` at sampled grid times (data route).

    Samples interior times: the one-sided endpoint stencils are unreliable
    across the flat-to-rise junction of cutoff-reparametrized paths.
    """
    torus = isotopy.torus
    ks = np.unique(np.linspace(2, isotopy.steps - 2, nt).astype(int))
    worst = 0.0
    for k in ks:
        x_samples = velocity(isotopy, isotopy.times[k])
        coeffs = contract_field_to_coeffs(x_samples)
        rec = grad(torus, gen.U[k]) + gen.H[k].reshape((-1,) + (1,) * torus.dim)
        worst = max(worst, float(np.abs(coeffs - rec).max()))
    return worst


def inverse(isotopy: Isotopy) -> Isotopy:
    """The inverse isotopy ``t -> phi_t^{-1}`` with continuous lifts.

    Each slice's Newton inversion is warm-started from the previous slice,
    so the chain follows the path continuously, and raises
    :class:`InversionError` when the slice folds over.  The forward slice's
    spline serves both the Newton solve and the displacement ``-u(pre)`` at
    the preimages.
    """
    torus = isotopy.torus
    stack = np.empty_like(isotopy.disp)
    stack[0] = 0.0
    warm: np.ndarray | None = None
    for k in range(1, isotopy.steps + 1):
        fwd = GridMap(torus, isotopy.disp[k])
        try:
            warm = fwd.inverse(initial=warm).image_points()
        except InversionError as exc:
            raise InversionError(f"time slice {k}: {exc}") from exc
        stack[k] = -fwd._interp.at(warm).T.reshape((torus.dim,) + torus.shape)
    gen = None
    if torus.symplectic and (isotopy.gen is not None or isotopy.provenance is not None):
        gen = inverse_generator(isotopy)
    return Isotopy(torus, isotopy.times.copy(), stack, kind=isotopy.kind, gen=gen)


def inverse_generator(isotopy: Isotopy) -> GeneratorPair:
    """Generator of the inverse path ``t -> phi_t^{-1}`` from the forward one.

    The inverse path is generated by ``(-(U_t o phi_t + <H_t, lift_t>), -H_t)``
    with the function part re-normalized to mean zero.  Only forward maps
    are evaluated, so no slice is inverted when the forward generator is
    exact (an attached trace or a provenance field); otherwise
    :func:`generator_of` falls back to its data route.  Does not check that
    the slices are invertible.
    """
    torus = isotopy.torus
    fwd = generator_of(isotopy)
    U = np.empty((isotopy.steps + 1,) + torus.shape)
    for k, disp in enumerate(isotopy.disp):
        u_vals = GridMap(torus, disp).compose_field(fwd.U[k])
        total = -(u_vals + np.tensordot(fwd.H[k], disp, axes=(0, 0)))
        U[k] = total - total.mean()
    return GeneratorPair(isotopy.times.copy(), U, -fwd.H)


def compose_pointwise(phi: Isotopy, psi: Isotopy) -> Isotopy:
    """Group-law composition ``t -> phi_t o psi_t`` (not a concatenation)."""
    if phi.torus is not psi.torus and phi.torus != psi.torus:
        raise ValueError("isotopies live on different tori")
    if phi.steps != psi.steps:
        raise ValueError("isotopies must share a time grid")
    torus = phi.torus
    stack = np.empty_like(phi.disp)
    stack[0] = 0.0
    for k in range(1, phi.steps + 1):
        stack[k] = GridMap(torus, phi.disp[k]).compose(
            GridMap(torus, psi.disp[k]), spectral=False
        ).disp
    kind = "conservative" if "general" not in (phi.kind, psi.kind) else "general"
    return Isotopy(torus, phi.times.copy(), stack, kind=kind)


def c0_distance(phi: Isotopy, psi: Isotopy | None = None) -> float:
    """Sup over (t, grid x) of the flat-torus distance between the paths.

    ``psi=None`` compares against the constant identity path.  Different
    time grids are resampled onto the finer one.
    """
    if psi is not None and psi.steps > phi.steps:
        phi, psi = psi, phi
    worst = 0.0
    for k, t in enumerate(phi.times):
        other = None
        if psi is not None:
            other = GridMap(
                phi.torus, psi.disp[k] if psi.steps == phi.steps else psi.disp_at(t)
            )
        worst = max(worst, GridMap(phi.torus, phi.disp[k]).c0_distance(other))
    return worst


@dataclass(frozen=True)
class ConservativityReport:
    """Residuals of volume preservation along an isotopy."""

    max_det_residual: float
    max_div_residual: float
    tolerance: float

    @property
    def ok(self) -> bool:
        return max(self.max_det_residual, self.max_div_residual) <= self.tolerance


def verify_conservative(
    isotopy: Isotopy, tol: float | None = None, nt: int = 9
) -> ConservativityReport:
    """Check ``|det D(phi_t) - 1|`` and closedness of ``i(velocity)Omega``.

    On the torus the second residual is the sup of the divergence of the
    velocity field.  Time slices are subsampled for the divergence part when
    no provenance field is attached (the data route needs map inversions).
    """
    torus = isotopy.torus
    tol = flow_tolerance(torus.grid_res, 100.0) if tol is None else tol
    ks = np.unique(np.linspace(0, isotopy.steps, nt).astype(int))
    det_res = 0.0
    for k in ks:
        det = GridMap(torus, isotopy.disp[k]).det_jacobian()
        det_res = max(det_res, float(np.abs(det - 1.0).max()))
    div_res = 0.0
    for k in ks:
        if isotopy.provenance is not None:
            x_samples = isotopy.provenance.sample(isotopy.times[k])
        else:
            x_samples = velocity(isotopy, isotopy.times[k])
        div_res = max(div_res, float(np.abs(divergence(torus, x_samples)).max()))
    return ConservativityReport(det_res, div_res, tol)


# ---------------------------------------------------------------------------
# isotopies from generators and harmonic data
# ---------------------------------------------------------------------------


def harmonic_isotopy(
    torus: FlatTorus, coeffs_of_t: Callable[[float], np.ndarray], steps: int
) -> Isotopy:
    """Translation path generated by a harmonic coefficient family (exact).

    The flow of a spatially constant field is a translation, so the lifted
    displacement is the cumulative time integral of ``rot(H_t)`` computed by
    fine Simpson quadrature rather than RK4.
    """
    times = np.linspace(0.0, 1.0, steps + 1)
    fine = np.linspace(0.0, 1.0, 4 * steps + 1)
    vals = np.stack(
        [rotate_coeffs_to_field(np.asarray(coeffs_of_t(t), dtype=float)) for t in fine]
    )
    shift = np.zeros((steps + 1, torus.dim))
    # composite Simpson over each group of 4 fine intervals = 1 coarse step
    h = fine[1] - fine[0]
    for k in range(steps):
        seg = vals[4 * k : 4 * k + 5]
        shift[k + 1] = shift[k] + (h / 3) * (
            seg[0] + 4 * seg[1] + 2 * seg[2] + 4 * seg[3] + seg[4]
        )
    stack = np.zeros((steps + 1, torus.dim) + torus.shape)
    stack += shift.reshape((steps + 1, torus.dim) + (1,) * torus.dim)
    stack[0] = 0.0
    gen = None
    if torus.symplectic:
        coeff_trace = np.stack([np.asarray(coeffs_of_t(t), dtype=float) for t in times])
        gen = GeneratorPair(times, np.zeros((steps + 1,) + torus.shape), coeff_trace)
    return Isotopy(torus, times, stack, kind="harmonic", gen=gen)


def identity_isotopy(torus: FlatTorus, steps: int = 50) -> Isotopy:
    times = np.linspace(0.0, 1.0, steps + 1)
    stack = np.zeros((steps + 1, torus.dim) + torus.shape)
    gen = None
    if torus.symplectic:
        gen = GeneratorPair(
            times, np.zeros((steps + 1,) + torus.shape), np.zeros((steps + 1, torus.dim))
        )
    return Isotopy(torus, times, stack, kind="harmonic", gen=gen)
