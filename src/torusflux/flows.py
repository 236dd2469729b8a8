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

import functools
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


def is_repeat(new: np.ndarray, previous: np.ndarray | None) -> bool:
    """True when ``new`` holds the bits of ``previous`` and no NaN.

    Time-slice loops use it to reuse the previous slice's result: a result
    computed from ``previous`` is then bitwise the one ``new`` would give.
    The data are compared as raw bytes, so signed zeros are told apart; a
    NaN is never a repeat, as it never compares equal.
    """
    return (
        previous is not None
        and new.shape == previous.shape
        and new.tobytes() == previous.tobytes()
        and not np.isnan(previous).any()
    )


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
    validated against grid samples by :meth:`validate`.  A ``harmonic`` field
    is spatially constant at every time (it may vary in time): :func:`flow`
    relies on this, validates such a field and integrates only the orbit of
    the origin.
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

    def divergence_residual(self) -> float:
        """Largest |div X| over the grid samples at t = 0, 1/2 and 1 (NaN kept)."""
        return float(np.max([np.abs(divergence(self.torus, self.sample(t))).max()
                             for t in (0.0, 0.5, 1.0)]))

    def validate(self) -> None:
        """Check the kind tag on grid samples at t = 0, 1/2 and 1.

        A ``harmonic`` field must be spatially constant at each of them (a
        constant field has no divergence); the other divergence-free kinds
        must have divergence within tolerance.  A non-finite sample fails
        either test.
        """
        tol = flow_tolerance(self.torus.grid_res, 10.0)
        if self.kind == "harmonic":
            for t in (0.0, 0.5, 1.0):
                s = self.sample(t).reshape(self.torus.dim, -1)
                if not float(np.abs(s - s.mean(axis=1, keepdims=True)).max()) <= tol:
                    raise ValueError("field tagged harmonic is not spatially constant")
        elif self.kind in ("conservative", "symplectic", "hamiltonian"):
            r = self.divergence_residual()
            if not r <= tol:
                raise ValueError(f"field tagged {self.kind} has divergence {r:.3e}")


def constant_field(torus: FlatTorus, velocity) -> TimeField:
    """Constant translation field."""
    vec = np.asarray(velocity, dtype=float)

    def evaluator(t: float, points: np.ndarray) -> np.ndarray:
        return np.broadcast_to(vec, points.shape).copy()

    return TimeField(torus, evaluator, "harmonic")


# ---------------------------------------------------------------------------
# grid maps (single diffeomorphisms)
# ---------------------------------------------------------------------------


def _grid_det(jac: np.ndarray) -> np.ndarray:
    """Pointwise determinant of a grid Jacobian ``(d, d) + grid``.

    In closed form on T^2, where LAPACK would factor one 2x2 matrix per grid
    point; by :func:`numpy.linalg.det` in higher dimensions.
    """
    if jac.shape[0] == 2:
        return jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0]
    return np.linalg.det(np.moveaxis(jac, (0, 1), (-2, -1)))


@dataclass(frozen=True)
class GridMap:
    """Torus diffeomorphism sampled on the grid as a lifted displacement.

    The image of the grid is ``grid + disp``, read exactly; off-grid points
    go through a periodic cubic spline of ``disp``, built once per map.  A
    map whose displacement is the same vector at every grid point (bit for
    bit) is a translation: it is applied, composed as the outer map and
    inverted exactly, with no spline, Jacobian or Newton step.  A ``disp``
    with a zero stride (a slice of a :func:`translation_stack`) is copied
    into a dense array: a ufunc's output takes the layout of its
    non-broadcast operand, and a grid mean in another layout rounds differently.
    """

    torus: FlatTorus
    disp: np.ndarray  # (d,) + grid

    def __post_init__(self) -> None:
        disp = self.torus.check_vector(self.disp)
        if 0 in disp.strides:
            disp = disp.copy()
        object.__setattr__(self, "disp", disp)

    @classmethod
    def identity(cls, torus: FlatTorus) -> "GridMap":
        return cls(torus, np.zeros((torus.dim,) + torus.shape))

    @property
    def _shift(self) -> np.ndarray | None:
        """The displacement vector when every grid point has the same one."""
        if "_shift_cache" not in self.__dict__:
            flat = self.disp.reshape(self.torus.dim, -1)
            first = flat[:, :1]
            same = is_repeat(flat, np.broadcast_to(first, flat.shape))
            self.__dict__["_shift_cache"] = first[:, 0].copy() if same else None
        return self.__dict__["_shift_cache"]

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
        if self._shift is not None:
            return points + self._shift
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
        evaluated by cubic spline at the exact grid image.  Samples with no
        nonzero entry give +0.0 zeros without a spline, the value the cubic
        spline of the zero function takes everywhere.
        """
        if not isinstance(samples, PeriodicInterp):
            samples = np.asarray(samples, dtype=float)
            lead = samples.shape[: samples.ndim - self.torus.dim]
            if samples.shape == lead + self.torus.shape and not samples.any():
                return np.zeros(samples.shape)
            samples = PeriodicInterp(self.torus, samples)
        vals = samples.at(self.image_points())  # (N^d,) + lead
        return np.moveaxis(vals, 0, -1).reshape(vals.shape[1:] + self.torus.shape)

    def compose(self, other: "GridMap", spectral: bool = True) -> "GridMap":
        """self after other: ``x -> self(other(x))``.

        The displacement of self is evaluated at the exact grid image of
        other.  The default trigonometric evaluation is free of spline
        error, which would otherwise dominate pullback identities checked at
        1e-5; ``spectral=False`` uses the cached cubic spline of self.  A
        translation self adds its vector to other's displacement.
        """
        from .torus import eval_spectral

        shift = self._shift
        if shift is not None:
            vals = shift.reshape((-1,) + (1,) * self.torus.dim)
        elif spectral:
            vals = eval_spectral(self.torus, self.disp, other.image_points())
            vals = vals.T.reshape((self.torus.dim,) + self.torus.shape)
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

    def inverse(self, initial: np.ndarray | None = None) -> "GridMap":
        """Inverse map by damped Newton iteration.

        A translation is inverted exactly, by negating its displacement.
        Otherwise starts from the minimal-lift guess (or a supplied warm
        start) and backtracks when a full step does not reduce the residual.
        Raises :class:`InversionError` up front when the map folds over (see
        :meth:`check_unfolded`): Newton then still converges, to one of
        several preimages, so a small residual proves nothing.  Also raises
        when the residual stagnates or is still above 1e-12 after 60
        iterations.  The spline of the Jacobian is built only when a Newton
        step is taken.
        """
        if self._shift is not None:
            return GridMap(self.torus, -self.disp)
        grid_jac = self.jacobian()
        self.check_unfolded(grid_jac)
        d = self.torus.dim
        y = self.torus.points
        x = y - self._interp.at(y) if initial is None else initial.copy()
        jac_interp = None
        step = y - x - self._interp.at(x)
        res = float(np.abs(step).max())
        for _ in range(60):
            if res <= 1e-12:
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
        worst = float(_grid_det(jac).min())
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
        return _grid_det(self.jacobian())

    def pullback(self, components: np.ndarray) -> np.ndarray:
        """Pullback of a sampled 1-form: ``(phi^* a)_i = (Da)_ji a_j(phi)``."""
        return self.pull_coeffs(self.compose_field(self.torus.check_vector(components)))

    def pull_coeffs(self, vals: np.ndarray) -> np.ndarray:
        """``sum_j D(phi)[j, i] vals[j]``, shape ``(d,) + grid``.

        One Jacobian row j at a time, summed as the einsum
        ``"ji...,j...->i..."`` sums, bit for bit (from +0.0, j ascending),
        so no ``(d, d) + grid`` Jacobian is held.
        """
        out = None
        for j in range(self.torus.dim):
            term = grad(self.torus, self.disp[j])
            term[j] += 1.0
            term *= vals[j]
            if out is None:
                out = term
                out += 0.0  # the sum starts from +0.0: a -0.0 product reads +0.0
            else:
                out += term
            del term  # not held while the next row's gradient is computed
        return out

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

    @classmethod
    def from_slices(cls, times: np.ndarray, torus: FlatTorus, pairs) -> "GeneratorPair":
        """The trace on ``times`` that the slices ``(U_k, H_k)`` make up."""
        U = np.empty((len(times),) + torus.shape)
        H = np.empty((len(times), torus.dim))
        for k, (u, h) in enumerate(pairs):
            U[k] = u
            H[k] = h
        return cls(times.copy(), U, H)


# ---------------------------------------------------------------------------
# time interpolation on a uniform grid
# ---------------------------------------------------------------------------


def _time_weights(times: np.ndarray, t: float) -> tuple[slice, np.ndarray]:
    """4-point Lagrange window and weights for a uniform time grid.

    A grid of fewer than 4 slices gets the 2-point linear window instead.
    """
    k = len(times) - 1
    s = float(t) * k
    if k < 3:
        i = int(np.clip(np.floor(s), 0, k - 1))
        return slice(i, i + 2), np.array([1.0 - (s - i), s - i])
    i = int(np.clip(np.floor(s), 1, k - 2))
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
    window, w = _time_weights(times, t)
    return np.tensordot(w, stack[window], axes=(0, 0))


class TimeWindow:
    """:func:`interp_time` of a stack that is streamed instead of stored.

    ``slices`` yields the stack's slices on ``times`` in order, each an
    array or a tuple of arrays (a generator's ``(u_k, h_k)``), as a stored
    path's or a replay's ``slices()`` and ``generator()`` do.  :meth:`at`
    reads the stream only as far as the window of its time, holds no slice
    before that window (at most 4 slices) and returns what
    :func:`interp_time` gives of the stored stack, of each part for tuples,
    bit for bit.  The windows must therefore come in nondecreasing order:
    a time whose window starts at a dropped slice raises ValueError.
    :meth:`disp_at` reads a displacement stream as :meth:`Isotopy.disp_at`
    reads the stored stack.
    """

    def __init__(self, times: np.ndarray, slices):
        self.times = times
        self._slices = iter(slices)
        self._held: list = []
        self._start = 0  # the time index of _held[0]

    def _window(self, start: int, stop: int) -> list:
        if start < self._start:
            raise ValueError(f"time slice {start} was dropped: the window is at {self._start}")
        for _ in range(start - self._start):
            if not self._held:
                self._held.append(next(self._slices))
            self._held.pop(0)
        self._start = start
        while len(self._held) < stop - start:
            self._held.append(next(self._slices))
        return self._held[: stop - start]

    def at(self, t: float):
        window, w = _time_weights(self.times, t)
        held = self._window(window.start, window.stop)
        if isinstance(held[0], tuple):
            return tuple(np.tensordot(w, np.stack(part), axes=(0, 0)) for part in zip(*held))
        return np.tensordot(w, np.stack(held), axes=(0, 0))

    def disp_at(self, t: float, last: np.ndarray) -> np.ndarray:
        """:meth:`at`, with the first slice for t <= 0 and ``last`` for t >= 1."""
        if t <= 0.0:
            return self._window(0, 1)[0]
        if t >= 1.0:
            return last
        return self.at(t)


# ---------------------------------------------------------------------------
# isotopies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Isotopy:
    """Time-sampled family of grid diffeomorphisms with lifted displacements.

    Immutable after construction: ``times`` and ``disp`` are read-only
    arrays, so isotopies can be shared.  ``provenance`` optionally keeps the
    generating :class:`TimeField`; ``gen`` optionally carries an exact
    generator trace attached by the constructor (concatenations, harmonic
    paths), or a function of other paths that computes it, which
    :func:`generator_of` replaces by its result when it first reads it
    (:func:`inverse`).  Interpolation is periodic cubic in space and
    piecewise cubic in time.
    """

    torus: FlatTorus
    times: np.ndarray  # (K+1,)
    disp: np.ndarray  # (K+1, d) + grid
    kind: str = "general"
    provenance: TimeField | None = None
    gen: GeneratorPair | Callable[[], GeneratorPair] | None = field(
        default=None, repr=False)

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

    @property
    def last(self) -> np.ndarray:
        """The time-one slice ``disp[-1]``, in the stack's layout."""
        return self.disp[-1]

    def ends(self) -> "PathEnd":
        """The path kept at its ends, holding no view of the stack.

        The time-one slice is copied in its own layout, so the stack can be
        released; a translation's zero-stride slice views only the shift and
        is kept as it is.
        """
        last = self.disp[-1]
        if 0 not in last.strides:
            last = last.copy(order="K")
        return PathEnd(self.torus, self.steps, self.provenance, last)

    def time_one(self) -> GridMap:
        return GridMap(self.torus, self.disp[-1])

    def slices(self):
        """Yield the stored displacement slices, as a replayed path does."""
        return iter(self.disp)

    def generator(self):
        """Yield the slices ``(u_k, h_k)`` of :func:`generator_of`'s pair."""
        gen = generator_of(self)
        return zip(gen.U, gen.H)

    def eval_orbit(self, x: np.ndarray) -> np.ndarray:
        """Lifted orbit of one or more points, shape (K+1, ..., d)."""
        x = np.asarray(x, dtype=float)
        out = np.empty((len(self.times),) + x.shape)
        for k in range(len(self.times)):
            out[k] = GridMap(self.torus, self.disp[k]).apply(x)
        return out

    def velocity_samples(self, k: int) -> np.ndarray:
        """d/dt of the lifted displacement at time index k (at start points)."""
        return velocity_stencil(self.disp.__getitem__, k, self.times)


def velocity_stencil(u: Callable[[int], np.ndarray], k: int, times: np.ndarray) -> np.ndarray:
    """d/dt at time index k of the slices ``u(j)`` on the uniform grid ``times``.

    4th-order centered differences in the interior (the Richardson
    refinement of the plain centered stencil), lower-order one-sided
    stencils near the endpoints; ``u`` takes negative indices as a stack
    does, and is called only for the five slices the stencil reads.
    """
    dt = times[1] - times[0]
    steps = len(times) - 1
    if 2 <= k <= steps - 2:
        return (-u(k + 2) + 8 * u(k + 1) - 8 * u(k - 1) + u(k - 2)) / (12 * dt)
    if k == 0:
        return (-25 * u(0) + 48 * u(1) - 36 * u(2) + 16 * u(3) - 3 * u(4)) / (
            12 * dt
        )
    if k == 1:
        return (-3 * u(0) - 10 * u(1) + 18 * u(2) - 6 * u(3) + u(4)) / (12 * dt)
    if k == steps:
        return (25 * u(-1) - 48 * u(-2) + 36 * u(-3) - 16 * u(-4) + 3 * u(-5)) / (
            12 * dt
        )
    return (3 * u(-1) + 10 * u(-2) - 18 * u(-3) + 6 * u(-4) - u(-5)) / (12 * dt)


def flow(x_field: TimeField, steps: int) -> Isotopy:
    """Integrate a time-dependent field into an isotopy with lift tracking.

    Classical 4th-order one-step integration of every grid point over K
    uniform steps on [0, 1]; the identity at t = 0 is exact (``p - p``, or
    the origin's zero shift).  The field's kind tag is validated first
    (:meth:`TimeField.validate`).  A field of kind ``harmonic`` is
    spatially constant, so its flow is a translation: the orbit of the
    origin is integrated once and its lifted shift broadcast to the grid
    (:func:`translation_stack`).

    The stack is a view of the ``(K+1, N^d, d)`` trajectory, with strides
    ``(N^d d 8, 8, N d 8, d 8)``, so it is not C-contiguous.  Grid means
    round differently in another layout, so a slice that stands for a
    stored one (:func:`flow_slices`, :func:`flow_end`, a replay) keeps
    this layout.
    """
    torus = x_field.torus
    _check_flow(x_field, steps)
    if x_field.kind == "harmonic":
        shift = integrate_trajectories(x_field, np.zeros((1, torus.dim)), steps)
        stack = translation_stack(torus, shift[:, 0])
    else:
        traj = integrate_trajectories(x_field, torus.points, steps)
        traj -= torus.points  # in place: no second (K+1, N^d, d) array
        stack = np.moveaxis(traj, -1, 1).reshape((steps + 1, torus.dim) + torus.shape)
    times = np.linspace(0.0, 1.0, steps + 1)
    return Isotopy(torus, times, stack, kind=x_field.kind, provenance=x_field)


def _check_flow(x_field: TimeField, steps: int) -> None:
    if steps < 50:
        raise ValueError(f"steps must be >= 50, got {steps}")
    x_field.validate()


def flow_slices(x_field: TimeField, steps: int, keep: np.ndarray):
    """Yield the flow's lifted displacement slices at the step indices ``keep``.

    ``keep`` holds increasing indices of the uniform K-step grid.  Each
    slice, shape ``(d,) + grid``, is yielded as soon as RK4 reaches it and
    is bitwise the slice :func:`flow` stores; no stack is held.  A
    ``harmonic`` field's slices are read-only broadcasts of the origin's
    shift, as in :func:`flow`.
    """
    torus = x_field.torus
    _check_flow(x_field, steps)
    if x_field.kind == "harmonic":
        for shift in trajectory_slices(x_field, np.zeros((1, torus.dim)), steps, keep):
            yield translation_stack(torus, shift)[0]
        return
    for p in trajectory_slices(x_field, torus.points, steps, keep):
        disp = (p - torus.points).T.reshape((torus.dim,) + torus.shape)
        del p  # RK4 moves on from p: holding it would keep a second position array
        yield disp


@dataclass(frozen=True)
class PathEnd:
    """A path kept at its ends only: its time-one slice, no stack.

    ``last`` is the lifted time-one displacement ``(d,) + grid`` in the
    layout of the stored path's ``disp[-1]``, and ``provenance`` the field
    that generates the path (None when there is none).  It answers what
    :func:`~torusflux.flux.flux_class`,
    :func:`~torusflux.flux.orbit_displacement` and ``time_one()`` read of
    an :class:`Isotopy`, bit for bit.  Made by :func:`flow_end` or
    :meth:`Isotopy.ends`; :func:`~torusflux.displacement.iteration_law_residual`
    makes one of a cold ``GridMap.inverse``, which is :func:`inverse`'s
    last slice to Newton's residual.
    """

    torus: FlatTorus
    steps: int
    provenance: TimeField | None
    last: np.ndarray

    def time_one(self) -> GridMap:
        return GridMap(self.torus, self.last)


def flow_end(x_field: TimeField, steps: int) -> PathEnd:
    """The ends of ``flow(x_field, steps)``: the same K RK4 steps, one slice kept."""
    (last,) = flow_slices(x_field, steps, [steps])
    return PathEnd(x_field.torus, steps, x_field, last)


def trajectory_slices(
    x_field: TimeField, points: np.ndarray, steps: int, keep: np.ndarray | None,
):
    """Yield the lifted RK4 positions of a point set at the kept step indices.

    ``keep`` holds increasing indices of the uniform K-step grid on [0, 1]
    (None: all K + 1); every one of the K steps is taken.  Each position
    array is yielded once and never written again.

    A step is the textbook ``p + (dt/6) * (k1 + 2 k2 + 2 k3 + k4)``, bit
    for bit: the sum is accumulated in that order as the stages arrive, no
    stage is written, and each stage is dropped once it has been used, so
    a field is evaluated while only the positions, the sum and the stage
    argument are held.
    """
    p = np.array(points, dtype=float)
    kept = set(range(steps + 1)) if keep is None else {int(k) for k in keep}
    if 0 in kept:
        yield p
    dt = 1.0 / steps
    for k in range(steps):
        t = k * dt
        acc = x_field(t, p)  # k1
        arg = p + (dt / 2) * acc
        stage = x_field(t + dt / 2, arg)  # k2
        del arg
        acc = acc + 2 * stage
        arg = p + (dt / 2) * stage
        del stage
        stage = x_field(t + dt / 2, arg)  # k3
        del arg
        acc += 2 * stage
        arg = p + dt * stage
        del stage
        stage = x_field(t + dt, arg)  # k4
        del arg
        acc += stage
        del stage
        acc *= dt / 6
        acc += p  # p + acc, in the sum's buffer; the old p is not written
        p = acc
        del acc
        if not np.all(np.isfinite(p)):
            raise IntegrationError(f"non-finite flow values at t = {t + dt:.6f}")
        if k + 1 in kept:
            yield p


def integrate_trajectories(
    x_field: TimeField, points: np.ndarray, steps: int,
    keep: np.ndarray | None = None,
) -> np.ndarray:
    """RK4 trajectories of a point set over [0, 1], shape (K+1, ..., d), lifted.

    Stores what :func:`trajectory_slices` yields: with ``keep`` (increasing
    step indices) only those slices, shape ``(len(keep), ..., d)``.
    """
    count = steps + 1 if keep is None else len(keep)
    out = np.empty((count,) + np.shape(points))
    for i, p in enumerate(trajectory_slices(x_field, points, steps, keep)):
        out[i] = p
    return out


# ---------------------------------------------------------------------------
# velocities, generators, inverses
# ---------------------------------------------------------------------------


def velocity(isotopy: Isotopy, t: float) -> np.ndarray:
    """Velocity field on the grid at time t, shape ``(d,) + grid``.

    The samples live at grid positions y (not at start points): the lifted
    displacement is differenced in time and composed with the inverse map.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"time {t} outside [0, 1]")
    k = int(round(t * isotopy.steps))
    if abs(t - isotopy.times[k]) > 1e-12:
        raise ValueError("data velocities are available at grid times only")
    w = isotopy.velocity_samples(k)  # at start points
    return isotopy.map_at(isotopy.times[k]).inverse().compose_field(w)


def generator_of(isotopy: Isotopy) -> GeneratorPair:
    """Generator pair (U, H) of a symplectic isotopy.

    Prefers an exact trace attached at construction (computed on the first
    read if it was attached as a function, and kept in the function's
    place, which drops the function's references to other paths), then
    the provenance field, then the honest finite-difference route.
    """
    torus = isotopy.torus
    if not torus.symplectic:
        raise ValueError("generator extraction requires a symplectic torus")
    if callable(isotopy.gen):
        object.__setattr__(isotopy, "gen", isotopy.gen())
    if isotopy.gen is not None:
        return isotopy.gen
    if isotopy.provenance is not None:
        return _generator_from_field(isotopy)
    k1 = isotopy.steps + 1
    U = np.empty((k1,) + torus.shape)
    for k in range(k1):
        x_samples = velocity(isotopy, isotopy.times[k])
        U[k] = hodge_decompose(torus, contract_field_to_coeffs(x_samples)).potential
    return GeneratorPair(isotopy.times.copy(), U, harmonic_trace(isotopy))


def harmonic_trace(isotopy: Isotopy) -> np.ndarray:
    """``generator_of(isotopy).H``, bit for bit, shape ``(K+1, d)``.

    On the data route (no attached trace, no provenance field) H is, per
    slice, the start-point mean of the contracted orbit velocity (exact
    under volume preservation), which avoids the interpolation error of the
    composed samples: no slice is inverted and no ``U`` is built.
    """
    if isotopy.gen is not None or isotopy.provenance is not None:
        return generator_of(isotopy).H
    dim = isotopy.torus.dim
    if not isotopy.torus.symplectic:
        raise ValueError("generator extraction requires a symplectic torus")
    H = np.empty((isotopy.steps + 1, dim))
    for k in range(isotopy.steps + 1):
        w = contract_field_to_coeffs(isotopy.velocity_samples(k))
        H[k] = w.reshape(dim, -1).mean(axis=1)
    return H


def _generator_from_field(isotopy: Isotopy) -> GeneratorPair:
    """Hodge split of the provenance field's samples, slice by slice.

    A slice whose samples repeat the previous slice's reuses the previous
    split.  While every slice repeats the first one, as along an autonomous
    field (a Hamiltonian shear, a translation), ``U`` is that slice's
    potential broadcast to ``(K+1,) + grid``; a field that varies in time
    gets the dense array, written from its first slice that differs.
    """
    torus = isotopy.torus
    k1 = isotopy.steps + 1
    U = None
    H = np.empty((k1, torus.dim))
    previous = None
    for k in range(k1):
        x_samples = isotopy.provenance.sample(isotopy.times[k])
        if not is_repeat(x_samples, previous):
            if k and U is None:
                U = np.empty((k1,) + torus.shape)
                U[:k] = form.potential
            form = hodge_decompose(torus, contract_field_to_coeffs(x_samples))
            previous = x_samples
        if U is not None:
            U[k] = form.potential
        H[k] = form.harmonic
    if U is None:
        # a copy, not a view of the inverse FFT's complex buffer
        U = np.broadcast_to(form.potential.copy(), (k1,) + torus.shape)
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

    Each slice's Newton inversion is warm-started from the previous slice's
    preimages, so the chain follows the path continuously, and raises
    :class:`InversionError` naming the slice when it folds over.  The
    forward slice's spline serves both the Newton solve and the
    displacement ``-u(pre)`` at the preimages; a translation slice is
    inverted exactly, as ``-disp[k]``.  A path whose every slice is a translation (read from the
    data, as :class:`GridMap` does) inverts to the translation path of the
    negated shift, with +0.0 at slice 0: its stack is a
    :func:`translation_stack` broadcast and its generator's function part
    the exact 0.0 broadcast, so no ``(K+1, d) + grid`` array is written.
    Any other path whose forward generator is exact gets
    :func:`inverse_generator`'s trace, computed only when
    :func:`generator_of` first reads it.
    """
    torus = isotopy.torus
    exact_gen = torus.symplectic and (
        isotopy.gen is not None or isotopy.provenance is not None
    )
    if all(GridMap(torus, disp)._shift is not None for disp in isotopy.disp):
        shift = -isotopy.disp[(slice(None), slice(None)) + (0,) * torus.dim]
        shift[0] = 0.0
        gen = None
        if exact_gen:
            u = np.broadcast_to(0.0, (isotopy.steps + 1,) + torus.shape)
            gen = GeneratorPair(isotopy.times.copy(), u, -generator_of(isotopy).H)
        stack = translation_stack(torus, shift)
        return Isotopy(torus, isotopy.times.copy(), stack, kind=isotopy.kind, gen=gen)
    stack = np.empty_like(isotopy.disp)
    stack[0] = 0.0
    warm: np.ndarray | None = None
    for k in range(1, isotopy.steps + 1):
        fwd = GridMap(torus, isotopy.disp[k])
        try:
            inv = fwd.inverse(initial=warm)
        except InversionError as exc:
            raise InversionError(f"time slice {k}: {exc}") from exc
        warm = inv.image_points()
        if fwd._shift is not None:
            stack[k] = inv.disp
        else:
            stack[k] = -fwd._interp.at(warm).T.reshape((torus.dim,) + torus.shape)
    # computed when first read: a partial of the forward path, so the
    # inverse holds no reference to itself, and the forward path only
    # until then
    gen = functools.partial(inverse_generator, isotopy) if exact_gen else None
    return Isotopy(torus, isotopy.times.copy(), stack, kind=isotopy.kind, gen=gen)


def pullback_potential(
    g: GridMap, u: np.ndarray, h: np.ndarray, rate: float = 1.0
) -> np.ndarray:
    """Mean-zero function part of ``rate * g^*(dU + <H, dx>)``.

    Pulling back through g gives ``d(U o g + <H, lift(g)>) + <H, dx>``: the
    harmonic part H is unchanged and the function part picks up the
    correction ``<H, g.disp>`` from pulling the harmonic form back.
    """
    total = rate * (g.compose_field(u) + np.tensordot(h, g.disp, axes=(0, 0)))
    return total - total.mean()


def inverse_generator(isotopy: Isotopy) -> GeneratorPair:
    """Generator of the inverse path ``t -> phi_t^{-1}`` from the forward one.

    Stores what :func:`inverse_generator_slices` yields.  Only forward maps
    are evaluated, so no slice is inverted when the forward generator is
    exact (an attached trace or a provenance field); otherwise
    :func:`generator_of` falls back to its data route.  Does not check that
    the slices are invertible.
    """
    fwd = generator_of(isotopy)
    maps = (GridMap(isotopy.torus, disp) for disp in isotopy.disp)
    return GeneratorPair.from_slices(
        isotopy.times, isotopy.torus,
        inverse_generator_slices(maps, zip(fwd.U, fwd.H)),
    )


def inverse_generator_slices(maps, pairs):
    """Yield the inverse path's generator slices from the forward ones.

    ``maps`` are the forward maps phi_t and ``pairs`` the forward slices
    ``(U_t, H_t)``; the inverse path is generated by ``(-(U_t o phi_t +
    <H_t, lift_t>), -H_t)`` with the function part re-normalized to mean
    zero (:func:`pullback_potential` at rate -1).
    """
    for g, (u, h) in zip(maps, pairs):
        yield pullback_potential(g, u, h, -1.0), -h


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


def c0_distance(phi, psi=None) -> float:
    """Sup over (t, grid x) of the flat-torus distance between the paths.

    ``psi=None`` compares against the constant identity path.  Different
    time grids are resampled onto the finer one.  Both paths are read slice
    by slice (``slices()``), so either may be replayed.
    """
    if psi is not None and psi.steps > phi.steps:
        phi, psi = psi, phi
    others = None
    if psi is not None:
        others = psi.slices()
        if psi.steps != phi.steps:
            window = TimeWindow(psi.times, others)
            others = (window.disp_at(float(t), psi.last) for t in phi.times)
    worst = 0.0
    for disp in phi.slices():
        other = None if others is None else GridMap(phi.torus, next(others))
        worst = max(worst, GridMap(phi.torus, disp).c0_distance(other))
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


def verify_conservative(isotopy: Isotopy, nt: int = 9) -> ConservativityReport:
    """Check ``|det D(phi_t) - 1|`` and closedness of ``i(velocity)Omega``.

    On the torus the second residual is the sup of the divergence of the
    velocity field.  Time slices are subsampled for the divergence part when
    no provenance field is attached (the data route needs map inversions).
    """
    torus = isotopy.torus
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
    return ConservativityReport(det_res, div_res, flow_tolerance(torus.grid_res, 100.0))


# ---------------------------------------------------------------------------
# isotopies from generators and harmonic data
# ---------------------------------------------------------------------------


def translation_stack(torus: FlatTorus, shift: np.ndarray) -> np.ndarray:
    """Read-only ``(K+1, d) + grid`` broadcast of a ``(K+1, d)`` shift.

    The displacement stack of a translation path; it stores (K+1) d numbers.
    """
    lead = shift.shape + (1,) * torus.dim
    return np.broadcast_to(shift.reshape(lead), shift.shape + torus.shape)


def translation_path(torus: FlatTorus, times: np.ndarray, shift: np.ndarray,
                     coeffs: np.ndarray) -> Isotopy:
    """Translation path of a ``(K+1, d)`` shift and harmonic trace ``coeffs``.

    Its stack (:func:`translation_stack`) and its generator's zero function
    part (attached on a symplectic torus) are read-only broadcasts.
    """
    u = np.broadcast_to(0.0, (len(times),) + torus.shape)
    gen = GeneratorPair(times, u, coeffs) if torus.symplectic else None
    stack = translation_stack(torus, shift)
    return Isotopy(torus, times, stack, kind="harmonic", gen=gen)


def harmonic_isotopy(
    torus: FlatTorus, coeffs_of_t: Callable[[float], np.ndarray], steps: int
) -> Isotopy:
    """Translation path generated by a harmonic coefficient family (exact).

    The flow of a spatially constant field is a translation, so the lifted
    displacement is the cumulative time integral of ``rot(H_t)`` computed by
    fine Simpson quadrature rather than RK4 (:func:`translation_path`).
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
    coeff_trace = np.stack([np.asarray(coeffs_of_t(t), dtype=float) for t in times])
    return translation_path(torus, times, shift, coeff_trace)


def identity_isotopy(torus: FlatTorus, steps: int = 50) -> Isotopy:
    """The constant identity path: the :func:`translation_path` of zero shifts."""
    zero = np.zeros((steps + 1, torus.dim))
    return translation_path(torus, np.linspace(0.0, 1.0, steps + 1), zero, zero)
