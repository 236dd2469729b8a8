"""Concatenation, inversion and iteration of isotopies.

Concatenations run the first path during [0, 1/2] and the second during
[1/2, 1], each reparametrized through a smooth cutoff f that is identically
0 near 0 and identically 1 near 1, via lambda(t) = f(2t) and
tau(t) = f(2t - 1); :meth:`CutoffFunction.half` is the one place that
writes each half's warp and its rate.  The flat ends make the glued path
smooth in time and the slope of f controls how the sup-in-time length of a
concatenation relates to those of its pieces.

The cutoff is a mollified ramp: a clamped linear ramp convolved with a
compactly supported bump, sampled densely.  The flat width delta may be at
most 1/8; the default 1/32 keeps the recorded slope below 6/5 + 1e-3, which
a monotone ramp cannot achieve at delta = 1/8 (mean slope alone is already
4/3 there).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .flows import (
    GeneratorPair,
    GridMap,
    Isotopy,
    TimeWindow,
    inverse,
    is_repeat,
    pullback_potential,
)
from .torus import FlatTorus

_DENSE = 4096


def _clamped_spline(knots: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Power-basis coefficients ``(c0, c1, c2, c3)`` per interval of the
    clamped cubic spline through ``(knots, y)``, shape ``(4, n - 1)``.

    The spline is ``scipy.interpolate.CubicSpline(knots, y,
    bc_type="clamped")`` computed in scipy 1.17's order, bit for bit: its
    tridiagonal system for the knot slopes, solved as LAPACK ``dgtsv``
    does (elimination down, substitution up, in a loop over floats), and
    ``CubicHermiteSpline``'s coefficients.  The system is diagonally
    dominant (diagonal 4h against off-diagonals h, clamped rows 1 against
    h), so ``dgtsv`` never swaps rows; the loop asserts it.
    """
    dx = np.diff(knots)
    slope = np.diff(y) / dx
    n = len(knots)
    diag = np.ones(n)
    diag[1:-1] = 2 * (dx[:-1] + dx[1:])
    upper = np.zeros(n - 1)
    upper[1:] = dx[:-1]
    lower = np.zeros(n - 1)
    lower[:-1] = dx[1:]
    rhs = np.zeros(n)  # clamped ends: zero end slopes
    rhs[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    d, du, dl, b = diag.tolist(), upper.tolist(), lower.tolist(), rhs.tolist()
    for i in range(n - 1):
        assert abs(d[i]) >= abs(dl[i]) and d[i] != 0.0, "dgtsv would swap rows or stop at a zero pivot"
        fact = dl[i] / d[i]
        d[i + 1] = d[i + 1] - fact * du[i]
        b[i + 1] = b[i + 1] - fact * b[i]
    b[n - 1] = b[n - 1] / d[n - 1]
    b[n - 2] = (b[n - 2] - du[n - 2] * b[n - 1]) / d[n - 2]
    for i in range(n - 3, -1, -1):
        # dgtsv's fill-in term, zero without swaps; it turns -0.0 into +0.0
        b[i] = (b[i] - du[i] * b[i + 1] - 0.0 * b[i + 2]) / d[i]
    s = np.array(b)
    t = (s[:-1] + s[1:] - 2 * slope) / dx
    return np.stack((t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]))


def _eval_spline(coeffs: np.ndarray, knots: np.ndarray, t, nu: int) -> np.ndarray:
    """Value (``nu = 0``) or first derivative (``nu = 1``) at t of the
    piecewise cubic ``coeffs``, summed as scipy's ``PPoly`` sums it."""
    i = np.clip(np.searchsorted(knots, t, side="right") - 1, 0, len(knots) - 2)
    c0, c1, c2, c3 = coeffs[:, i]
    s = t - knots[i]
    z = s * s
    # each sum starts from 0.0, as PPoly's does
    if nu == 0:
        return 0.0 + c3 + c2 * s + c1 * z + c0 * (z * s)
    return 0.0 + c2 + c1 * s * 2.0 + c0 * z * 3.0


@dataclass(frozen=True)
class CutoffFunction:
    """Smooth ramp f: [0,1] -> [0,1], flat on [0, delta] and [1-delta, 1].

    Between the flat ends f is the clamped cubic spline through
    ``samples`` on a uniform grid of [0, 1] (:func:`_clamped_spline`),
    clipped to [0, 1], and f' is that spline's derivative, clipped at 0.
    """

    delta: float
    samples: np.ndarray
    sup_slope: float

    def _spline(self, t, nu: int) -> np.ndarray:
        cached = self.__dict__.get("_spline_cache")
        if cached is None:
            knots = np.linspace(0.0, 1.0, len(self.samples))
            cached = knots, _clamped_spline(knots, self.samples)
            self.__dict__["_spline_cache"] = cached
        knots, coeffs = cached
        return _eval_spline(coeffs, knots, t, nu)

    def value(self, t) -> np.ndarray:
        t = np.clip(t, 0.0, 1.0)
        inner = np.clip(self._spline(t, 0), 0.0, 1.0)
        return np.where(t <= self.delta, 0.0,
                        np.where(t >= 1.0 - self.delta, 1.0, inner))

    def deriv(self, t) -> np.ndarray:
        t = np.clip(t, 0.0, 1.0)
        inner = np.maximum(self._spline(t, 1), 0.0)
        flat = (t <= self.delta) | (t >= 1.0 - self.delta)
        return np.where(flat, 0.0, inner)

    def half(self, t, second: bool) -> tuple[np.ndarray, np.ndarray]:
        """Warp and rate ``(f(2t - s), 2 f'(2t - s))`` of a concatenation half.

        s = 0 gives lambda(t) = f(2t) of the first half, s = 1 (``second``)
        tau(t) = f(2t - 1) of the second.
        """
        u = 2.0 * np.asarray(t, dtype=float) - float(second)
        return self.value(u), 2.0 * self.deriv(u)


def make_cutoff(delta: float = 1.0 / 32.0) -> CutoffFunction:
    """Build the mollified-ramp cutoff and record its sup slope.

    The ramp rises linearly over the middle 90% of [delta, 1 - delta] and is
    convolved with a normalized compact bump covering the remaining 10%, so
    f vanishes exactly on [0, delta] and equals 1 exactly on [1 - delta, 1].
    With delta <= 1/32 the recorded slope stays below 1.201.
    """
    if not 0.0 < delta <= 0.125:
        raise ValueError(f"delta must lie in (0, 1/8], got {delta}")
    span = 1.0 - 2.0 * delta
    bump_width = 0.1 * span
    rise = span - bump_width
    half = bump_width / 2.0

    m = max(int(round(bump_width * _DENSE / 2.0)), 4)
    u = np.linspace(-1.0, 1.0, 2 * m + 1)
    with np.errstate(divide="ignore", over="ignore"):
        kernel = np.where(np.abs(u) < 1.0, np.exp(-1.0 / (1.0 - u**2)), 0.0)
    kernel /= kernel.sum()

    pad = 2 * m
    s = (np.arange(-pad, _DENSE + pad + 1)) / _DENSE
    ramp = np.clip((s - (delta + half)) / rise, 0.0, 1.0)
    smooth = np.convolve(ramp, kernel, mode="same")[pad : pad + _DENSE + 1]
    smooth[s[pad : pad + _DENSE + 1] <= delta] = 0.0
    smooth[s[pad : pad + _DENSE + 1] >= 1.0 - delta] = 1.0
    smooth[0], smooth[-1] = 0.0, 1.0
    sup_slope = float(np.max(np.diff(smooth)) * _DENSE)
    return CutoffFunction(delta, smooth, sup_slope)


@cache
def default_cutoff() -> CutoffFunction:
    return make_cutoff()


# ---------------------------------------------------------------------------
# concatenation
# ---------------------------------------------------------------------------


def _reparam_slices(
    path: Isotopy | ConcatTrace, warped: np.ndarray, rates: np.ndarray,
    through: GridMap | None = None,
):
    """Yield the generator slices ``rate * gen(warp)`` of a path as ``(u, h)``.

    The path's ``generator()`` slices, stored or replayed, are read through
    one :class:`~torusflux.flows.TimeWindow` at the nondecreasing warps.
    With ``through`` the trace is pulled back through that map: the
    function part is :func:`~torusflux.flows.pullback_potential`'s, and
    the harmonic part is unchanged.
    """
    window = TimeWindow(path.times, path.generator())
    for w, r in zip(warped, rates):
        u, h = window.at(float(w))
        if through is None:
            u = r * u
        elif r == 0.0:  # flat cutoff end: no spline to build
            u = np.zeros(u.shape)
        else:
            u = pullback_potential(through, u, h, float(r))
        yield u, r * h


def _concat_times(
    first: Isotopy | ConcatTrace, second: Isotopy | ConcatTrace, steps: int | None
) -> np.ndarray:
    """The concatenation's uniform time grid, with an even number of steps."""
    if first.torus != second.torus:
        raise ValueError("isotopies live on different tori")
    k = steps if steps is not None else first.steps + second.steps
    k += k % 2
    return np.linspace(0.0, 1.0, k + 1)


def _glue(first_1: GridMap, second_tau: GridMap, left: bool) -> GridMap:
    """``second_tau o first_1`` when ``left``, else ``first_1 o second_tau``."""
    if left:
        return second_tau.compose(first_1, spectral=False)
    return first_1.compose(second_tau, spectral=False)


def _concat_slices(
    first: Isotopy | ConcatTrace, first_1: GridMap, second: Isotopy | ConcatTrace,
    times: np.ndarray, left: bool,
):
    """Yield the concatenation's displacement slices on ``times``, in order.

    Slice 0 is the exact identity (+0.0).  The first piece runs until t =
    1/2; from there on each slice glues ``second_tau`` to ``first_1``, the
    time-one map of ``first`` (:func:`_glue`).  Each piece's slices, stored
    or replayed, are read through a :class:`~torusflux.flows.TimeWindow`.
    A slice whose ``second_tau`` repeats the previous one (a constant path,
    the flat ends of the cutoff) yields the previous glued slice again.
    """
    f = default_cutoff()
    torus = first.torus
    half = (len(times) - 1) // 2
    lam, _ = f.half(times[:half], False)
    yield np.zeros((torus.dim,) + torus.shape)
    window = TimeWindow(first.times, first.slices())
    for s in lam[1:]:
        yield window.disp_at(float(s), first.last)
    previous = glued = None
    tau, _ = f.half(times[half:], True)
    window = TimeWindow(second.times, second.slices())
    for s in tau:
        second_tau = window.disp_at(float(s), second.last)
        if not is_repeat(second_tau, previous):
            glued = _glue(first_1, GridMap(torus, second_tau), left).disp
            previous = second_tau
        yield glued


def _concat_generator(
    first: Isotopy | ConcatTrace, first_1: GridMap, second: Isotopy | ConcatTrace,
    times: np.ndarray, left: bool,
):
    """Yield the reparametrized union of the pieces' generator traces on ``times``.

    Slices are ``(u_k, h_k)``.  On the right the second piece's trace is
    pushed forward by ``first_1``, the time-one map of ``first``, through
    its inverse, which is computed once per call.  The second piece's value
    at t = 1/2 would repeat the first piece's last slot and is not computed.
    """
    f = default_cutoff()
    half = (len(times) - 1) // 2
    yield from _reparam_slices(first, *f.half(times[: half + 1], False))
    through = None if left else first_1.inverse()
    yield from _reparam_slices(second, *f.half(times[half + 1 :], True), through)


@dataclass(frozen=True)
class ConcatTrace:
    """A concatenation that is replayed slice by slice instead of stored.

    It keeps its pieces, its time grid, its side (``left``) and its glued
    time-one map, held in C order as a stored slice is.  A piece is a
    stored :class:`~torusflux.flows.Isotopy` or itself a replay: both
    answer ``slices()``, ``generator()``, ``last`` and ``time_one()``, and
    a replayed piece is read through a 4-slice
    :class:`~torusflux.flows.TimeWindow`, so a replay of replays holds no
    stack either.  :meth:`slices`
    and :meth:`generator` replay the displacement slices and the generator
    slices ``(u_k, h_k)`` from the same loops that :func:`concat_left` and
    :func:`concat_right` store, so each replayed slice is bitwise the
    stored one.  :func:`~torusflux.hofer.lengths`,
    :func:`~torusflux.hofer.inverse_lengths` and
    :func:`~torusflux.hofer.energy_surrogate` read it one slice at a time;
    :func:`~torusflux.flux.flux_class` and
    :func:`~torusflux.flux.orbit_displacement` read its ends (``last``, no
    ``provenance``, ``time_one()``) as they read a stored path's.
    Generators need a symplectic torus, which construction checks.
    """

    first: Isotopy | ConcatTrace
    second: Isotopy | ConcatTrace
    times: np.ndarray
    left: bool
    end: GridMap
    provenance = None  # no field generates it: orbits go through ``end``

    def __post_init__(self) -> None:
        if not self.first.torus.symplectic:
            raise ValueError("a concatenation's generator trace requires a symplectic torus")

    @property
    def torus(self) -> FlatTorus:
        return self.first.torus

    @property
    def steps(self) -> int:
        return len(self.times) - 1

    @property
    def last(self) -> np.ndarray:
        """The time-one slice, as a stored concatenation's ``disp[-1]``."""
        return self.end.disp

    def time_one(self) -> GridMap:
        return self.end

    def slices(self):
        """Yield the displacement slices, shape ``(d,) + grid``."""
        return _concat_slices(self.first, self.first.time_one(), self.second,
                              self.times, self.left)

    def generator(self):
        """Yield the generator slices ``(u_k, h_k)``."""
        return _concat_generator(self.first, self.first.time_one(), self.second,
                                 self.times, self.left)


def concat_trace(
    first: Isotopy | ConcatTrace, second: Isotopy | ConcatTrace,
    steps: int | None, left: bool,
) -> ConcatTrace:
    """The replayed concatenation: ``first`` during [0, 1/2], then ``second``.

    It equals ``concat_left(second, first, steps, with_generator=True)``
    when ``left`` and ``concat_right(first, second, steps,
    with_generator=True)`` otherwise, slice for slice and bit for bit in its
    replayed displacement and generator and in its time-one map, with no
    ``(K+1, d) + grid`` stack or ``(K+1,) + grid`` trace.  Building it
    composes the pieces' time-one maps once and nothing else.  A piece may
    be a replay itself: ``concat_trace(concat_trace(a, b, None, left=False),
    c, steps, left=True)`` equals the same concatenations stored, bit for
    bit, and stores none of them.
    """
    times = _concat_times(first, second, steps)
    end = _glue(first.time_one(), second.time_one(), left)
    end = GridMap(first.torus, np.ascontiguousarray(end.disp))
    return ConcatTrace(first, second, times, left, end)


def _concat(
    first: Isotopy, second: Isotopy, steps: int | None, with_generator: bool,
    left: bool,
) -> Isotopy:
    """Run ``first`` during [0, 1/2], then ``second`` glued to its time-one map.

    The second half is ``second_tau o first_1`` when ``left`` and
    ``first_1 o second_tau`` otherwise.  Stores what :func:`_concat_slices`
    and, with ``with_generator``, :func:`_concat_generator` yield, the
    loops that a :class:`ConcatTrace` replays: callers that read the path
    only slice by slice or at its ends take :func:`concat_trace` and store
    nothing.
    """
    torus = first.torus
    times = _concat_times(first, second, steps)
    first_1 = first.time_one()
    stack = np.empty((len(times), torus.dim) + torus.shape)
    for k, disp in enumerate(_concat_slices(first, first_1, second, times, left)):
        stack[k] = disp
    gen = None
    if with_generator:
        gen = GeneratorPair.from_slices(
            times, torus, _concat_generator(first, first_1, second, times, left))
    tags = {first.kind, second.kind}
    if "general" in tags:
        kind = "general"
    elif tags <= {"hamiltonian"}:
        kind = "hamiltonian"
    else:
        kind = "conservative"
    return Isotopy(torus, times, stack, kind=kind, gen=gen)


def concat_right(
    phi: Isotopy,
    psi: Isotopy,
    steps: int | None = None,
    with_generator: bool = False,
) -> Isotopy:
    """Right concatenation: run phi, then apply phi_1 o psi_tau.

    Time-one map is ``phi_1 o psi_1``; the orbit of p is the orbit of p
    under phi glued with the image under phi_1 of the orbit of p under psi.

    With ``with_generator`` an exact generator trace is attached.  The
    second-half velocity field is the pushforward of psi's by phi_1, which
    leaves the harmonic part untouched (cohomology invariance) and composes
    the function part with ``phi_1^{-1}`` plus the explicit correction
    ``H . lift(phi_1^{-1})`` from pulling the harmonic form back.
    :func:`concat_trace` (``left=False``) replays the same path instead of
    storing it.
    """
    return _concat(phi, psi, steps, with_generator, left=False)


def concat_left(
    psi: Isotopy,
    phi: Isotopy,
    steps: int | None = None,
    with_generator: bool = False,
) -> Isotopy:
    """Left concatenation: run phi, then psi_tau o phi_1.

    Time-one map is ``psi_1 o phi_1``; the orbit of p is the orbit of p
    under phi glued with the orbit of phi_1(p) under psi.  The generator
    trace of the result is the reparametrized union of the pieces' traces,
    so the integrated length is exactly additive; pass ``with_generator``
    to attach it.  A caller that reads the path only slice by slice or at
    its ends takes :func:`concat_trace` (``left=True``), which replays it
    and stores no slice.
    """
    return _concat(phi, psi, steps, with_generator, left=True)


# ---------------------------------------------------------------------------
# iteration
# ---------------------------------------------------------------------------


def iterate(phi: Isotopy, power: int) -> Isotopy:
    """The l-fold iterate with time-one map ``(phi_1)^l``.

    Bin i of the time axis runs a fresh copy of the path on top of the i-th
    iterate of the time-one map, so the orbit of x is the union of the
    orbits of the iterates of x.  Negative powers iterate the inverse path.
    """
    if power == 0:
        raise ValueError("iteration power must be nonzero")
    base = phi if power > 0 else inverse(phi)
    m = abs(power)
    torus = base.torus
    k = base.steps
    psi = base.time_one()

    # lifted iterates of the grid under the time-one map
    anchors = np.empty((m,) + base.torus.points.shape)
    anchors[0] = torus.points
    for i in range(1, m):
        anchors[i] = psi.apply(anchors[i - 1])

    times = np.linspace(0.0, 1.0, m * k + 1)
    stack = np.empty((m * k + 1, torus.dim) + torus.shape)
    stack[0] = 0.0
    base_pts = torus.points
    for j in range(k + 1):
        lifted = GridMap(torus, base.disp[j]).apply(anchors)  # (m, M, d)
        for i in range(m):
            idx = i * k + j
            if idx == 0:
                continue
            stack[idx] = (lifted[i] - base_pts).T.reshape(
                (torus.dim,) + torus.shape
            )
    return Isotopy(torus, times, stack, kind=base.kind)


def reparametrized(
    phi: Isotopy, warp, steps: int | None = None, warp_deriv=None
) -> Isotopy:
    """Time reparametrization ``t -> phi_{warp(t)}`` with warp(0)=0, warp(1)=1.

    Supplying the derivative of a nondecreasing warp attaches the exactly
    rescaled generator trace ``warp'(t) * gen(warp(t))``.
    """
    torus = phi.torus
    k = steps if steps is not None else phi.steps
    times = np.linspace(0.0, 1.0, k + 1)
    stack = np.empty((k + 1, torus.dim) + torus.shape)
    warped = np.clip([warp(t) for t in times], 0.0, 1.0)
    for i, w in enumerate(warped):
        stack[i] = phi.disp_at(float(w))
    stack[0] = 0.0
    gen = None
    if warp_deriv is not None:
        rates = np.maximum([warp_deriv(t) for t in times], 0.0)
        gen = GeneratorPair.from_slices(times, torus, _reparam_slices(phi, warped, rates))
    return Isotopy(torus, times, stack, kind=phi.kind, gen=gen)
