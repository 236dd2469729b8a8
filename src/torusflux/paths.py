"""Concatenation, inversion and iteration of isotopies.

Concatenations run the first path during [0, 1/2] and the second during
[1/2, 1], each reparametrized through a smooth cutoff f that is identically
0 near 0 and identically 1 near 1, via lambda(t) = f(2t) and
tau(t) = f(2t - 1).  The flat ends make the glued path smooth in time and
the slope of f controls how the sup-in-time length of a concatenation
relates to those of its pieces.

The cutoff is a mollified ramp: a clamped linear ramp convolved with a
compactly supported bump, sampled densely.  The flat width delta may be at
most 1/8; the default 1/32 keeps the recorded slope below 6/5 + 1e-3, which
a monotone ramp cannot achieve at delta = 1/8 (mean slope alone is already
4/3 there).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.interpolate import CubicSpline

from .flows import (
    GeneratorPair,
    GridMap,
    Isotopy,
    generator_of,
    interp_time,
    inverse,
)

_DENSE = 4096


@dataclass(frozen=True)
class CutoffFunction:
    """Smooth ramp f: [0,1] -> [0,1], flat on [0, delta] and [1-delta, 1]."""

    delta: float
    samples: np.ndarray
    sup_slope: float

    @property
    def _spline(self) -> CubicSpline:
        cached = self.__dict__.get("_spline_cache")
        if cached is None:
            s = np.linspace(0.0, 1.0, len(self.samples))
            cached = CubicSpline(s, self.samples, bc_type="clamped")
            self.__dict__["_spline_cache"] = cached
        return cached

    def value(self, t) -> np.ndarray:
        t = np.clip(t, 0.0, 1.0)
        inner = np.clip(self._spline(t), 0.0, 1.0)
        return np.where(t <= self.delta, 0.0,
                        np.where(t >= 1.0 - self.delta, 1.0, inner))

    def deriv(self, t) -> np.ndarray:
        t = np.clip(t, 0.0, 1.0)
        inner = np.maximum(self._spline(t, 1), 0.0)
        flat = (t <= self.delta) | (t >= 1.0 - self.delta)
        return np.where(flat, 0.0, inner)

    def lam(self, t) -> np.ndarray:
        """First-half reparametrization lambda(t) = f(2t)."""
        return self.value(2.0 * np.asarray(t, dtype=float))

    def tau(self, t) -> np.ndarray:
        """Second-half reparametrization tau(t) = f(2t - 1)."""
        return self.value(2.0 * np.asarray(t, dtype=float) - 1.0)


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


@lru_cache(maxsize=4)
def default_cutoff(delta: float = 1.0 / 32.0) -> CutoffFunction:
    return make_cutoff(delta)


# ---------------------------------------------------------------------------
# concatenation
# ---------------------------------------------------------------------------


def _check_pair(phi: Isotopy, psi: Isotopy) -> None:
    if phi.torus != psi.torus:
        raise ValueError("isotopies live on different tori")


def _concat_times(phi: Isotopy, psi: Isotopy, steps: int | None) -> np.ndarray:
    k = steps if steps is not None else phi.steps + psi.steps
    k += k % 2
    return np.linspace(0.0, 1.0, k + 1)


def _reparam_generator(
    iso: Isotopy, warped: np.ndarray, rates: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    gen = generator_of(iso)
    u_out = np.empty((len(warped),) + iso.torus.shape)
    h_out = np.empty((len(warped), iso.torus.dim))
    for i, (w, r) in enumerate(zip(warped, rates)):
        u_out[i] = r * interp_time(gen.times, gen.U, float(w))
        h_out[i] = r * interp_time(gen.times, gen.H, float(w))
    return u_out, h_out


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
    """
    _check_pair(phi, psi)
    f = default_cutoff()
    torus = phi.torus
    times = _concat_times(phi, psi, steps)
    half = len(times) // 2
    stack = np.empty((len(times), torus.dim) + torus.shape)
    for k in range(half + 1):
        stack[k] = phi.disp_at(float(f.lam(times[k])))
    end = phi.time_one()
    for k in range(half, len(times)):
        psi_tau = psi.map_at(float(f.tau(times[k])))
        stack[k] = end.compose(psi_tau, spectral=False).disp
    stack[0] = 0.0
    gen = None
    if with_generator:
        t = times.reshape(-1)
        first = slice(0, half + 1)
        second = slice(half, len(times))
        u1, h1 = _reparam_generator(phi, f.lam(t[first]), 2.0 * f.deriv(2.0 * t[first]))
        u2, h2 = _reparam_generator(
            psi, f.tau(t[second]), 2.0 * f.deriv(2.0 * t[second] - 1.0)
        )
        inv_end = end.inverse()
        gen_psi = generator_of(psi)
        for i in range(u2.shape[0]):
            tau = float(f.tau(t[second][i]))
            rate = float(2.0 * f.deriv(2.0 * t[second][i] - 1.0))
            if rate == 0.0:
                u2[i] = 0.0
                continue
            u_tau = interp_time(gen_psi.times, gen_psi.U, tau)
            h_tau = interp_time(gen_psi.times, gen_psi.H, tau)
            pulled = inv_end.compose_field(u_tau)
            corr = np.tensordot(h_tau, inv_end.disp, axes=(0, 0))
            total = rate * (pulled + corr)
            u2[i] = total - total.mean()
        u_full = np.concatenate([u1, u2[1:]])
        h_full = np.concatenate([h1, h2[1:]])
        gen = GeneratorPair(times.copy(), u_full, h_full)
    return Isotopy(torus, times, stack, kind=_merge_kind(phi, psi), gen=gen)


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
    to attach it.
    """
    _check_pair(phi, psi)
    f = default_cutoff()
    torus = phi.torus
    times = _concat_times(phi, psi, steps)
    half = len(times) // 2
    stack = np.empty((len(times), torus.dim) + torus.shape)
    for k in range(half + 1):
        stack[k] = phi.disp_at(float(f.lam(times[k])))
    end = phi.time_one()
    for k in range(half, len(times)):
        psi_tau = psi.map_at(float(f.tau(times[k])))
        stack[k] = psi_tau.compose(end, spectral=False).disp
    stack[0] = 0.0
    gen = None
    if with_generator:
        t = times.reshape(-1)
        first = slice(0, half + 1)
        second = slice(half, len(times))
        u1, h1 = _reparam_generator(phi, f.lam(t[first]), 2.0 * f.deriv(2.0 * t[first]))
        u2, h2 = _reparam_generator(
            psi, f.tau(t[second]), 2.0 * f.deriv(2.0 * t[second] - 1.0)
        )
        u_full = np.concatenate([u1, u2[1:]])
        h_full = np.concatenate([h1, h2[1:]])
        gen = GeneratorPair(times.copy(), u_full, h_full)
    return Isotopy(torus, times, stack, kind=_merge_kind(phi, psi), gen=gen)


def _merge_kind(phi: Isotopy, psi: Isotopy) -> str:
    tags = {phi.kind, psi.kind}
    if "general" in tags:
        return "general"
    if tags <= {"hamiltonian"}:
        return "hamiltonian"
    return "conservative"


# ---------------------------------------------------------------------------
# iteration
# ---------------------------------------------------------------------------


def iterate(phi: Isotopy, power: int, with_generator: bool = False) -> Isotopy:
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
    gen = None
    if with_generator:
        g = generator_of(base)
        u_full = np.concatenate([g.U if i == 0 else g.U[1:] for i in range(m)])
        h_full = np.concatenate([g.H if i == 0 else g.H[1:] for i in range(m)])
        gen = GeneratorPair(times.copy(), m * u_full, m * h_full)
    return Isotopy(torus, times, stack, kind=base.kind, gen=gen)


def reparametrized(
    phi: Isotopy, warp, steps: int | None = None, warp_deriv=None
) -> Isotopy:
    """Time reparametrization ``t -> phi_{warp(t)}`` with warp(0)=0, warp(1)=1.

    Supplying the warp derivative attaches the exactly rescaled generator
    trace ``warp'(t) * gen(warp(t))``.
    """
    torus = phi.torus
    k = steps if steps is not None else phi.steps
    times = np.linspace(0.0, 1.0, k + 1)
    stack = np.empty((k + 1, torus.dim) + torus.shape)
    for i, t in enumerate(times):
        w = float(np.clip(warp(t), 0.0, 1.0))
        stack[i] = phi.disp_at(w)
    stack[0] = 0.0
    gen = None
    if warp_deriv is not None:
        warped = np.clip([warp(t) for t in times], 0.0, 1.0)
        rates = np.maximum([warp_deriv(t) for t in times], 0.0)
        u, h = _reparam_generator(phi, warped, rates)
        gen = GeneratorPair(times.copy(), u, h)
    return Isotopy(torus, times, stack, kind=phi.kind, gen=gen)
