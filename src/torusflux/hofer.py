"""Hofer and Hofer-like length geometry of symplectic isotopies.

A symplectic isotopy generated by the pair (U, H) has lengths

    l_B(Phi)      = integral over t of  osc(U_t) + |H_t|,
    l_B_inf(Phi)  = max over t of       osc(U_t) + |H_t|,

and dropping the harmonic term gives the Hofer lengths of Hamiltonian
isotopies.  The induced energies of a time-one map are infima over all
isotopies reaching it; true infima are not computable, so every energy here
is a documented candidate-family minimum, an upper bound that is monotone
non-increasing as the family grows.  Inequality checks state which side is a
surrogate; all comparisons here place surrogate upper bounds on both sides,
so a pass certifies consistency at family resolution while a fail only
indicts the family.

The deformation construction for a harmonic family X_t with zero mean flux,

    Z_{s,t} = t X_{st} - 2 s * integral_0^t X_u du,

is integrated in s into a 2-parameter family of translations G_{s,t} whose
t-velocities V_{s,t} obey the slope bound
``sup |V|_B / (1 + sup |V|_B) <= 6 sup |X|_B`` and the companion oscillation
bound; it also powers the straightening of a zero-flux path into a
Hamiltonian one with the same endpoints.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .flows import (
    GeneratorPair,
    GridMap,
    Isotopy,
    contract_field_to_coeffs,
    flow_tolerance,
    generator_of,
    generator_residual,
    harmonic_trace,
    inverse,
    pullback_potential,
    rotate_coeffs_to_field,
    translation_path,
    velocity_stencil,
)
from .flux import flux_class
from .paths import ConcatTrace, concat_trace
from .torus import FlatTorus, InversionError, harmonic_norm, hodge_decompose, osc

# largest C0 gap at which a candidate path counts as reaching the target map
MATCH_TOL = 1e-6


# ---------------------------------------------------------------------------
# Simpson rules
# ---------------------------------------------------------------------------
#
# Both rules do scipy 1.17's arithmetic for samples on a given grid x
# (``scipy.integrate.simpson`` and ``cumulative_simpson``) in scipy's order,
# so every integral equals scipy's bit for bit; the reference tests hold
# them to it.


def _basic_simpson(y: np.ndarray, h: np.ndarray, stop: int) -> float:
    """Composite Simpson sum over the parabolas through y[0:stop + 2]."""
    h0 = h[0:stop:2]
    h1 = h[1:stop + 1:2]
    hsum = h0 + h1
    hprod = h0 * h1
    h0divh1 = h0 / h1
    tmp = hsum / 6.0 * (y[0:stop:2] * (2.0 - 1.0 / h0divh1)
                        + y[1:stop + 1:2] * (hsum * (hsum / hprod))
                        + y[2:stop + 2:2] * (2.0 - h0divh1))
    return np.sum(tmp)


def simpson(y: np.ndarray, x: np.ndarray) -> float:
    """Composite Simpson integral of 1-D samples y on the increasing grid x.

    An odd number of points is covered by parabolas; an even number leaves
    the last interval to Cartwright's correction, as scipy does.  Fewer
    than 3 points raise.
    """
    n = len(y)
    if n < 3:
        raise ValueError("Simpson integration needs at least 3 points")
    h = np.diff(x)
    if n % 2:
        return _basic_simpson(y, h, n - 2)
    result = _basic_simpson(y, h, n - 3)
    h0, h1 = np.asarray(h[-2]), np.asarray(h[-1])  # 0-d, as scipy's
    alpha = (2 * h1**2 + 3 * h0 * h1) / (6 * (h1 + h0))
    beta = (h1**2 + 3.0 * h0 * h1) / (6 * h0)
    eta = 1 * h1**3 / (6 * h0 * (h0 + h1))
    result += alpha * y[-1] + beta * y[-2] - eta * y[-3]
    return result + 0.0  # scipy adds 0.0 here, which turns a -0.0 into +0.0


def _first_intervals(y: np.ndarray, dx: np.ndarray) -> np.ndarray:
    """Integral over [x_i, x_i+1] of the parabola through points i, i+1, i+2
    (Cartwright's eq. 8), for every i, along the last axis."""
    x21 = dx[:-1]
    x32 = dx[1:]
    x31 = x21 + x32
    x21_x31 = x21 / x31
    x21_x32 = x21 / x32
    x21x21_x31x32 = x21_x31 * x21_x32
    coeff1 = 3 - x21_x31
    coeff2 = 3 + x21x21_x31x32 + x21_x31
    coeff3 = -x21x21_x31x32
    return x21 / 6 * (coeff1 * y[..., :-2] + coeff2 * y[..., 1:-1] + coeff3 * y[..., 2:])


def cumulative_simpson(
    y: np.ndarray, x: np.ndarray, axis: int, initial: float
) -> np.ndarray:
    """Running Simpson integral of y along ``axis`` on the increasing 1-D grid x.

    Each interval takes the parabola through it and its right neighbour
    (the last interval: its left neighbour), the pieces are summed by
    ``np.cumsum``, and ``initial`` is added and prepended, so the result
    has y's shape.  Fewer than 3 points raise.
    """
    y = np.swapaxes(np.asarray(y, dtype=float), axis, -1)
    if y.shape[-1] < 3:
        raise ValueError("cumulative Simpson integration needs at least 3 points")
    dx = np.diff(x)
    if np.any(dx <= 0):
        raise ValueError("the grid must be strictly increasing")
    ahead = _first_intervals(y, dx)
    behind = np.flip(_first_intervals(np.flip(y, axis=-1), np.flip(dx)), axis=-1)
    pieces = np.empty(y.shape[:-1] + (y.shape[-1] - 1,))
    pieces[..., :-1:2] = ahead[..., ::2]
    pieces[..., 1::2] = behind[..., ::2]
    pieces[..., -1] = behind[..., -1]
    res = np.cumsum(pieces, axis=-1)
    res += initial
    res = np.concatenate((np.full(y.shape[:-1] + (1,), initial), res), axis=-1)
    return np.swapaxes(res, -1, axis)


# ---------------------------------------------------------------------------
# lengths
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LengthReport:
    """Length functionals of one isotopy with the per-time traces.

    ``l1_length`` and ``hofer_l1`` are the composite Simpson integrals
    (:func:`simpson`) of the traces over ``times``; ``linf_length`` is the
    trace maximum.
    """

    times: np.ndarray
    osc_trace: np.ndarray
    harmonic_trace: np.ndarray

    @property
    def l1_length(self) -> float:
        return float(simpson(self.osc_trace + self.harmonic_trace, self.times))

    @property
    def linf_length(self) -> float:
        return float(np.max(self.osc_trace + self.harmonic_trace))

    @property
    def hofer_l1(self) -> float:
        return float(simpson(self.osc_trace, self.times))


def _report(times: np.ndarray, pairs) -> LengthReport:
    """Length report from generator slices ``(u_k, h_k)``, read one at a time.

    Each slice leaves only its oscillation ``max - min`` and its ``|h|_1``;
    both are exact per slice, so a stored and a replayed trace give the
    same bits.
    """
    osc_trace = np.empty(len(times))
    harmonic_trace = np.empty(len(times))
    for k, (u, h) in enumerate(pairs):
        osc_trace[k] = u.max() - u.min()
        harmonic_trace[k] = np.abs(h).sum()
    return LengthReport(times.copy(), osc_trace, harmonic_trace)


def lengths(
    isotopy: Isotopy | ConcatTrace, validate_tol: float | None = None
) -> LengthReport:
    """Length report from the generator slices of a symplectic isotopy.

    The slices are read one at a time from ``generator()``: an
    :class:`Isotopy`'s :func:`generator_of` pair or the replayed slices of
    a :class:`~torusflux.paths.ConcatTrace`.  ``validate_tol`` re-derives
    the velocity from the stored displacement data of an :class:`Isotopy`
    and errors out if the generator reconstruction residual exceeds it.
    """
    if validate_tol is not None:
        res = generator_residual(isotopy, generator_of(isotopy), nt=3)
        if res > validate_tol:
            raise ValueError(f"generator residual {res:.3e} above tolerance")
    return _report(isotopy.times, isotopy.generator())


def _unfolded(torus: FlatTorus, slices):
    """Yield each displacement slice's map after the fold-over guard."""
    for k, disp in enumerate(slices):
        g = GridMap(torus, disp)
        if k:
            try:
                g.check_unfolded()
            except InversionError as exc:
                raise InversionError(f"time slice {k}: {exc}") from exc
        yield g


def two_way_lengths(
    isotopy: Isotopy | ConcatTrace,
) -> tuple[LengthReport, LengthReport]:
    """Length reports of a path and of its inverse path ``t -> phi_t^{-1}``.

    Both come from one pass over ``slices()`` and ``generator()``, stored or
    replayed (a :class:`~torusflux.paths.ConcatTrace`), so a replayed path
    is replayed once.  The forward report equals ``lengths(isotopy)``.  The
    inverse report equals ``lengths(inverse(isotopy))`` but is read from the
    generator of the inverse path, which evaluates only forward maps, with
    no stored trace: each slice passes the fold-over guard
    :meth:`GridMap.check_unfolded` (which raises :class:`InversionError`)
    and is pulled back as in
    :func:`~torusflux.flows.inverse_generator_slices`; its harmonic part
    ``-h`` has the forward ``|h|_1``.  No slice is inverted when the path
    carries a generator trace or a provenance field, or is a replay;
    otherwise :func:`generator_of`'s data route inverts each forward slice
    once, after every slice has passed the guard.
    """
    maps = _unfolded(isotopy.torus, isotopy.slices())
    if isinstance(isotopy, Isotopy) and isotopy.gen is None and isotopy.provenance is None:
        maps = list(maps)  # guard every slice before the data route
    times = isotopy.times
    osc_trace = np.empty(len(times))
    inverse_osc_trace = np.empty(len(times))
    harmonic_trace = np.empty(len(times))
    for k, (g, (u, h)) in enumerate(zip(maps, isotopy.generator())):
        v = pullback_potential(g, u, h, -1.0)
        osc_trace[k] = u.max() - u.min()
        inverse_osc_trace[k] = v.max() - v.min()
        harmonic_trace[k] = np.abs(h).sum()
    return (LengthReport(times.copy(), osc_trace, harmonic_trace),
            LengthReport(times.copy(), inverse_osc_trace, harmonic_trace.copy()))


def inverse_lengths(isotopy: Isotopy | ConcatTrace) -> LengthReport:
    """Length report of the inverse path, :func:`two_way_lengths`' second."""
    return two_way_lengths(isotopy)[1]


def vector_field_b_norm(torus: FlatTorus, samples: np.ndarray) -> float:
    """Norm ``osc(U_X) + |H_X|`` of a symplectic vector field.

    Defined through the Hodge split of the contraction ``i(X)omega``; with
    this choice the length l_B is the time integral of the velocity norm.
    """
    form = hodge_decompose(torus, contract_field_to_coeffs(torus.check_vector(samples)))
    if form.coexact_sup > flow_tolerance(torus.grid_res, 100.0):
        raise ValueError(
            f"field is not symplectic (coexact residual {form.coexact_sup:.2e})"
        )
    return osc(form.potential) + harmonic_norm(form.harmonic)


# ---------------------------------------------------------------------------
# Hodge splitting of an isotopy
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SplitRemainder:
    """The Hamiltonian remainder ``rho_t^{-1} o phi_t`` of a Hodge split, replayed.

    Slice k is ``path.disp[k] - rho.disp[k]`` (slice 0 the exact +0.0),
    made when it is read, in the layout a stored difference stack's slice
    has, so it is that slice bit for bit.  Its generator ``(U_t o rho_t -
    mean, 0)`` is computed from :func:`generator_of` of ``path`` only when
    :meth:`generator` is first read, so a path with no trace and no
    provenance field pays its data-route ``U`` (one Newton inversion per
    slice) only then, and once: the remainder keeps that pair.  It answers
    the path protocol (``times``, ``last``, ``slices()``, ``generator()``,
    ``time_one()``) and :meth:`velocity_samples`.
    """

    path: Isotopy
    rho: Isotopy
    provenance = None  # no field generates it: orbits go through ``time_one()``

    @property
    def torus(self) -> FlatTorus:
        return self.path.torus

    @property
    def times(self) -> np.ndarray:
        return self.path.times

    @property
    def steps(self) -> int:
        return self.path.steps

    def slice_at(self, k: int) -> np.ndarray:
        """Slice k (negative k counts from the end, as in a stack)."""
        out = self.path.disp[k] - self.rho.disp[k]
        if k % (self.steps + 1) == 0:
            out[...] = 0.0  # the identity slice, +0.0 as a stored path's
        return out

    @property
    def last(self) -> np.ndarray:
        return self.slice_at(-1)

    def time_one(self) -> GridMap:
        return GridMap(self.torus, self.last)

    def slices(self):
        """Yield the displacement slices, shape ``(d,) + grid``."""
        return map(self.slice_at, range(self.steps + 1))

    def velocity_samples(self, k: int) -> np.ndarray:
        """:meth:`Isotopy.velocity_samples` of the remainder's slices."""
        return velocity_stencil(self.slice_at, k, self.times)

    @functools.cached_property
    def _path_generator(self) -> GeneratorPair:
        return generator_of(self.path)

    def generator(self):
        """Yield the generator slices ``(u_k, h_k)``; ``h_k`` is 0."""
        gen = self._path_generator
        for k in range(self.steps + 1):
            vals = GridMap(self.torus, self.rho.disp[k]).compose_field(gen.U[k])
            yield vals - vals.mean(), np.zeros(self.torus.dim)


@dataclass(frozen=True)
class HodgeSplit:
    """Factorization phi_t = rho_t o psi_t into harmonic and Hamiltonian parts."""

    harmonic_path: Isotopy
    remainder: SplitRemainder
    remainder_flux: float
    harmonic_consistency: float


def hodge_split_isotopy(isotopy: Isotopy) -> HodgeSplit:
    """Split off the translation path of the harmonic generator part.

    For volume-preserving paths the translation shift of the harmonic part
    equals the mean lifted displacement trace exactly (the start-point mean
    of the velocity is the harmonic field), so rho is read off the data with
    no quadrature.  The remainder ``rho_t^{-1} o phi_t`` is the displacement
    minus that shift; its flux class vanishes by construction and its
    generator has no harmonic part.  ``harmonic_consistency`` reports the
    gap between the differenced shift and the generator's harmonic trace;
    a gap above 1e-3 raises.

    rho is the :func:`~torusflux.flows.translation_path` of the ``(K+1, d)``
    shift: its stack and its all-zero ``U`` are read-only broadcasts, not
    dense ``(K+1, d) + grid`` arrays.  The harmonic trace is
    :func:`~torusflux.flows.harmonic_trace`'s, so a path with no trace and
    no provenance field inverts no slice; each of its slices passes the
    fold-over guard :meth:`GridMap.check_unfolded` instead, which raises
    :class:`InversionError` naming the slice.  The remainder is a
    :class:`SplitRemainder`, which stores no slice and builds its generator
    only when it is read.
    """
    torus = isotopy.torus
    if isotopy.gen is None and isotopy.provenance is None:
        for _ in _unfolded(torus, isotopy.slices()):
            pass
    H = harmonic_trace(isotopy)
    k1 = isotopy.steps + 1
    shift = isotopy.disp.reshape(k1, torus.dim, -1).mean(axis=2)  # (K+1, d)
    # +0.0, the mean of the identity slice: rho starts at the identity
    assert not shift[0].any() and not np.signbit(shift[0]).any()
    rho = translation_path(torus, isotopy.times.copy(), shift, H.copy())
    remainder = SplitRemainder(isotopy, rho)
    rem_flux = flux_class(remainder).norm()
    # consistency in integral form: the mean-displacement shift must retrace
    # the time integral of the rotated harmonic trace (differencing across
    # cutoff layers would drown in their high derivatives)
    expected = cumulative_simpson(
        rotate_coeffs_to_field(H.T).T, isotopy.times, 0, 0.0
    )
    consistency = float(np.abs(shift - expected).max())
    if consistency > 1e-3:
        raise ValueError(
            f"harmonic trace and mean displacement disagree ({consistency:.3e})"
        )
    return HodgeSplit(rho, remainder, rem_flux, consistency)


# ---------------------------------------------------------------------------
# deformation of harmonic families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DeformationFamily:
    """Two-parameter deformation data of a zero-mean-flux harmonic family."""

    s_grid: np.ndarray
    t_grid: np.ndarray
    x_coeffs: np.ndarray  # (T, d) harmonic coefficients of X_t
    z_field: np.ndarray  # (S, T, d) values of Z_{s,t}
    g_shift: np.ndarray  # (S, T, d) translation vectors of G_{s,t}
    v_field: np.ndarray  # (S, T, d) t-velocities of G
    sup_x_b: float
    sup_v_b: float
    endpoint_residual: float

    def slope_margin(self) -> float:
        """Margin of ``sup|V|/(1 + sup|V|) <= 6 sup|X|`` (>= 0 on pass)."""
        lhs = self.sup_v_b / (1.0 + self.sup_v_b)
        return 6.0 * self.sup_x_b - lhs

    def oscillation_bound_rows(self) -> list[tuple[float, float, float]]:
        """(u, osc value, bound) rows for the companion oscillation bound,
        on 5 x 5 sampled (s, t) pairs.

        The integrand ``omega(Z, V)`` is spatially constant for harmonic
        (translation) fields, so the oscillation side vanishes identically;
        the rows keep the computed values for the record.
        """
        rows = []
        idx = np.linspace(0, len(self.s_grid) - 1, 5).astype(int)
        bound = 6.0 * self.sup_v_b * self.sup_x_b
        for j in np.linspace(0, len(self.t_grid) - 1, 5).astype(int):
            z = self.z_field[:, j, :]
            v = self.v_field[:, j, :]
            pairing = _omega_pairing(z, v)
            integral = cumulative_simpson(pairing, self.s_grid, 0, 0.0)
            for i in idx:
                rows.append((float(self.s_grid[i]), 0.0 * float(integral[i]), bound))
        return rows


def _omega_pairing(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """omega(a, b) per symplectic pair for vectors stacked on the last axis."""
    out = np.zeros(a.shape[:-1])
    for i in range(0, a.shape[-1], 2):
        out += a[..., i] * b[..., i + 1] - a[..., i + 1] * b[..., i]
    return out


def mcduff_deformation(
    torus: FlatTorus,
    coeffs_of_t: Callable[[float], np.ndarray],
    s_res: int = 64,
    t_res: int = 64,
) -> DeformationFamily:
    """Deformation family of a harmonic family with zero mean flux.

    Builds ``Z_{s,t} = t X_{st} - 2 s int_0^t X`` on a dense (s, t) grid,
    integrates it in s into translation vectors G, and differences in t for
    V (``np.gradient``, second order at the edges).  Every integral, the
    mean flux, ``int_0^t X`` and G, is the running Simpson rule
    :func:`cumulative_simpson`.  Raises when the mean-flux hypothesis fails
    (mean flux above 1e-8).
    """
    t_grid = np.linspace(0.0, 1.0, t_res + 1)
    s_grid = np.linspace(0.0, 1.0, s_res + 1)
    coeffs = np.stack([np.asarray(coeffs_of_t(t), dtype=float) for t in t_grid])
    mean_flux = cumulative_simpson(coeffs, t_grid, 0, 0.0)[-1]
    if float(np.abs(mean_flux).max()) > 1e-8:
        raise ValueError(
            f"harmonic family has nonzero mean flux {mean_flux}"
        )
    x_fields = rotate_coeffs_to_field(coeffs.T).T  # (T, d)
    cum_x = cumulative_simpson(x_fields, t_grid, 0, 0.0)

    st = s_grid[:, None] * t_grid[None, :]
    # filled in place: a list of (S T) small arrays would outweigh the grid
    x_at_st = np.empty(st.shape + (torus.dim,))
    for idx, v in np.ndenumerate(st):
        x_at_st[idx] = rotate_coeffs_to_field(np.asarray(coeffs_of_t(v), dtype=float))
    z_field = (
        t_grid[None, :, None] * x_at_st
        - 2.0 * s_grid[:, None, None] * cum_x[None, :, :]
    )
    g_shift = cumulative_simpson(z_field, s_grid, 0, 0.0)
    v_field = np.gradient(g_shift, t_grid, axis=1, edge_order=2)

    sup_x_b = float(np.abs(coeffs).sum(axis=1).max())
    sup_v_b = float(np.abs(contract_field_to_coeffs(v_field.T)).sum(axis=0).max())
    # G_{s,1} must be the harmonic path at parameter s: integral of X over [0, s]
    x_at_s = np.stack(
        [rotate_coeffs_to_field(np.asarray(coeffs_of_t(s), dtype=float))
         for s in s_grid]
    )
    cum_x_s = cumulative_simpson(x_at_s, s_grid, 0, 0.0)
    endpoint_residual = float(np.abs(g_shift[:, -1, :] - cum_x_s).max())
    return DeformationFamily(
        s_grid, t_grid, coeffs, z_field, g_shift, v_field,
        sup_x_b, sup_v_b, endpoint_residual,
    )


# ---------------------------------------------------------------------------
# straightening a zero-flux path
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FgeoReport:
    """Audit of the zero-flux straightening construction."""

    harmonic_residual: float
    endpoint_gap: float


def fgeo_deformation(isotopy: Isotopy) -> tuple[SplitRemainder, FgeoReport]:
    """Deform a zero-flux symplectic path into a Hamiltonian one.

    The harmonic part rho of the Hodge split is post-composed with the s=1
    slice of the flows of ``Y_t = - int_0^t X_u du``; on the torus these are
    translations cancelling rho, and what remains is the Hamiltonian
    remainder with the same endpoints.  The report carries the harmonic
    residual of the output generator measured from the displacement data and
    the endpoint gap.  The output is the split's replayed
    :class:`SplitRemainder`: no slice of it is stored.
    """
    torus = isotopy.torus
    fc = flux_class(isotopy)
    if fc.norm() > flow_tolerance(torus.grid_res, 10.0):
        raise ValueError(f"nonzero flux {fc.pairings}; cannot straighten")
    # theta^t_1 undoes the translation rho_t exactly, so theta o phi is the remainder
    out = hodge_split_isotopy(isotopy).remainder
    # harmonic residual from the data: grid mean of i(velocity)omega
    ks = np.unique(np.linspace(0, out.steps, 9).astype(int))
    worst = 0.0
    for k in ks:
        w = out.velocity_samples(k)
        coeffs = contract_field_to_coeffs(w).reshape(torus.dim, -1).mean(axis=1)
        worst = max(worst, float(np.abs(coeffs).sum()))
    endpoint_gap = out.time_one().c0_distance(isotopy.time_one())
    return out, FgeoReport(worst, endpoint_gap)


# ---------------------------------------------------------------------------
# iteration growth
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GrowthRow:
    power: int
    flux_norm: float
    flux_linearity_residual: float
    length: float
    ratio: float


@dataclass(frozen=True)
class GrowthReport:
    k0: float
    rows: list[GrowthRow]

    @property
    def min_ratio_margin(self) -> float:
        return min(r.ratio - self.k0 for r in self.rows)

    @property
    def all_nonidentity(self) -> bool:
        return all(r.flux_norm > 0 for r in self.rows)


def iteration_growth_check(isotopy: Isotopy, max_power: int = 10) -> GrowthReport:
    """Linear growth of the Hofer-like length along iterates.

    The flux pairing of the maximizing coordinate class (a unit vector for
    the coefficient l1-norm) bounds ``l_B(Psi^l) / l`` from below.  The
    iterate's endpoint flux is measured from the lifted chain of time-one
    map applications and its length from the reparametrized generator
    trace, without materializing the full iterate displacement stacks.
    """
    fc = flux_class(isotopy)
    if fc.norm() <= 1e-12:
        raise ValueError("iteration growth requires a nonzero flux class")
    torus = isotopy.torus
    k0 = float(np.abs(fc.pairings).max())
    base = lengths(isotopy)
    psi = isotopy.time_one()
    rows = []
    anchors = torus.points.copy()
    for power in range(1, max_power + 1):
        anchors = psi.apply(anchors)  # lifted chain, power applications
        pairings = (anchors - torus.points).mean(axis=0)
        lin_res = float(np.abs(pairings - power * fc.pairings).max())
        # affine per-bin reparametrization scales the trace by the power
        lb = power * base.l1_length
        rows.append(
            GrowthRow(power, float(np.abs(pairings).max()), lin_res, lb, lb / power)
        )
    return GrowthReport(k0, rows)


# ---------------------------------------------------------------------------
# surrogate energies and norms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EnergySurrogate:
    """Candidate-family minima of the length functionals (upper bounds)."""

    labels: tuple[str, ...]
    e0: float
    e0_inf: float


def energy_surrogate(
    target: GridMap, candidates: Sequence[tuple[str, Isotopy | ConcatTrace]]
) -> EnergySurrogate:
    """Family minimum of l_B and l_B_inf over isotopies reaching the target.

    A candidate is an isotopy or the :class:`~torusflux.paths.ConcatTrace`
    of a concatenation; only its time-one map and its generator trace are
    read.  Candidates whose time-one map misses the target beyond MATCH_TOL
    are rejected; an empty family is an error.
    """
    kept: list[tuple[str, Isotopy | ConcatTrace]] = []
    for label, iso in candidates:
        gap = iso.time_one().c0_distance(target)
        if gap <= MATCH_TOL:
            kept.append((label, iso))
    if not kept:
        raise ValueError("no candidate isotopy reaches the target map")
    reports = [lengths(iso) for _, iso in kept]
    return EnergySurrogate(
        labels=tuple(label for label, _ in kept),
        e0=min(r.l1_length for r in reports),
        e0_inf=min(r.linf_length for r in reports),
    )


def energy_invariance_check(
    target: GridMap,
    candidates: Sequence[tuple[str, Isotopy]],
    loops: Sequence[tuple[str, Isotopy]],
) -> float:
    """Loop-concatenation invariance of the surrogate energy.

    Concatenating candidates with flux-matching loops (the trivial loop
    included) must not change the family minimum beyond quadrature noise,
    both families being upper bounds of the same infimum.  The left
    concatenations take 1600 time steps and are
    :func:`~torusflux.paths.concat_trace` replays: each keeps its pieces
    and its time-one map, and its length is read from the generator slices
    as they are replayed, with no stored trace or displacement stack.  Each
    length is the composite Simpson rule :func:`simpson` of its trace.  At
    1600 steps that integral of the cutoff rate over one half of the
    grid is 1 + 9.3e-10, so the concatenated lengths carry a quadrature
    error of that relative size; the row's 1e-9 tolerance is only 1.1 times
    larger.
    """
    plain = energy_surrogate(target, candidates)
    concatenated = []
    for c_label, iso in candidates:
        for l_label, loop in loops:
            concatenated.append(
                (f"{c_label}*{l_label}",
                 concat_trace(iso, loop, 1600, left=True))
            )
    looped = energy_surrogate(target, concatenated)
    return abs(plain.e0 - looped.e0)


@dataclass(frozen=True)
class NormComparisonReport:
    """Surrogate margins of the norm comparison inequalities.

    The left-hand side ``(|phi|_H + |rho|_H |psi|_H) / (1 + |rho|_H)`` of
    the split ``phi_t = rho_t o psi_t`` is ``hofer_surrogate`` (a length
    surrogate of ``|phi|_H``) on both branches: on the flat torus rho is a
    translation path, with no function part, so ``|rho|_H = 0``.  Both
    sides are family upper bounds, so positive margins certify consistency
    at family resolution.
    """

    hofer_surrogate: float
    e0_inf: float
    norm_hl: float
    margin_six: float
    margin_72_5: float | None
    margin_144_5: float

    @property
    def all_pass(self) -> bool:
        margins = [self.margin_six, self.margin_144_5]
        if self.margin_72_5 is not None:
            margins.append(self.margin_72_5)
        return all(m > 0 for m in margins)


def norm_comparison_check(
    target: GridMap,
    hamiltonian_paths: Sequence[tuple[str, Isotopy]],
    fluxed_path: Isotopy | ConcatTrace | None = None,
    matching_loop: Isotopy | None = None,
) -> NormComparisonReport:
    """Compare the Hofer norm surrogate with the Hofer-like energy bounds.

    The zero-flux branch is checked with its constant 6; when a path with
    nonzero flux and a flux-matching loop are supplied, the loop-corrected
    branch is checked with its constant 72/5, and the combined 12^2/5 bound
    against the symmetrized Hofer-like norm runs on all candidates.  No
    path is Hodge split, as ``|rho|_H = 0`` (:class:`NormComparisonReport`).
    The loop-corrected path, the fluxed path followed by the inverse loop,
    is read only through its lengths and its time-one map, so it is a
    :func:`~torusflux.paths.concat_trace` replay, not a stored stack; the
    fluxed path may be a replay too, read through a 4-slice time window
    as the corrected path is replayed, so no stack of either is held.  Each
    margin grants the surrogate a slack of 1e-3.
    """
    zero_flux: list[tuple[str, Isotopy]] = []
    for label, iso in hamiltonian_paths:
        if iso.time_one().c0_distance(target) > MATCH_TOL:
            continue
        if flux_class(iso).norm() > 1e-6:
            raise ValueError(f"candidate {label} is not a zero-flux path")
        zero_flux.append((label, iso))
    if not zero_flux:
        raise ValueError("norm comparison requires a zero-flux path to the target")

    reports, inv_reports = zip(*(two_way_lengths(iso) for _, iso in zero_flux))
    hofer_surrogate = 0.5 * (
        min(r.hofer_l1 for r in reports) + min(r.hofer_l1 for r in inv_reports)
    )
    e0_inf = min(r.linf_length for r in reports)
    margin_six = 6.0 * e0_inf + 1e-3 - hofer_surrogate

    margin_72_5 = None
    e0_list = [r.l1_length for r in reports]
    e0_inv_list = [r.l1_length for r in inv_reports]
    if fluxed_path is not None and matching_loop is not None:
        gap = float(
            np.abs(
                flux_class(fluxed_path).pairings
                - flux_class(matching_loop).pairings
            ).max()
        )
        if gap > 1e-6:
            raise ValueError("loop flux does not match the path flux")
        corrected = concat_trace(
            fluxed_path, inverse(matching_loop),
            max(600, fluxed_path.steps + matching_loop.steps), left=True,
        )
        if corrected.time_one().c0_distance(target) > MATCH_TOL:
            raise ValueError("loop-corrected path misses the target map")
        corr_report, corr_inverse = two_way_lengths(corrected)
        e0_inf_b = min(e0_inf, corr_report.linf_length)
        margin_72_5 = (72.0 / 5.0) * e0_inf_b + 1e-3 - hofer_surrogate
        e0_list.append(corr_report.l1_length)
        e0_inv_list.append(corr_inverse.l1_length)

    norm_hl = 0.5 * (min(e0_list) + min(e0_inv_list))
    margin_144_5 = (144.0 / 5.0) * norm_hl + 1e-3 - hofer_surrogate
    return NormComparisonReport(
        hofer_surrogate=hofer_surrogate,
        e0_inf=e0_inf,
        norm_hl=norm_hl,
        margin_six=margin_six,
        margin_72_5=margin_72_5,
        margin_144_5=margin_144_5,
    )
