"""Discretized flat torus T^d = R^d/Z^d with spectral calculus.

The torus carries the standard volume form (total volume 1 by default) and,
in even dimension, the standard symplectic form
``omega = dx_1 ^ dx_2 + dx_3 ^ dx_4 + ...``.  All functions and form
components are sampled on a uniform N^d grid; scalar fields are plain
``(N,)*d`` arrays indexed by grid multi-index, vector-valued fields carry the
component axis first, shape ``(d,) + (N,)*d``.  Point sets carry the
component axis last, shape ``(..., d)``.

Derivatives and Poisson solves are spectral (FFT), so quadrature and the
Hodge splitting are exact to machine precision on band-limited data.  Closed
1-forms are stored split as

    alpha = sum_i c_i dx_i + dF,

a constant (harmonic) coefficient vector plus the differential of a
mean-zero potential; line integrals of closed forms then need only the
lifted endpoints of the path.

Conventions fixed here and used throughout the package:

* contraction with the symplectic form: ``i(X)(dx ^ dy) = X^1 dy - X^2 dx``;
* harmonic 1-forms are normed by ``|c| = sum_i |c_i|`` (the coefficient
  l1-norm in the {dx_i} basis); the pointwise dual norm is then the
  coefficient max-norm, and ``sup_norm <= harmonic_norm`` holds for every
  harmonic form;
* minimal geodesics are straight segments of the minimal lift; exactly
  antipodal coordinates use the representative -1/2, which is the
  lexicographically smallest choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import ndimage


class InversionError(RuntimeError):
    """A grid map could not be inverted (fold-over or non-convergence)."""


class IntegrationError(RuntimeError):
    """A flow integration produced non-finite values."""


@dataclass(frozen=True)
class FlatTorus:
    """Uniformly discretized flat torus R^d/Z^d.

    Parameters
    ----------
    dim:
        Dimension d >= 2.
    grid_res:
        Points per axis, N >= 8 and even (FFT friendly).
    volume_scale:
        Total volume; the standard orientation form gives 1.
    symplectic:
        Whether the torus carries the standard symplectic form (even d only).
    """

    dim: int
    grid_res: int
    volume_scale: float = 1.0
    symplectic: bool = False

    def __post_init__(self) -> None:
        if self.dim < 2:
            raise ValueError(f"dim must be >= 2, got {self.dim}")
        if self.grid_res < 8 or self.grid_res % 2:
            raise ValueError(f"grid_res must be even and >= 8, got {self.grid_res}")
        if self.symplectic and self.dim % 2:
            raise ValueError("symplectic structure requires even dimension")

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.grid_res,) * self.dim

    @property
    def spacing(self) -> float:
        return 1.0 / self.grid_res

    @property
    def injectivity_radius(self) -> float:
        return 0.5

    @property
    def area(self) -> float:
        """Symplectic area; on surfaces it equals the volume."""
        return self.volume_scale

    @cached_property
    def axis(self) -> np.ndarray:
        return np.arange(self.grid_res) / self.grid_res

    @cached_property
    def grid(self) -> np.ndarray:
        """Grid coordinates, shape ``(d,) + (N,)*d``."""
        mesh = np.meshgrid(*([self.axis] * self.dim), indexing="ij")
        return np.stack(mesh)

    @cached_property
    def points(self) -> np.ndarray:
        """Grid coordinates flattened to ``(N^d, d)``."""
        return self.grid.reshape(self.dim, -1).T.copy()

    @cached_property
    def freq(self) -> np.ndarray:
        """Angular frequencies 2*pi*m per axis, shape (N,)."""
        return 2.0 * np.pi * np.fft.fftfreq(self.grid_res, d=self.spacing)

    def _freq_along(self, axis: int) -> np.ndarray:
        shape = [1] * self.dim
        shape[axis] = self.grid_res
        return self.freq.reshape(shape)

    def check_scalar(self, f: np.ndarray) -> np.ndarray:
        f = np.asarray(f, dtype=float)
        if f.shape != self.shape:
            raise ValueError(f"scalar field shape {f.shape} != grid {self.shape}")
        return f

    def check_vector(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape != (self.dim,) + self.shape:
            raise ValueError(
                f"vector field shape {v.shape} != {(self.dim,) + self.shape}"
            )
        return v


# ---------------------------------------------------------------------------
# quadrature and spectral derivatives
# ---------------------------------------------------------------------------


def integrate(torus: FlatTorus, f: np.ndarray) -> float:
    """Integral of a scalar field against the volume form.

    The periodic trapezoid rule on a uniform grid is the plain sample mean,
    spectrally accurate for smooth periodic integrands.
    """
    f = torus.check_scalar(f)
    return float(f.mean() * torus.volume_scale)


def osc(f: np.ndarray) -> float:
    """Oscillation max(f) - min(f) over the grid."""
    f = np.asarray(f)
    return float(f.max() - f.min())


def grad(torus: FlatTorus, f: np.ndarray) -> np.ndarray:
    """Spectral gradient of a scalar field, shape ``(d,) + grid``."""
    f = torus.check_scalar(f)
    fhat = np.fft.fftn(f)
    out = np.empty((torus.dim,) + torus.shape)
    for j in range(torus.dim):
        out[j] = np.fft.ifftn(1j * torus._freq_along(j) * fhat).real
    return out


def divergence(torus: FlatTorus, v: np.ndarray) -> np.ndarray:
    """Spectral divergence of a vector field."""
    v = torus.check_vector(v)
    out = np.zeros(torus.shape, dtype=complex)
    for j in range(torus.dim):
        out += 1j * torus._freq_along(j) * np.fft.fftn(v[j])
    return np.fft.ifftn(out).real


def solve_poisson(torus: FlatTorus, rhs: np.ndarray) -> np.ndarray:
    """Mean-zero solution of ``Laplace(F) = rhs`` (rhs must be mean-free)."""
    rhs = torus.check_scalar(rhs)
    k2 = np.zeros(torus.shape)
    for j in range(torus.dim):
        k2 = k2 + torus._freq_along(j) ** 2
    k2[(0,) * torus.dim] = 1.0
    fhat = np.fft.fftn(rhs) / (-k2)
    fhat[(0,) * torus.dim] = 0.0
    return np.fft.ifftn(fhat).real


# ---------------------------------------------------------------------------
# metric utilities
# ---------------------------------------------------------------------------


def wrap(points: np.ndarray) -> np.ndarray:
    """Reduce coordinates to the fundamental domain [0, 1)."""
    return np.asarray(points, dtype=float) % 1.0


def torus_displacement(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Minimal-lift representative of q - p, componentwise in [-1/2, 1/2)."""
    delta = np.asarray(q, dtype=float) - np.asarray(p, dtype=float)
    return delta - np.floor(delta + 0.5)


def torus_distance(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Flat distance on the torus (Euclidean norm of the minimal lift)."""
    return np.linalg.norm(torus_displacement(p, q), axis=-1)


def minimal_geodesic(p: np.ndarray, q: np.ndarray, samples: int = 33) -> np.ndarray:
    """Sampled minimal geodesic from p to q as a lifted path, shape (S, d).

    The path starts at the given representative of p and moves along the
    straight segment of the minimal lift of q; antipodal ties take the
    -1/2 displacement representative.
    """
    p = np.asarray(p, dtype=float)
    delta = torus_displacement(p, q)
    s = np.linspace(0.0, 1.0, samples)
    return p[None, :] + s[:, None] * delta[None, :]


# ---------------------------------------------------------------------------
# off-grid evaluation
# ---------------------------------------------------------------------------


class PeriodicInterp:
    """Periodic cubic-spline evaluation of grid samples at arbitrary points.

    ``samples`` may be a scalar field or a stack of fields with leading
    component axes; evaluation returns the stacked values with the component
    axes moved last.
    """

    def __init__(self, torus: FlatTorus, samples: np.ndarray):
        samples = np.asarray(samples, dtype=float)
        if samples.shape[-torus.dim :] != torus.shape:
            raise ValueError("samples do not match the grid")
        self.torus = torus
        self._lead = samples.shape[: -torus.dim]
        self._coeffs = [
            ndimage.spline_filter(c, order=3, mode="grid-wrap")
            for c in samples.reshape((-1,) + torus.shape)
        ]

    def at(self, points: np.ndarray) -> np.ndarray:
        """Values at ``points`` of shape (..., d); returns (..., *lead)."""
        points = np.asarray(points, dtype=float)
        squeeze = points.ndim == 1
        if squeeze:
            points = points[None, :]
        idx = (points % 1.0) * self.torus.grid_res
        coords = np.moveaxis(idx, -1, 0)
        vals = [
            ndimage.map_coordinates(
                c, coords, order=3, mode="grid-wrap", prefilter=False
            )
            for c in self._coeffs
        ]
        out = np.stack(vals, axis=-1).reshape(points.shape[:-1] + self._lead)
        return out[0] if squeeze else out


def eval_spectral(torus: FlatTorus, samples: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Trigonometric (exact for band-limited data) evaluation at points.

    Slower than :class:`PeriodicInterp` but free of spline error; used by
    oracles and high-accuracy line integrals.
    """
    f = torus.check_scalar(samples)
    points = np.atleast_2d(np.asarray(points, dtype=float))
    fhat = np.fft.fftn(f) / f.size
    acc: np.ndarray = fhat
    modes = np.fft.fftfreq(torus.grid_res, d=1.0 / torus.grid_res)
    for axis in range(torus.dim):
        basis = np.exp(2j * np.pi * np.outer(points[:, axis], modes))
        if axis == 0:
            acc = np.einsum("pa,a...->p...", basis, acc)
        else:
            acc = np.einsum("pa,pa...->p...", basis, acc)
    return acc.real


# ---------------------------------------------------------------------------
# one-forms, cohomology, flux pairings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OneForm:
    """Closed 1-form split into harmonic coefficients plus an exact part.

    ``harmonic[i]`` multiplies dx_i; ``potential`` is the mean-zero function
    F with exact part dF.  ``residual`` keeps the coexact leftover of a
    decomposition of non-closed input; it is never silently dropped.
    """

    torus: FlatTorus
    harmonic: np.ndarray
    potential: np.ndarray
    residual: np.ndarray | None = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "harmonic", np.asarray(self.harmonic, dtype=float).reshape(-1)
        )
        if self.harmonic.shape != (self.torus.dim,):
            raise ValueError("harmonic coefficient count != dim")
        object.__setattr__(self, "potential", self.torus.check_scalar(self.potential))

    @classmethod
    def harmonic_form(cls, torus: FlatTorus, coeffs) -> "OneForm":
        return cls(torus, np.asarray(coeffs, dtype=float), np.zeros(torus.shape))

    @classmethod
    def exact_form(cls, torus: FlatTorus, potential: np.ndarray) -> "OneForm":
        potential = torus.check_scalar(potential)
        return cls(torus, np.zeros(torus.dim), potential - potential.mean())

    def samples(self) -> np.ndarray:
        """Componentwise samples on the grid, shape ``(d,) + grid``."""
        out = grad(self.torus, self.potential)
        out += self.harmonic.reshape((-1,) + (1,) * self.torus.dim)
        if self.residual is not None:
            out += self.residual
        return out

    @property
    def coexact_sup(self) -> float:
        """Sup norm of the non-closed leftover (0 for closed forms)."""
        if self.residual is None:
            return 0.0
        return float(np.abs(self.residual).max())


@dataclass(frozen=True)
class FluxClass:
    """Flux functional of an isotopy stored as the d pairings with [dx_i]."""

    pairings: np.ndarray
    conservative_residual: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "pairings", np.asarray(self.pairings, dtype=float))

    def norm(self) -> float:
        return float(np.abs(self.pairings).max())


def hodge_decompose(torus: FlatTorus, beta: np.ndarray, tol: float = 1e-8) -> OneForm:
    """Split sampled 1-form components into harmonic + exact (+ coexact).

    Harmonic coefficients are the componentwise grid means; the potential is
    recovered by Fourier inversion of the divergence.  Non-closed input
    leaves a coexact residual which is kept on the result (``coexact_sup``
    reports its size) rather than dropped.
    """
    beta = torus.check_vector(beta)
    coeffs = beta.reshape(torus.dim, -1).mean(axis=1)
    centered = beta - coeffs.reshape((-1,) + (1,) * torus.dim)
    potential = solve_poisson(torus, divergence(torus, centered))
    residual = centered - grad(torus, potential)
    if float(np.abs(residual).max()) <= tol:
        residual_field = None
    else:
        residual_field = residual
    return OneForm(torus, coeffs, potential, residual_field)


def line_integral(form: OneForm, path: np.ndarray, closed_tol: float = 1e-6) -> float:
    """Integral of a closed 1-form along a lifted path.

    ``path`` is an ordered array of samples of a lift to R^d, shape (S, d)
    with S >= 2; tracking the lift makes winding contributions exact.  The
    value depends only on the endpoints of the lift:

        sum_i c_i (end_i - start_i) + F(end) - F(start).
    """
    path = np.asarray(path, dtype=float)
    if path.ndim != 2 or path.shape[0] < 2:
        raise ValueError("path must have at least two samples of shape (S, d)")
    if path.shape[1] != form.torus.dim:
        raise ValueError("path dimension != torus dimension")
    if form.coexact_sup > closed_tol:
        raise ValueError(
            f"form is not closed (coexact residual {form.coexact_sup:.3e})"
        )
    delta = path[-1] - path[0]
    value = float(form.harmonic @ delta)
    if np.any(form.potential):
        ends = eval_spectral(form.torus, form.potential, np.stack([path[-1], path[0]]))
        value += float(ends[0] - ends[1])
    return value


def integrate_form_along_path(
    torus: FlatTorus, components: np.ndarray, path: np.ndarray
) -> float:
    """Quadrature of an arbitrary sampled 1-form along a lifted path.

    Per-segment Simpson rule (segments treated as straight) with
    trigonometric evaluation: the independent oracle against which the
    endpoint formula of :func:`line_integral` is tested.
    """
    components = torus.check_vector(components)
    path = np.asarray(path, dtype=float)
    mids = 0.5 * (path[1:] + path[:-1])
    segs = path[1:] - path[:-1]
    nodes = np.concatenate([path, mids])
    vals = np.stack(
        [eval_spectral(torus, components[j], nodes) for j in range(torus.dim)],
        axis=-1,
    )
    ends = vals[: len(path)]
    mid_vals = vals[len(path) :]
    weighted = (ends[:-1] + 4.0 * mid_vals + ends[1:]) / 6.0
    return float(np.einsum("sd,sd->", weighted, segs))


def poincare_pair(c: np.ndarray, flux: FluxClass | np.ndarray) -> float:
    """Poincare pairing of a degree-1 class with a flux class.

    The class is given by its coefficients in the basis {[dx_i]}; on the
    torus with the chosen bases the pairing is the plain dot product.
    """
    cv = np.asarray(c, dtype=float)
    fv = flux.pairings if isinstance(flux, FluxClass) else np.asarray(flux, dtype=float)
    if cv.shape != fv.shape:
        raise ValueError(f"dimension mismatch {cv.shape} vs {fv.shape}")
    return float(cv @ fv)


def harmonic_norm(coeffs: np.ndarray) -> float:
    """l1 norm of harmonic coefficients in the {dx_i} basis."""
    return float(np.abs(np.asarray(coeffs, dtype=float)).sum())


def sup_norm(form: OneForm | np.ndarray, torus: FlatTorus | None = None) -> float:
    """Grid sup of the pointwise dual norm of a 1-form.

    The dual norm pairs against tangent vectors of unit l1 length, so it is
    the max over components; ``sup_norm(h) <= harmonic_norm(h)`` for every
    harmonic form.
    """
    if isinstance(form, OneForm):
        comps = form.samples()
    else:
        if torus is None:
            raise ValueError("torus required for raw component samples")
        comps = torus.check_vector(form)
    return float(np.abs(comps).max())
