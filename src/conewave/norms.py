"""Discrete Fourier-Lebesgue and mixed space-time norms.

All frequency-side norms are quadrature-weighted sums over the lattice, so
they are Riemann approximations of their continuum counterparts; on nested
dyadic tori the homogeneous-norm scaling law holds exactly.  Exponent
bookkeeping (conjugates, Sobolev correspondence, critical exponents) is done
in exact rational arithmetic.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .spectral_grid import (PHYSICAL, GridSpec, SpaceTimeField, SpatialField,
                            bracket_weight, require_dyadic, to_frequency,
                            to_physical)


def _as_fraction(x) -> Fraction:
    if isinstance(x, numbers.Rational):     # int, Fraction, numpy integers
        return Fraction(x)
    if isinstance(x, numbers.Real):
        return Fraction(float(x)).limit_denominator(10 ** 12)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a rational")


@dataclass(frozen=True)
class LebesgueExponents:
    """A Lebesgue exponent r in (1, 2] and its exact conjugate p = r/(r-1)."""

    r: Fraction

    def __post_init__(self):
        object.__setattr__(self, "r", _as_fraction(self.r))
        if not (1 < self.r <= 2):
            raise ValueError(f"r must lie in (1, 2], got {self.r}")

    @property
    def p(self) -> Fraction:
        return self.r / (self.r - 1)


def fl_norm(f: SpatialField, r, s, homogeneous: bool = False) -> float:
    """Fourier-Lebesgue data norm ( sum <xi>^{s p} |f-hat|^p dxi^2 )^{1/p}, p = r'.

    The homogeneous variant weights by |xi|^s and excludes the xi = 0 mode.
    """
    p = float(LebesgueExponents(r).p)
    mag = np.abs(to_frequency(f).values)
    r_xi = f.grid.xi_magnitude()
    if homogeneous:
        w = np.zeros_like(r_xi)
        nz = r_xi > 0
        w[nz] = r_xi[nz] ** s
    else:
        w = bracket_weight(r_xi) ** s
    total = float(np.sum((w * mag) ** p)) * f.grid.spatial_freq_cell
    return total ** (1.0 / p)


def mixed_norm(u: SpaceTimeField, q_t, rho_x) -> float:
    """L^q in time of L^rho in space, with rho or q = inf taken as lattice max."""
    if u.rep != PHYSICAL:
        raise ValueError("mixed_norm expects a physical-representation field")
    mag = np.abs(u.values)
    if math.isinf(rho_x):
        per_t = mag.max(axis=(1, 2))
    else:
        cell = u.grid.spatial_phys_cell
        per_t = (np.sum(mag ** rho_x, axis=(1, 2)) * cell) ** (1.0 / rho_x)
    return _temporal_norm(per_t, q_t, u.grid.dt)


def _temporal_norm(per_t, q_t, dt) -> float:
    """L^{q_t} over the time lattice of per-slice values, q_t = inf as the max."""
    if math.isinf(q_t):
        return float(per_t.max())
    return float((np.sum(per_t ** q_t) * dt) ** (1.0 / q_t))


def spatial_l2(f: SpatialField) -> float:
    """Quadrature-weighted spatial l2 norm in either representation."""
    cell = f.grid.spatial_phys_cell if f.rep == PHYSICAL else f.grid.spatial_freq_cell
    return float(math.sqrt(np.sum(np.abs(f.values) ** 2) * cell))


def sobolev_correspondence(s, r, n=2) -> Fraction:
    """Sobolev regularity with the same scaling: sigma = s + n(1/2 - 1/r)."""
    s = _as_fraction(s)
    r = _as_fraction(r)
    if r <= 0:
        raise ValueError("r must be positive")
    return s + n * (Fraction(1, 2) - 1 / r)


def critical_exponent(r, n=2, equation: str = "grad_square") -> Fraction:
    """Scale-invariant data regularity: n/r for the gradient-squared equation,
    n/r - 1 for the derivative-of-square equation."""
    r = _as_fraction(r)
    if r <= 0:
        raise ValueError("r must be positive")
    if equation == "grad_square":
        return n / r
    if equation == "deriv_of_square":
        return n / r - 1
    raise ValueError(f"unknown equation kind {equation!r}")


@dataclass(frozen=True)
class ScalingReport:
    """Outcome of one homogeneous-norm scaling check."""

    ratio: float
    predicted: float
    rel_error: float
    aliased: bool


def rescale_spatial(f: SpatialField, lam: int) -> SpatialField:
    """Realize f(lam * x) on the lam-times-finer nested torus.

    The rescaled torus has period spatial_period/lam, so the samples of
    f(lam*x) on it coincide with the samples of f on the base torus; only
    the grid metadata changes.
    """
    require_dyadic("scaling factor", lam)
    phys = to_physical(f)
    g = f.grid
    g2 = GridSpec(nx=g.nx, nt=g.nt, spatial_period=g.spatial_period / lam,
                  time_period=g.time_period)
    return SpatialField(g2, phys.values, PHYSICAL)


def scaling_law_check(f: SpatialField, s, r, lam) -> ScalingReport:
    """Compare |f_lam| / |f| in the homogeneous data norm against lam^{s - n/r}.

    Fields with content on the Nyquist plane are reported as aliased and the
    check is skipped: the Nyquist frequency's sign is ambiguous on the
    lattice, so its rescaled weight is convention-dependent.
    """
    lam = int(lam)
    fhat = to_frequency(f)
    nyq1 = np.abs(fhat.values[f.grid.nx // 2, :]).max()
    nyq2 = np.abs(fhat.values[:, f.grid.nx // 2]).max()
    scale = np.abs(fhat.values).max()
    predicted = float(lam) ** (s - 2.0 / float(r))
    if scale > 0 and max(nyq1, nyq2) > 1e-13 * scale:
        return ScalingReport(ratio=float("nan"), predicted=predicted,
                             rel_error=float("nan"), aliased=True)
    base = fl_norm(f, r, s, homogeneous=True)
    scaled = fl_norm(rescale_spatial(f, lam), r, s, homogeneous=True)
    ratio = scaled / base
    return ScalingReport(ratio=ratio, predicted=predicted,
                         rel_error=abs(ratio - predicted) / predicted,
                         aliased=False)
