"""Discrete Fourier-Lebesgue, wave-Sobolev and mixed space-time norms.

All frequency-side norms are quadrature-weighted sums over the lattice, so
they are Riemann approximations of their continuum counterparts; on nested
dyadic tori the homogeneous-norm scaling law holds exactly.  Exponent
bookkeeping (conjugates, Sobolev correspondence, critical exponents) is done
in exact rational arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .spectral_grid import (PHYSICAL, GridSpec, SpaceTimeField, SpatialField,
                            bracket_weight, require_dyadic, to_frequency,
                            to_physical)


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x).limit_denominator(10 ** 12)
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


@dataclass(frozen=True)
class RegularityParams:
    """The (s, sigma, b, epsilon) regularity tuple; sigma = s - 1 is derived."""

    s: float
    b: float
    eps: float
    n: int = 2

    @property
    def sigma(self) -> float:
        return self.s - 1

    def hypotheses_hold(self, r) -> bool:
        """1/r < b < 1 and eps in (0, 1 - b)."""
        r = float(r)
        return (1.0 / r < self.b < 1.0) and (0.0 < self.eps < 1.0 - self.b)


@dataclass(frozen=True)
class NormValue:
    """A nonnegative norm value tagged with its kind."""

    value: float
    kind: str
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("norms are nonnegative")

    def __float__(self):
        return self.value


def japanese_bracket(xi) -> float:
    """<xi> = sqrt(1 + |xi|^2) for a 2-vector xi."""
    x = np.asarray(xi, dtype=float)
    return float(math.sqrt(1.0 + x[0] ** 2 + x[1] ** 2))


def _conjugate(r) -> float:
    r = float(r)
    if not (1 < r <= 2):
        raise ValueError(f"Lebesgue exponent r must lie in (1, 2], got {r}")
    return r / (r - 1)


def fl_norm(f: SpatialField, r, s, homogeneous: bool = False) -> NormValue:
    """Fourier-Lebesgue data norm ( sum <xi>^{s p} |f-hat|^p dxi^2 )^{1/p}, p = r'.

    The homogeneous variant weights by |xi|^s and excludes the xi = 0 mode;
    a nonzero DC mode is reported in the result metadata, not an error.
    """
    p = _conjugate(r)
    fhat = to_frequency(f)
    x1, x2 = f.grid.spatial_frequency_mesh()
    mag = np.abs(fhat.values)
    meta = {}
    if homogeneous:
        r_xi = np.broadcast_to(np.sqrt(x1 ** 2 + x2 ** 2), mag.shape)
        dc = float(mag[0, 0])
        if dc > 0:
            meta["excluded_dc_mode"] = dc
        w = np.zeros_like(r_xi)
        nz = r_xi > 0
        w[nz] = r_xi[nz] ** s
        kind = "Homogeneous-FL"
    else:
        w = bracket_weight(np.sqrt(x1 ** 2 + x2 ** 2)) ** s
        kind = "FL"
    total = float(np.sum((w * mag) ** p)) * f.grid.spatial_freq_cell
    return NormValue(total ** (1.0 / p), kind, meta)


def xsb_norm(u: SpaceTimeField, r, s, b) -> NormValue:
    """Wave-Sobolev norm with weights <xi>^s <|tau|-|xi|>^b in L^{r'}."""
    p = _conjugate(r)
    uhat = to_frequency(u)
    tau, x1, x2 = u.grid.frequency_mesh()
    xi_mag = np.sqrt(x1 ** 2 + x2 ** 2)
    w = bracket_weight(xi_mag) ** s * bracket_weight(np.abs(tau) - xi_mag) ** b
    total = float(np.sum((w * np.abs(uhat.values)) ** p)) * u.grid.freq_cell
    return NormValue(total ** (1.0 / p), "Xsb")


def z_norm(u: SpaceTimeField, u_t: SpaceTimeField, r, s, b) -> NormValue:
    """Solution-space norm: |u|_{X(s,b)} + |du/dt|_{X(s-1,b)}."""
    if u.grid != u_t.grid:
        raise ValueError("z_norm requires u and u_t on the same grid")
    return NormValue(xsb_norm(u, r, s, b).value + xsb_norm(u_t, r, s - 1, b).value, "Z")


def mixed_norm(u: SpaceTimeField, q_t, rho_x) -> NormValue:
    """L^q in time of L^rho in space, with rho or q = inf taken as lattice max."""
    if u.rep != PHYSICAL:
        raise ValueError("mixed_norm expects a physical-representation field")
    mag = np.abs(u.values)
    meta = {}
    if math.isinf(rho_x):
        per_t = mag.max(axis=(1, 2))
        meta["spatial_linf"] = "lattice max"
    else:
        cell = u.grid.spatial_phys_cell
        per_t = (np.sum(mag ** rho_x, axis=(1, 2)) * cell) ** (1.0 / rho_x)
    if math.isinf(q_t):
        value = float(per_t.max())
        meta["temporal_linf"] = "lattice max"
    else:
        value = float((np.sum(per_t ** q_t) * u.grid.dt) ** (1.0 / q_t))
    return NormValue(value, "Mixed", meta)


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

    lam: float
    ratio: float
    predicted: float
    rel_error: float
    aliased: bool

    @property
    def skipped(self) -> bool:
        return self.aliased


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
        return ScalingReport(lam=float(lam), ratio=float("nan"),
                             predicted=predicted, rel_error=float("nan"),
                             aliased=True)
    base = fl_norm(f, r, s, homogeneous=True).value
    scaled = fl_norm(rescale_spatial(f, lam), r, s, homogeneous=True).value
    ratio = scaled / base
    return ScalingReport(lam=float(lam), ratio=ratio, predicted=predicted,
                         rel_error=abs(ratio - predicted) / predicted,
                         aliased=False)
