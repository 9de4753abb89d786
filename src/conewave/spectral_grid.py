"""Discrete space-time fields on periodic grids with exact Fourier duality.

Fields live on a periodic (t, x1, x2) lattice and its dual (tau, xi1, xi2)
frequency lattice.  The transform convention is the symmetric-2pi continuum
convention sampled on the torus: frequency-side values model the continuum
Fourier density, so quadrature-weighted sums over the frequency lattice are
Riemann sums of the corresponding continuum integrals.  With that convention
the forward/inverse pair is an exact bijection on lattice data and the
quadrature-weighted l2 norm is preserved on the nose (Plancherel).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * math.pi

PHYSICAL = "physical"
FREQUENCY = "frequency"


def is_dyadic(value) -> bool:
    """True if value is an exact power of two, 2**j with integer j >= 0."""
    if value != int(value) or value < 1:
        return False
    v = int(value)
    return v & (v - 1) == 0


def require_dyadic(name, value, minimum=1):
    """value as an int if it is a power of two >= minimum, else ValueError."""
    if not (is_dyadic(value) and value >= minimum):
        raise ValueError(
            f"{name} must be a dyadic value 2**j >= {minimum}, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class GridSpec:
    """Periodic space-time lattice: nt points in time, nx per spatial axis.

    Frequency spacings are d_tau = 2*pi/time_period and d_xi =
    2*pi/spatial_period; the frequency lattice is the fftfreq integer
    lattice scaled by those spacings (the Nyquist row represents the
    +/- Nyquist frequency equivalently).
    """

    nx: int
    nt: int
    spatial_period: float
    time_period: float

    def __post_init__(self):
        require_dyadic("nx", self.nx, minimum=8)
        require_dyadic("nt", self.nt, minimum=8)
        if not (self.spatial_period > 0 and self.time_period > 0):
            raise ValueError("grid periods must be strictly positive")

    # -- physical lattice -------------------------------------------------
    @property
    def dt(self) -> float:
        return self.time_period / self.nt

    @property
    def dx(self) -> float:
        return self.spatial_period / self.nx

    @property
    def t_axis(self) -> np.ndarray:
        return self.dt * np.arange(self.nt)

    @property
    def x_axis(self) -> np.ndarray:
        return self.dx * np.arange(self.nx)

    # -- frequency lattice -------------------------------------------------
    @property
    def d_tau(self) -> float:
        return TWO_PI / self.time_period

    @property
    def d_xi(self) -> float:
        return TWO_PI / self.spatial_period

    @property
    def tau_axis(self) -> np.ndarray:
        """Angular time frequencies in fft order."""
        return self.d_tau * self.nt * np.fft.fftfreq(self.nt)

    @property
    def xi_axis(self) -> np.ndarray:
        """Angular spatial frequencies (one axis) in fft order."""
        return self.d_xi * self.nx * np.fft.fftfreq(self.nx)

    @property
    def shape(self):
        return (self.nt, self.nx, self.nx)

    @property
    def spatial_shape(self):
        return (self.nx, self.nx)

    def frequency_mesh(self):
        """Sparse (tau, xi1, xi2) coordinate mesh over the full lattice."""
        return np.meshgrid(self.tau_axis, self.xi_axis, self.xi_axis,
                           indexing="ij", sparse=True)

    def spatial_frequency_mesh(self):
        """Sparse (xi1, xi2) coordinate mesh over the spatial lattice."""
        return np.meshgrid(self.xi_axis, self.xi_axis,
                           indexing="ij", sparse=True)

    def xi_magnitude(self) -> np.ndarray:
        """|xi| on the spatial frequency lattice, shape (nx, nx)."""
        x1, x2 = self.spatial_frequency_mesh()
        return np.sqrt(x1 ** 2 + x2 ** 2)

    # Quadrature cells for Riemann sums.
    @property
    def phys_cell(self) -> float:
        """dt * dx^2, the physical-space quadrature cell."""
        return self.dt * self.dx ** 2

    @property
    def freq_cell(self) -> float:
        """d_tau * d_xi^2, the frequency-space quadrature cell."""
        return self.d_tau * self.d_xi ** 2

    @property
    def spatial_phys_cell(self) -> float:
        return self.dx ** 2

    @property
    def spatial_freq_cell(self) -> float:
        return self.d_xi ** 2


def _as_readonly(values, shape):
    arr = np.asarray(values, dtype=np.complex128)
    if arr.shape != tuple(shape):
        raise ValueError(
            f"field values have shape {arr.shape}, expected {tuple(shape)}")
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class SpaceTimeField:
    """Complex density on the (t, x) or (tau, xi) lattice of a GridSpec."""

    grid: GridSpec
    values: np.ndarray = field(repr=False)
    rep: str = PHYSICAL

    def __post_init__(self):
        if self.rep not in (PHYSICAL, FREQUENCY):
            raise ValueError(f"unknown representation {self.rep!r}")
        object.__setattr__(self, "values", _as_readonly(self.values, self.grid.shape))

    def with_values(self, values, rep=None):
        return SpaceTimeField(self.grid, values, self.rep if rep is None else rep)


@dataclass(frozen=True)
class SpatialField:
    """A SpaceTimeField without the time axis; carries Cauchy data and f-hat."""

    grid: GridSpec
    values: np.ndarray = field(repr=False)
    rep: str = PHYSICAL

    def __post_init__(self):
        if self.rep not in (PHYSICAL, FREQUENCY):
            raise ValueError(f"unknown representation {self.rep!r}")
        object.__setattr__(self, "values",
                           _as_readonly(self.values, self.grid.spatial_shape))

    def with_values(self, values, rep=None):
        return SpatialField(self.grid, values, self.rep if rep is None else rep)


def zeros_like(fld):
    return fld.with_values(np.zeros_like(fld.values))


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

def _forward_factor(fld):
    if isinstance(fld, SpaceTimeField):
        return fld.grid.phys_cell / TWO_PI ** 1.5
    return fld.grid.spatial_phys_cell / TWO_PI


def transform(fld, direction):
    """Exact forward ("forward": physical -> frequency) or inverse DFT.

    The pair is an exact mutual inverse and preserves the quadrature-weighted
    l2 norm: sum |u|^2 * phys_cell == sum |u-hat|^2 * freq_cell.
    """
    if direction not in ("forward", "inverse"):
        raise ValueError(f"direction must be 'forward' or 'inverse', got {direction!r}")
    expected = PHYSICAL if direction == "forward" else FREQUENCY
    if fld.rep != expected:
        raise ValueError(
            f"transform {direction!r} expects a {expected} field, got {fld.rep}")
    factor = _forward_factor(fld)
    if direction == "forward":
        out = np.fft.fftn(fld.values) * factor
        return fld.with_values(out, rep=FREQUENCY)
    out = np.fft.ifftn(fld.values) / factor
    return fld.with_values(out, rep=PHYSICAL)


def to_frequency(fld):
    return fld if fld.rep == FREQUENCY else transform(fld, "forward")


def to_physical(fld):
    return fld if fld.rep == PHYSICAL else transform(fld, "inverse")


# ---------------------------------------------------------------------------
# frequency projections
# ---------------------------------------------------------------------------

def region_mask(grid: GridSpec, region) -> np.ndarray:
    """Boolean lattice mask of a frequency-space region descriptor."""
    tau, x1, x2 = grid.frequency_mesh()
    return np.broadcast_to(region.contains(tau, x1, x2), grid.shape)


def project(fld: SpaceTimeField, region) -> SpaceTimeField:
    """Multiply by the sharp characteristic function of `region`.

    Idempotent by construction; an empty region yields the zero field.
    """
    if fld.rep != FREQUENCY:
        raise ValueError("project expects a frequency-representation field")
    mask = region_mask(fld.grid, region)
    return fld.with_values(np.where(mask, fld.values, 0.0))


# ---------------------------------------------------------------------------
# dyadic restrictions
# ---------------------------------------------------------------------------

def bracket_weight(x):
    """Japanese bracket sqrt(1 + x^2), elementwise."""
    return np.sqrt(1.0 + np.asarray(x) ** 2)


def dyadic_restrict(fld: SpaceTimeField, N, L=None, sign=None) -> SpaceTimeField:
    """Sharp dyadic Fourier restriction of a frequency-representation field.

    Bands follow the convention <.> in [N, 2N): the N-band restricts
    <xi> = sqrt(1+|xi|^2), the optional L-band restricts the modulation
    <|tau|-|xi|>, and the optional sign restricts to +/- tau >= 0 with the
    tau = 0 plane assigned to the "+" class so signed bands still partition.
    """
    if fld.rep != FREQUENCY:
        raise ValueError("dyadic_restrict expects a frequency-representation field")
    N = require_dyadic("N", N)
    tau, x1, x2 = fld.grid.frequency_mesh()
    xi_mag = np.sqrt(x1 ** 2 + x2 ** 2)
    w = bracket_weight(xi_mag)
    mask = (w >= N) & (w < 2 * N)
    if L is not None:
        L = require_dyadic("L", L)
        mod = bracket_weight(np.abs(tau) - xi_mag)
        mask = mask & (mod >= L) & (mod < 2 * L)
    if sign is not None:
        if sign not in (+1, -1):
            raise ValueError(f"sign must be +1 or -1, got {sign!r}")
        mask = mask & ((tau >= 0) if sign > 0 else (tau < 0))
    mask = np.broadcast_to(mask, fld.grid.shape)
    return fld.with_values(np.where(mask, fld.values, 0.0))


def dyadic_band_values(grid: GridSpec, L_bands=False):
    """Dyadic values N (or L) that can carry nonzero lattice content."""
    if L_bands:
        tau, x1, x2 = grid.frequency_mesh()
        top = float(np.max(bracket_weight(np.abs(tau) - np.sqrt(x1 ** 2 + x2 ** 2))))
    else:
        top = float(np.max(bracket_weight(grid.xi_magnitude())))
    out = []
    N = 1
    while N <= top:
        out.append(N)
        N *= 2
    return out
