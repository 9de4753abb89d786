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


# (nx, spatial_period) -> read-only |xi| of the last lattice asked for
_XI_MAGNITUDE: dict = {}


@dataclass(frozen=True)
class GridSpec:
    """Periodic space-time lattice: nt points in time, nx per spatial axis.

    Both periods default to 2*pi, the spatial period of every experiment
    grid.  Frequency spacings are d_tau = 2*pi/time_period and d_xi =
    2*pi/spatial_period; the frequency lattice is the fftfreq integer
    lattice scaled by those spacings (the Nyquist row represents the
    +/- Nyquist frequency equivalently).
    """

    nx: int
    nt: int
    spatial_period: float = TWO_PI
    time_period: float = TWO_PI

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
        """|xi| on the spatial frequency lattice, shape (nx, nx), read-only.

        One array is shared by every grid of the same nx and spatial period
        (nt and the time period do not enter), and only the last lattice's
        is kept, so a run over one lattice computes it once; the random
        data, the data norms and the dispersive probe all read it.
        """
        key = (self.nx, self.spatial_period)
        if key not in _XI_MAGNITUDE:
            x1, x2 = self.spatial_frequency_mesh()
            mag = np.sqrt(x1 ** 2 + x2 ** 2)
            mag.flags.writeable = False
            _XI_MAGNITUDE.clear()
            _XI_MAGNITUDE[key] = mag
        return _XI_MAGNITUDE[key]

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

    @property
    def spatial_transform_factor(self) -> float:
        """dx^2 / (2 pi): the spatial forward transform is fft2 times this,
        the inverse ifft2 divided by it."""
        return self.spatial_phys_cell / TWO_PI


def _frozen(arr) -> bool:
    """True for a complex128 array that neither it nor any array it views
    can write, with its memory owned by numpy."""
    if not (isinstance(arr, np.ndarray) and arr.dtype == np.complex128):
        return False
    while isinstance(arr, np.ndarray):
        if arr.flags.writeable:
            return False
        arr = arr.base
    return arr is None


def _as_readonly(values, shape):
    """values as a read-only complex128 array of the given shape; a frozen
    array is shared, anything else is copied."""
    arr = values if _frozen(values) else np.array(values, dtype=np.complex128)
    if arr.shape != tuple(shape):
        raise ValueError(
            f"field values have shape {arr.shape}, expected {tuple(shape)}")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class _Field:
    """Read-only complex density on a GridSpec lattice; a subclass gives the
    lattice's _shape and the _forward_factor that transform applies."""

    grid: GridSpec
    values: np.ndarray = field(repr=False)
    rep: str = PHYSICAL

    def __post_init__(self):
        if self.rep not in (PHYSICAL, FREQUENCY):
            raise ValueError(f"unknown representation {self.rep!r}")
        object.__setattr__(self, "values", _as_readonly(self.values, self._shape))

    def with_values(self, values, rep=None):
        return type(self)(self.grid, values, self.rep if rep is None else rep)


class SpaceTimeField(_Field):
    """Complex density on the (t, x) or (tau, xi) lattice of a GridSpec."""

    _shape = property(lambda self: self.grid.shape)
    _forward_factor = property(lambda self: self.grid.phys_cell / TWO_PI ** 1.5)


class SpatialField(_Field):
    """Complex density on the x or xi lattice of a GridSpec (Cauchy data, f-hat)."""

    _shape = property(lambda self: self.grid.spatial_shape)
    _forward_factor = property(lambda self: self.grid.spatial_transform_factor)


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

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
    factor = fld._forward_factor
    if direction == "forward":
        out = np.fft.fftn(fld.values) * factor
        return fld.with_values(out, rep=FREQUENCY)
    out = np.fft.ifftn(fld.values) / factor
    return fld.with_values(out, rep=PHYSICAL)


def to_frequency(fld):
    return fld if fld.rep == FREQUENCY else transform(fld, "forward")


def to_physical(fld):
    return fld if fld.rep == PHYSICAL else transform(fld, "inverse")


def flip_wrap(a: np.ndarray) -> np.ndarray:
    """b[j] = a[(-j) mod n] along every axis.  For real x the DFT of the
    flip-wrap of x is the conjugate of the DFT of x, and a spectrum is that
    of real data exactly when it equals the conjugate of its flip-wrap."""
    return np.roll(a[(slice(None, None, -1),) * a.ndim], 1, axis=tuple(range(a.ndim)))


# ---------------------------------------------------------------------------
# frequency-region masks
# ---------------------------------------------------------------------------

def region_mask(grid: GridSpec, region) -> np.ndarray:
    """Boolean lattice mask of a frequency-space region descriptor."""
    tau, x1, x2 = grid.frequency_mesh()
    return np.broadcast_to(region.contains(tau, x1, x2), grid.shape)


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
    tau = fld.grid.frequency_mesh()[0]
    xi_mag = fld.grid.xi_magnitude()
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
        tau = grid.frequency_mesh()[0]
        top = float(np.max(bracket_weight(np.abs(tau) - grid.xi_magnitude())))
    else:
        top = float(np.max(bracket_weight(grid.xi_magnitude())))
    out = []
    N = 1
    while N <= top:
        out.append(N)
        N *= 2
    return out
