"""Pseudospectral local-in-time solver for the quadratic-derivative wave equation.

The Cauchy problem u_tt - Laplace(u) = N(u, du) on the periodic spatial grid
is solved two independent ways: a fixed-point iteration on the integral
solution map (half-wave propagator plus a trapezoid-quadrature inhomogeneous
term), and a classical RK4 method-of-lines oracle on the first-order system.
Spatial derivatives are spectral throughout; quadratic products are
de-aliased with the 2/3 rule.  The solvers carry every slice as a
numpy spectrum and return the stack of spectra; a Trajectory builds physical
SpatialFields only when they are read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from fractions import Fraction

import numpy as np

from .norms import LebesgueExponents, _as_fraction, _temporal_norm, fl_norm
from .spectral_grid import (FREQUENCY, PHYSICAL, TWO_PI, GridSpec,
                            SpaceTimeField, SpatialField, _as_readonly,
                            flip_wrap, to_frequency, to_physical)


# ---------------------------------------------------------------------------
# data types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CauchyData:
    """Initial pair (u, du/dt) at t = 0 on a common spatial grid."""

    f: SpatialField
    g: SpatialField

    def __post_init__(self):
        if self.f.grid != self.g.grid:
            raise ValueError("Cauchy data fields must share a grid")

    @property
    def grid(self) -> GridSpec:
        return self.f.grid

    def scaled(self, amplitude: float) -> "CauchyData":
        return CauchyData(self.f.with_values(self.f.values * amplitude),
                          self.g.with_values(self.g.values * amplitude))


FULL_GRAD_SQUARE = "full_grad_square"
SPATIAL_GRAD_SQUARE = "spatial_grad_square"
NO_FORCING = "none"
NONLINEARITY_KINDS = (FULL_GRAD_SQUARE, SPATIAL_GRAD_SQUARE,
                      "deriv_of_square_t", "deriv_of_square_x1",
                      "deriv_of_square_x2", NO_FORCING)


@dataclass(frozen=True)
class Nonlinearity:
    """Quadratic derivative nonlinearity variant.

    full_grad_square reads (du)^2 as the sign-definite sum of squares
    (du/dt)^2 + |grad u|^2 (no null structure); spatial_grad_square is
    |grad u|^2; deriv_of_square_t, deriv_of_square_x1 and deriv_of_square_x2
    are d/dt (u^2), d/dx1 (u^2) and d/dx2 (u^2); "none" turns the forcing off
    (the free linear problem).
    """

    kind: str

    def __post_init__(self):
        if self.kind not in NONLINEARITY_KINDS:
            raise ValueError(f"unknown nonlinearity kind {self.kind!r}")


@dataclass(frozen=True)
class SolverConfig:
    """Time grid and iteration controls; the Picard defaults are the CLI's
    solve defaults."""

    T: float
    n_steps: int
    picard_tol: float = 1e-10
    picard_max: int = 30

    def __post_init__(self):
        if not (self.T > 0 and self.n_steps >= 2 and self.picard_tol > 0):
            raise ValueError("need T > 0, n_steps >= 2, picard_tol > 0")

    @property
    def times(self) -> np.ndarray:
        return self.T * np.arange(self.n_steps + 1) / self.n_steps


@dataclass(frozen=True)
class Trajectory:
    """Time-sliced (u, du/dt) pair, held as the read-only spectral stack
    hats = (u-hat, u_t-hat) of shape (2, n, nx, nx).  The physical slices u
    and u_t are built on first read by one batched inverse transform, as
    read-only views of one array."""

    grid: GridSpec
    times: np.ndarray
    hats: np.ndarray = field(repr=False)
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "hats", _as_readonly(
            self.hats, (2, len(self.times)) + self.grid.spatial_shape))

    def __len__(self):
        return len(self.times)

    @cached_property
    def _slices(self) -> tuple:
        values = _physical(self.grid, self.hats.copy())
        return tuple(tuple(SpatialField(self.grid, v, PHYSICAL) for v in stack)
                     for stack in values)

    @property
    def u(self) -> tuple:
        return self._slices[0]

    @property
    def u_t(self) -> tuple:
        return self._slices[1]


@dataclass(frozen=True)
class PicardReport:
    residuals: tuple
    converged: bool


# ---------------------------------------------------------------------------
# spectral tables and the half-wave propagator
# ---------------------------------------------------------------------------

# Points (slices x nx^2) of one forcing block: a 16 x 16 trajectory is one
# block, a 64 x 64 one runs 16 slices at a time.
_BLOCK_POINTS = 1 << 16


def _spectral(grid: GridSpec):
    """(keep, deriv, scale): the 2/3-rule mask, (i xi1, i xi2) times keep,
    and keep / spatial_transform_factor, which turns the raw forward transform
    of a product of two raw inverse transforms into the forcing spectrum."""
    ok = np.abs(np.rint(grid.nx * np.fft.fftfreq(grid.nx))) <= grid.nx // 3
    keep = np.outer(ok, ok) * 1.0
    x1, x2 = grid.spatial_frequency_mesh()
    deriv = np.stack(np.broadcast_arrays(1j * x1, 1j * x2)) * keep
    return keep, deriv, keep / grid.spatial_transform_factor


def _ifft(a):
    """Raw inverse transform over the last two axes, in place."""
    return np.fft.ifftn(a, axes=(-2, -1), out=a)


def _physical(grid: GridSpec, hats) -> np.ndarray:
    """Read-only physical values of the spectra (..., nx, nx); overwrites them."""
    values = _ifft(hats)
    values /= grid.spatial_transform_factor
    values.flags.writeable = False
    return values


def _halfwave(k, times):
    """cos(t k), sin(t k)/k (t where k = 0) and k sin(t k) for magnitudes
    k >= 0, stacked over times on a leading axis (none for a scalar t)."""
    t = np.asarray(times, dtype=float)[..., None, None]
    tk = t * k
    sin_tk = np.sin(tk)
    sin_over = np.divide(sin_tk, k, out=t * np.ones_like(tk), where=k > 0)
    return np.cos(tk), sin_over, k * sin_tk


def _evolve(tables, f_hat, g_hat) -> np.ndarray:
    """Stacked spectra (u-hat, u_t-hat), shape (2, n, nx, nx), of the free
    evolution of data (f-hat, g-hat), one pair or one per time, over the
    times of the _halfwave tables."""
    cos_t, sin_over, k_sin = tables
    out = np.empty((2,) + cos_t.shape, dtype=np.complex128)
    u, u_t = out
    np.multiply(cos_t, f_hat, out=u)
    u += sin_over * g_hat
    np.multiply(cos_t, g_hat, out=u_t)
    u_t -= k_sin * f_hat
    return out


def _trajectory(grid: GridSpec, times, hats, **meta) -> Trajectory:
    """Trajectory of the spectra (u-hat, u_t-hat), (2, n, nx, nx), which it
    freezes and keeps without a copy."""
    hats.flags.writeable = False
    return Trajectory(grid=grid, times=times, hats=hats, meta=meta)


def free_solution(data: CauchyData, t: float):
    """Homogeneous evolution: (cos(tD) f + D^{-1} sin(tD) g, d/dt of the same)."""
    tables = _halfwave(data.grid.xi_magnitude(), (t,))
    hats = _evolve(tables, to_frequency(data.f).values, to_frequency(data.g).values)
    return tuple(to_physical(SpatialField(data.grid, hat, FREQUENCY))
                 for hat in hats[:, 0])


def free_trajectory(data: CauchyData, T: float, n_steps: int) -> Trajectory:
    grid = data.grid
    times = T * np.arange(n_steps + 1) / n_steps
    hats = _evolve(_halfwave(grid.xi_magnitude(), times),
                   to_frequency(data.f).values, to_frequency(data.g).values)
    return _trajectory(grid, times, hats)


# ---------------------------------------------------------------------------
# nonlinearities
# ---------------------------------------------------------------------------

# deriv_of_square_x<j> -> index of d/dx<j> in the spectral derivative stack
_X_DERIV = {"deriv_of_square_x1": 0, "deriv_of_square_x2": 1}


def _forcing_hat(spectral, u_hat, ut_hat, kind: Nonlinearity):
    """Forcing spectra from spectra of u and u_t of any leading shape
    (..., nx, nx): one batched inverse and one forward transform, in place.
    The 2/3 mask truncates both inputs and the product."""
    keep, deriv, scale = spectral
    if kind.kind == NO_FORCING:
        return np.zeros(u_hat.shape, dtype=np.complex128)
    if kind.kind == "deriv_of_square_t":
        stack = _ifft(np.stack((u_hat, ut_hat), axis=-3) * keep)
        product = 2.0 * stack[..., 0, :, :] * stack[..., 1, :, :]
    elif kind.kind in _X_DERIV:
        product = np.square(_ifft(u_hat * keep))
        scale = deriv[_X_DERIV[kind.kind]] * scale
    else:
        n_ut = int(kind.kind == FULL_GRAD_SQUARE)  # u_t leads the stack
        stack = np.empty(u_hat.shape[:-2] + (n_ut + 2,) + u_hat.shape[-2:],
                         dtype=np.complex128)
        np.multiply(deriv, u_hat[..., None, :, :], out=stack[..., n_ut:, :, :])
        if n_ut:
            np.multiply(ut_hat, keep, out=stack[..., 0, :, :])
        product = np.square(_ifft(stack), out=stack).sum(axis=-3)
    product = np.fft.fftn(product, axes=(-2, -1), out=product)
    product *= scale
    return product


def nonlinearity_eval(u: SpatialField, u_t: SpatialField,
                      kind: Nonlinearity) -> SpatialField:
    """Evaluate the quadratic forcing in physical space."""
    if u.rep != PHYSICAL or u_t.rep != PHYSICAL:
        raise ValueError("nonlinearity_eval expects physical-representation fields")
    hat = _forcing_hat(_spectral(u.grid), to_frequency(u).values,
                       to_frequency(u_t).values, kind)
    return SpatialField(u.grid, _physical(u.grid, hat), PHYSICAL)


# ---------------------------------------------------------------------------
# inhomogeneous (Duhamel) term
# ---------------------------------------------------------------------------

def duhamel_apply(times, forces, k: int, derivative: bool = False) -> SpatialField:
    """Trapezoid quadrature of the inhomogeneous half-wave integral at t_k.

    Integrates D^{-1} sin((t_k - t')D) F(t') (or its time derivative
    cos((t_k - t')D) F(t')) over t' in [0, t_k] using the stored slices
    0..k; second-order accurate in the slice spacing.
    """
    if k < 0 or k >= len(times):
        raise ValueError("slice index out of range")
    times = np.asarray(times, dtype=float)
    if times[0] != 0.0 or (k > 0 and not np.allclose(
            np.diff(times[:k + 1]), times[1] - times[0], rtol=1e-12, atol=0)):
        raise ValueError("duhamel_apply expects uniform slice times from 0")
    grid = forces[0].grid
    if k == 0:
        return SpatialField(grid, np.zeros(grid.spatial_shape), PHYSICAL)
    t_k = times[k]
    acc = np.zeros(grid.spatial_shape, dtype=np.complex128)
    k_mag = grid.xi_magnitude()
    for j in range(k + 1):
        fhat = to_frequency(forces[j]).values
        cos_m, sin_over, _ = _halfwave(k_mag, t_k - times[j])
        weight = 0.5 if j in (0, k) else 1.0
        acc += weight * (cos_m if derivative else sin_over) * fhat
    acc *= (times[k] - times[0]) / k
    return to_physical(SpatialField(grid, acc, FREQUENCY))


def _trapezoid_sums(a, h: float):
    """Overwrite the stack a with its trapezoid sums times h over slices
    0..k, for every k.  np.cumsum along the leading axis is 9x slower than
    this loop over 64 x 64 slices."""
    a[1:] += a[:-1]
    a[0] = 0.0
    a *= 0.5 * h
    for prev, cur in zip(a, a[1:]):
        cur += prev
    return a


def _duhamel_data(h: float, tables, force_hat):
    """Data (f_k, g_k) whose free evolution over t_k is the Duhamel term at
    t_k, for force spectra at the times t_j = j h of the _halfwave tables
    (the duhamel_apply quadrature at every k).  By the addition theorems for
    sin((t_k - t')D) and cos((t_k - t')D), f_k and g_k are the trapezoid
    sums over slices 0..k of -D^{-1} sin(t_j D) F_j-hat and
    cos(t_j D) F_j-hat; at xi = 0, of -t_j F_j-hat and F_j-hat.  force_hat
    is overwritten."""
    cos_t, sin_over, _ = tables
    f_k = _trapezoid_sums(sin_over * force_hat, -h)
    return f_k, _trapezoid_sums(np.multiply(cos_t, force_hat, out=force_hat), h)


# ---------------------------------------------------------------------------
# solvers
# ---------------------------------------------------------------------------

def _l2(grid: GridSpec, hats) -> float:
    """Quadrature L2 norm of a stack of spectra (Plancherel); inf or nan on overflow."""
    return math.sqrt(np.vdot(hats, hats).real * grid.spatial_freq_cell)


def picard_solve(data: CauchyData, kind: Nonlinearity, config: SolverConfig):
    """Fixed-point iteration on the integral solution map, from the free solution.

    Returns the last iterate and a report; non-convergence is reported, not
    raised (it signals leaving the contraction regime).  The next iterate
    is the free evolution of the data plus the Duhamel data of the forcing,
    which is taken over blocks of slices to bound the temporaries.  The
    half-wave tables are built once per solve, and the residual is one
    Plancherel reduction per stack.
    """
    grid = data.grid
    times = config.times
    spectral = _spectral(grid)
    tables = _halfwave(grid.xi_magnitude(), times)
    f_hat, g_hat = to_frequency(data.f).values, to_frequency(data.g).values
    h = config.T / config.n_steps
    block = max(1, _BLOCK_POINTS // grid.nx ** 2)
    w = _evolve(tables, f_hat, g_hat)
    residuals = []
    converged = False
    for _ in range(config.picard_max):
        force = np.empty_like(w[0])
        for j in range(0, len(times), block):
            force[j:j + block] = _forcing_hat(spectral, w[0, j:j + block],
                                              w[1, j:j + block], kind)
        f_k, g_k = _duhamel_data(h, tables, force)
        f_k += f_hat
        g_k += g_hat
        new = _evolve(tables, f_k, g_k)
        del force, f_k, g_k  # not live during the next forcing
        scale = _l2(grid, new[0]) + _l2(grid, new[1])
        diff = _l2(grid, new[0] - w[0]) + _l2(grid, new[1] - w[1])
        resid = diff / max(scale, 1e-300)
        residuals.append(resid)
        w = new
        if resid < config.picard_tol:
            converged = True
            break
        if not math.isfinite(resid):
            break
    traj = _trajectory(grid, times, w)
    return traj, PicardReport(residuals=tuple(residuals), converged=converged)


def rk4_solve(data: CauchyData, kind: Nonlinearity, config: SolverConfig) -> Trajectory:
    """Classical 4th-order method-of-lines oracle on the system (u, du/dt).

    Norm blow-up (spectral CFL violation or genuine divergence) is flagged
    in the trajectory metadata rather than raised.  The right-hand side runs
    Picard's forcing code (_forcing_hat) on single slices, so as an oracle
    RK4 checks the time integration, not the forcing.
    """
    grid = data.grid
    x1, x2 = grid.spatial_frequency_mesh()
    lap = -(x1 ** 2 + x2 ** 2)
    spectral = _spectral(grid)

    def rhs(u_hat, v_hat):
        return v_hat, lap * u_hat + _forcing_hat(spectral, u_hat, v_hat, kind)

    dt = config.T / config.n_steps
    u_hat, v_hat = to_frequency(data.f).values, to_frequency(data.g).values
    hats = np.empty((2, config.n_steps + 1) + grid.spatial_shape, dtype=np.complex128)
    hats[:, 0] = u_hat, v_hat
    init_scale = max(float(np.abs(u_hat).max()), float(np.abs(v_hat).max()), 1e-30)
    unstable = False
    for step in range(1, config.n_steps + 1):
        k1u, k1v = rhs(u_hat, v_hat)
        k2u, k2v = rhs(u_hat + 0.5 * dt * k1u, v_hat + 0.5 * dt * k1v)
        k3u, k3v = rhs(u_hat + 0.5 * dt * k2u, v_hat + 0.5 * dt * k2v)
        k4u, k4v = rhs(u_hat + dt * k3u, v_hat + dt * k3v)
        u_hat = u_hat + dt / 6.0 * (k1u + 2 * k2u + 2 * k3u + k4u)
        v_hat = v_hat + dt / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v)
        top = max(float(np.abs(u_hat).max()), float(np.abs(v_hat).max()))
        if not math.isfinite(top) or top > 1e12 * init_scale:
            unstable = True
        hats[:, step] = u_hat, v_hat
    return _trajectory(grid, config.times, hats, unstable=unstable)


def _plancherel_sq(grid: GridSpec, hats, weight=None) -> np.ndarray:
    """Quadrature sum of weight |hat|^2 (weight (nx, nx), default 1) over
    each spectrum of a stack (..., nx, nx).  einsum reads the real and
    imaginary parts in place, so no temporary of the stack's size is made."""
    parts = np.ascontiguousarray(hats).view(np.float64)
    if weight is None:
        total = np.einsum("...ij,...ij->...", parts, parts)
    else:
        total = np.einsum("ij,...ij,...ij->...", np.repeat(weight, 2, axis=-1),
                          parts, parts)
    return total * grid.spatial_freq_cell


def plancherel_l2(grid: GridSpec, hats) -> np.ndarray:
    """Quadrature L2 norm of each spectrum of a stack (..., nx, nx), by
    Plancherel on the frequency cell."""
    return np.sqrt(_plancherel_sq(grid, hats))


def plancherel_energy(grid: GridSpec, u_hat, ut_hat) -> np.ndarray:
    """(1/2)(|u_t|^2 + |grad u|^2) of each pair of spectra of two stacks
    (..., nx, nx), by Plancherel: |grad u|^2 integrates as |xi|^2 |u-hat|^2."""
    x1, x2 = grid.spatial_frequency_mesh()
    return 0.5 * (_plancherel_sq(grid, ut_hat)
                  + _plancherel_sq(grid, u_hat, weight=x1 ** 2 + x2 ** 2))


def energy(u: SpatialField, u_t: SpatialField) -> float:
    """Free-evolution conserved quantity (1/2) sum (|u_t|^2 + |grad u|^2) dx^2
    of fields in either representation (plancherel_energy)."""
    return float(plancherel_energy(u.grid, to_frequency(u).values,
                                   to_frequency(u_t).values))


# ---------------------------------------------------------------------------
# rough random data
# ---------------------------------------------------------------------------

_ROUGHNESS_MARGIN = 0.01


def _hermitian_random_spectrum(grid: GridSpec, exponent: float, rng,
                               band_limit: float) -> np.ndarray:
    nx = grid.nx
    idx = np.rint(nx * np.fft.fftfreq(nx)).astype(int)
    k1 = idx[:, None]
    k2 = idx[None, :]
    r = grid.xi_magnitude()
    band = (r <= band_limit) & (np.abs(k1) < nx // 2) & (np.abs(k2) < nx // 2)
    keep = band & ((k1 > 0) | ((k1 == 0) & (k2 > 0)))
    # a phase is drawn for every mode, so the stream does not depend on the band
    u = rng.random((nx, nx))[keep]
    half = np.zeros((nx, nx), complex)
    half[keep] = (1.0 + r[keep] ** 2) ** (exponent / 2.0) * np.exp(1j * TWO_PI * u)
    full = flip_wrap(half)
    np.conjugate(full, out=full)
    full += half
    full[0, 0] = 1.0  # the weight <xi>^exponent at xi = 0
    full.flags.writeable = False  # so that SpatialField keeps it uncopied
    return full


def random_data(grid: GridSpec, s: float, r, seed: int,
                band_limit: float) -> CauchyData:
    """Random rough data with prescribed Fourier-Lebesgue regularity.

    Magnitudes decay like <xi>^{-s - 2/r' - delta} (delta = 0.01 keeps the
    target norm finite as the band grows); phases are independent uniform and
    Hermitian-symmetrized so the physical fields are real.  Deterministic per
    seed.  band_limit must stay below the grid's Nyquist frequency.
    """
    nyquist = grid.d_xi * (grid.nx // 2)
    if band_limit >= nyquist:
        raise ValueError(f"band_limit {band_limit} must lie below Nyquist {nyquist}")
    p = float(LebesgueExponents(r).p)
    rng = np.random.default_rng(seed)
    exp_f = -(s + 2.0 / p + _ROUGHNESS_MARGIN)
    exp_g = -((s - 1.0) + 2.0 / p + _ROUGHNESS_MARGIN)
    fhat = _hermitian_random_spectrum(grid, exp_f, rng, band_limit)
    ghat = _hermitian_random_spectrum(grid, exp_g, rng, band_limit)
    return CauchyData(SpatialField(grid, fhat, FREQUENCY),
                      SpatialField(grid, ghat, FREQUENCY))


# ---------------------------------------------------------------------------
# probes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExistenceProbe:
    records: tuple           # dicts: amplitude, converged, iterations, residual
    threshold: float | None  # bisected loss-of-convergence amplitude


def existence_probe(data: CauchyData, kind: Nonlinearity, config: SolverConfig,
                    amplitudes, bisect_steps: int = 10) -> ExistenceProbe:
    """Convergence table of the fixed-point solver over an amplitude sweep
    of the linearly scaled data.  When the sweep brackets a loss of
    convergence the threshold is refined by bisection.  No solve's
    physical slices are read, so the probe makes no output transform.
    """
    amplitudes = list(amplitudes)
    if any(b <= a for a, b in zip(amplitudes, amplitudes[1:])):
        raise ValueError("amplitudes must be strictly increasing")

    def run(a: float):
        _, report = picard_solve(data.scaled(a), kind, config)
        return report

    records = []
    for a in amplitudes:
        rep = run(a)
        records.append({"amplitude": a, "converged": rep.converged,
                        "iterations": len(rep.residuals),
                        "final_residual": rep.residuals[-1] if rep.residuals else 0.0})
    lo = hi = None
    for rec in records:
        if rec["converged"]:
            lo = rec["amplitude"]
        elif lo is not None:
            hi = rec["amplitude"]
            break
    threshold = None
    if lo is not None and hi is not None:
        for _ in range(bisect_steps):
            mid = math.sqrt(lo * hi)
            if run(mid).converged:
                lo = mid
            else:
                hi = mid
        threshold = math.sqrt(lo * hi)
    return ExistenceProbe(records=tuple(records), threshold=threshold)


def wave_admissible(p, q, n: int = 2) -> bool:
    """Wave-admissibility predicate: 2 <= p <= inf, 2 <= q < inf, and
    2/p + (n-1)/q <= (n-1)/2 (exact when p, q are rational)."""
    if math.isinf(q) or q < 2:
        return False
    if p < 2:
        return False
    inv_p = Fraction(0) if math.isinf(p) else 1 / _as_fraction(p)
    lhs = 2 * inv_p + (n - 1) / _as_fraction(q)
    return lhs <= Fraction(n - 1, 2)


def _real_half_spectrum(fld: SpatialField) -> np.ndarray:
    """The rfft2 half (columns 0..nx/2) of the spectrum of a real field.

    Raises ValueError unless the spectrum equals the conjugate of its
    flip-wrap to 1e-12 of its largest magnitude, i.e. unless the field is
    real; no transform is made for a frequency-represented field.  The check
    works in one full-lattice temporary.
    """
    hat = to_frequency(fld).values
    tmp = flip_wrap(hat)
    np.conjugate(tmp, out=tmp)
    np.subtract(hat, tmp, out=tmp)
    gap = np.abs(tmp, out=tmp).real.max()
    if gap > 1e-12 * np.abs(hat, out=tmp).real.max():
        raise ValueError("the dispersive probe needs real data: the spectrum "
                         "is not Hermitian")
    return hat[:, :fld.grid.nx // 2 + 1]


def _phases(indices, nx: int) -> np.ndarray:
    """2 pi ((x j) mod nx) / nx for x = 0..nx-1 down the rows and j in
    indices across the columns; the integer product is reduced mod nx before
    it is scaled, so every angle lies in [0, 2 pi) to one rounding."""
    return (TWO_PI / nx) * (np.arange(nx)[:, None] * indices[None, :] % nx)


@lru_cache(maxsize=1)
def _synthesis_plan(grid: GridSpec, rows: tuple, cols: tuple):
    """Read-only (cos_t, sin_t, e1, m) of the band rows x cols of the half
    spectrum on grid: cos and sin of t|xi| over the band at each time of the
    grid's time lattice, shape (nt, |R|, |C|), and the two synthesis
    matrices of _squared_gradients.

    They depend on the grid and the band only, so the members of a
    strichartz ensemble, whose band is pinned, share one plan; the cache
    keeps the last band's, which is all that a worker running one rung's
    tasks in turn reads.
    """
    nx = grid.nx
    rows, cols = np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp)
    tk = grid.t_axis[:, None, None] * grid.xi_magnitude()[rows[:, None], cols]
    e1 = np.exp(1j * _phases(rows, nx)) / nx
    # rows 2j and 2j + 1 of m meet Re and Im of column cols[j] in the
    # float64 view of the stage-1 product
    edge = (cols == 0) | (2 * cols == nx)
    w = np.where(edge, 1.0, 2.0)[:, None] / nx
    theta = _phases(cols, nx).T
    m = np.empty((2 * len(cols), nx))
    m[0::2] = w * np.cos(theta)
    m[1::2] = np.where(edge[:, None], 0.0, -w * np.sin(theta))
    plan = (np.cos(tk), np.sin(tk), e1, m)
    for arr in plan:
        arr.flags.writeable = False
    return plan


def _gradient_band(data: CauchyData):
    """(rows, cols, a, b) for _squared_gradients: the rows R and
    half-spectrum columns C where a = D f-hat or b = D g-hat/|xi| is
    nonzero, as tuples, and a and b on that band, shape (2, |R|, |C|).
    Each component of a and b is made on the full half lattice only to be
    tested for zeros, one at a time."""
    grid = data.grid
    nx = grid.nx
    half = nx // 2 + 1
    k = grid.xi_magnitude()[:, :half]
    inv_k = np.divide(1.0, k, out=np.zeros_like(k), where=k > 0)
    spectra = (_real_half_spectrum(data.f),
               inv_k * _real_half_spectrum(data.g))
    xi = grid.xi_axis
    xi[nx // 2] = 0.0
    # D: d/dx1 down the rows and d/dx2 across the columns, with the inverse
    # transform's 1/factor riding on the multipliers
    deriv = (1j / grid.spatial_transform_factor) * xi
    occupied = np.zeros((nx, half), dtype=bool)
    for spectrum in spectra:
        for d in (deriv[:, None], deriv[None, :half]):
            occupied |= d * spectrum != 0
    rows = np.flatnonzero(occupied.any(axis=1))
    cols = np.flatnonzero(occupied.any(axis=0))
    index = np.ix_(rows, cols)
    a, b = (np.stack([d * spectrum[index]
                      for d in (deriv[rows, None], deriv[None, cols])])
            for spectrum in spectra)
    return tuple(rows.tolist()), tuple(cols.tolist()), a, b


def _squared_gradients(data: CauchyData):
    """Yield |grad u|^2 of the free solution at each time of the grid's
    periodic time lattice, one real (nx, nx) array per slice.  Every slice
    is written into the same buffer, so a yielded array is valid only until
    the next one is asked for: copy it to keep it.

    Real data only (ValueError otherwise).  With the derivative multipliers
    D = (i xi1, i xi2) premultiplied into a = D f-hat and b = D g-hat/|xi|,
    a slice's gradient is the irfft2 of cos(t|xi|) a + sin(t|xi|) b over
    both components.  D vanishes on the Nyquist row (d/dx1) and column
    (d/dx2), so the gradient's Nyquist modes are dropped; data without
    Nyquist content, like random_data's, lose nothing.

    The rows R and half-spectrum columns C where a or b is nonzero are found
    once, only that (2, |R|, |C|) band is evolved, and the band-limited
    trigonometric polynomial is summed exactly on the lattice by two matrix
    products: a complex E1 @ band with E1[x, r] = exp(2 pi i r x / nx) / nx
    (the axis-0 ifft), then the real [Re, Im] of that times the rows w_c cos
    and -w_c sin of 2 pi c x / nx (the last-axis irfft), where w_c = 1/nx on
    column 0 and the Nyquist column, whose imaginary part irfft ignores, and
    2/nx elsewhere.  The slices agree with irfft2 to rounding (1e-13 of the
    largest value at 256 x 256), not bit for bit.  The band is found by
    _gradient_band; the cos/sin tables and the two matrices come from
    _synthesis_plan, built once per grid and band.

    Cost per slice: about 2 nx |R| |C| complex and 4 nx^2 |C| real
    multiply-adds, which grow with the band; irfft2 costs O(nx^2 log nx)
    whatever the band.  The shipped strichartz band (12.8 lattice steps)
    occupies 25 rows and 13 columns (of 129 at 256 x 256) at every rung,
    where the products take about a third of the transform's time at
    256 x 256; the widest band a strichartz ladder makes (0.4 nx) takes
    about 1.4 times it, and data that fill the spectrum about 3 times.
    """
    rows, cols, a, b = _gradient_band(data)
    cos_t, sin_t, e1, m = _synthesis_plan(data.grid, rows, cols)
    nx = data.grid.nx
    band = np.empty_like(a)
    z = np.empty((2, nx, len(cols)), complex)
    grad = np.empty((2, nx, nx))
    for cos_tk, sin_tk in zip(cos_t, sin_t):
        np.multiply(cos_tk, a, out=band)
        band += sin_tk * b
        np.matmul(e1, band, out=z)
        np.matmul(z.view(np.float64), m, out=grad)
        np.square(grad, out=grad)
        yield np.add(grad[0], grad[1], out=grad[0])


def gradient_magnitude_trajectory(data: CauchyData) -> SpaceTimeField:
    """|grad u|(t, x) of the free solution on the grid's periodic time
    lattice, for real data (see _squared_gradients)."""
    stack = np.empty(data.grid.shape)
    for out, squared in zip(stack, _squared_gradients(data)):
        np.sqrt(squared, out=out)
    return SpaceTimeField(data.grid, stack, PHYSICAL)


def strichartz_ratio(data: CauchyData, q_t: float, s: float = 1.75) -> float:
    """Dispersive-to-data norm quotient for one free solution of real data.

    R = |grad u|_{L^{q_t}_t L^inf_x} / (|f|_{H^s} + |g|_{H^{s-1}}), the
    space-time norm taken over one period of the data's grid.  Each slice
    of |grad u|^2 is reduced to its lattice max in the buffer it is made in,
    so the (nt, nx, nx) stack is never held, and the square root is taken
    of the maxima only: sqrt is monotone and correctly rounded, so that
    equals the max of the root.  The band's synthesis plan is built once per
    grid and band (_synthesis_plan) and |xi| once per lattice, so the
    members of an ensemble on one grid share both.
    """
    maxima = np.sqrt([slice_.max() for slice_ in _squared_gradients(data)])
    num = _temporal_norm(maxima, q_t, data.grid.dt)
    den = fl_norm(data.f, 2, s) + fl_norm(data.g, 2, s - 1)
    return num / den

