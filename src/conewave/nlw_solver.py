"""Pseudospectral local-in-time solver for the quadratic-derivative wave equation.

The Cauchy problem u_tt - Laplace(u) = N(u, du) on the periodic spatial grid
is solved two independent ways: a fixed-point iteration on the integral
solution map (half-wave propagator plus a trapezoid-quadrature inhomogeneous
term), and a classical RK4 method-of-lines oracle on the first-order system.
Spatial derivatives are spectral throughout; quadratic products are
de-aliased with the 2/3 rule by default.  The solvers carry every slice as a
numpy spectrum and wrap SpatialFields only at the public boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .norms import _as_fraction, _conjugate, _temporal_norm, fl_norm
from .spectral_grid import (FREQUENCY, PHYSICAL, TWO_PI, GridSpec,
                            SpaceTimeField, SpatialField, flip_wrap,
                            to_frequency, to_physical)


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

    def max_imag_physical(self) -> float:
        """Largest imaginary part after transforming to physical space."""
        return max(float(np.abs(to_physical(self.f).values.imag).max()),
                   float(np.abs(to_physical(self.g).values.imag).max()))


FULL_GRAD_SQUARE = "full_grad_square"
SPATIAL_GRAD_SQUARE = "spatial_grad_square"
DERIV_OF_SQUARE = "deriv_of_square"
NO_FORCING = "none"


@dataclass(frozen=True)
class Nonlinearity:
    """Quadratic derivative nonlinearity variant.

    full_grad_square reads (du)^2 as the sign-definite sum of squares
    (du/dt)^2 + |grad u|^2 (no null structure); spatial_grad_square is
    |grad u|^2; deriv_of_square is d/dj (u^2) for j in {t, x1, x2}; "none"
    turns the forcing off (the free linear problem).
    """

    kind: str
    direction: str | None = None

    def __post_init__(self):
        if self.kind not in (FULL_GRAD_SQUARE, SPATIAL_GRAD_SQUARE,
                             DERIV_OF_SQUARE, NO_FORCING):
            raise ValueError(f"unknown nonlinearity kind {self.kind!r}")
        if self.kind == DERIV_OF_SQUARE:
            if self.direction not in ("t", "x1", "x2"):
                raise ValueError("deriv_of_square needs direction 't', 'x1' or 'x2'")
        elif self.direction is not None:
            raise ValueError(f"{self.kind} takes no direction")


@dataclass(frozen=True)
class SolverConfig:
    T: float
    n_steps: int
    picard_tol: float = 1e-10
    picard_max: int = 50
    dealias: bool = True

    def __post_init__(self):
        if not (self.T > 0 and self.n_steps >= 2 and self.picard_tol > 0):
            raise ValueError("need T > 0, n_steps >= 2, picard_tol > 0")

    @property
    def times(self) -> np.ndarray:
        return self.T * np.arange(self.n_steps + 1) / self.n_steps


@dataclass(frozen=True)
class Trajectory:
    """Time-sliced (u, du/dt) pair; slices are physical spatial fields."""

    grid: GridSpec
    times: np.ndarray
    u: tuple
    u_t: tuple
    provenance: str
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (len(self.times) == len(self.u) == len(self.u_t)):
            raise ValueError("trajectory slice counts disagree")
        for fld in (*self.u, *self.u_t):
            if fld.grid != self.grid:
                raise ValueError("trajectory slices must share the grid")

    def __len__(self):
        return len(self.times)


@dataclass(frozen=True)
class PicardReport:
    residuals: tuple
    converged: bool


# ---------------------------------------------------------------------------
# half-wave propagator
# ---------------------------------------------------------------------------

def _spectrum(grid: GridSpec, values) -> np.ndarray:
    return to_frequency(SpatialField(grid, values, PHYSICAL)).values


def _physical(grid: GridSpec, hat) -> SpatialField:
    return to_physical(SpatialField(grid, hat, FREQUENCY))


def _gradient(grid: GridSpec, hat):
    """(d/dx1 u, d/dx2 u) as physical arrays, from the spectrum of u."""
    x1, x2 = grid.spatial_frequency_mesh()
    return (_physical(grid, 1j * x1 * hat).values,
            _physical(grid, 1j * x2 * hat).values)


def _halfwave(k, t: float):
    """cos(t k) and sin(t k)/k (value t where k = 0) for magnitudes k >= 0."""
    tk = t * k
    return np.cos(tk), np.divide(np.sin(tk), k, out=np.full_like(k, t), where=k > 0)


def halfwave_multipliers(grid: GridSpec, t: float):
    """Fourier multipliers cos(t |xi|) and sin(t |xi|)/|xi| (value t at xi = 0)."""
    return _halfwave(grid.xi_magnitude(), t)


def _free_spectra(data: CauchyData, times):
    """Yield the free evolution's spectra (u-hat, u_t-hat) at each time, with
    u_t-hat = cos(tD) g-hat - |xi|^2 D^{-1} sin(tD) f-hat; the data are
    transformed once."""
    grid = data.grid
    fhat = to_frequency(data.f).values
    ghat = to_frequency(data.g).values
    k = grid.xi_magnitude()
    xi_sq = k ** 2
    for t in times:
        cos_m, sin_over = _halfwave(k, float(t))
        yield cos_m * fhat + sin_over * ghat, cos_m * ghat - xi_sq * sin_over * fhat


def free_solution(data: CauchyData, t: float):
    """Homogeneous evolution: (cos(tD) f + D^{-1} sin(tD) g, d/dt of the same)."""
    return tuple(_physical(data.grid, hat) for hat in next(_free_spectra(data, (t,))))


def free_trajectory(data: CauchyData, T: float, n_steps: int) -> Trajectory:
    grid = data.grid
    times = T * np.arange(n_steps + 1) / n_steps
    u, u_t = zip(*[(_physical(grid, u_hat), _physical(grid, ut_hat))
                   for u_hat, ut_hat in _free_spectra(data, times)])
    return Trajectory(grid=grid, times=times, u=u, u_t=u_t, provenance="free")


# ---------------------------------------------------------------------------
# nonlinearities
# ---------------------------------------------------------------------------

def _dealias_mask(grid: GridSpec) -> np.ndarray:
    keep = grid.nx // 3
    idx = np.rint(grid.nx * np.fft.fftfreq(grid.nx)).astype(int)
    ok = np.abs(idx) <= keep
    return ok[:, None] & ok[None, :]


def _forcing_hat(grid: GridSpec, u_hat, ut_hat, kind: Nonlinearity, mask):
    """Spectrum of the quadratic forcing from the spectra of u and u_t; mask
    (the 2/3 rule, or None) truncates both inputs and the product."""
    if kind.kind == NO_FORCING:
        return np.zeros(grid.spatial_shape, dtype=np.complex128)
    if mask is not None:
        u_hat = u_hat * mask
        ut_hat = ut_hat * mask
    if kind.kind == DERIV_OF_SQUARE:
        u = _physical(grid, u_hat).values
        if kind.direction == "t":
            out_hat = _spectrum(grid, 2.0 * u * _physical(grid, ut_hat).values)
        else:
            x1, x2 = grid.spatial_frequency_mesh()
            mult = x1 if kind.direction == "x1" else x2
            out_hat = 1j * mult * _spectrum(grid, u ** 2)
    else:
        g1, g2 = _gradient(grid, u_hat)
        if kind.kind == SPATIAL_GRAD_SQUARE:
            out = g1 ** 2 + g2 ** 2
        else:
            out = _physical(grid, ut_hat).values ** 2 + g1 ** 2 + g2 ** 2
        out_hat = _spectrum(grid, out)
    return out_hat if mask is None else out_hat * mask


def nonlinearity_eval(u: SpatialField, u_t: SpatialField, kind: Nonlinearity,
                      dealias: bool = True) -> SpatialField:
    """Evaluate the quadratic forcing in physical space."""
    if u.rep != PHYSICAL or u_t.rep != PHYSICAL:
        raise ValueError("nonlinearity_eval expects physical-representation fields")
    grid = u.grid
    mask = _dealias_mask(grid) if dealias else None
    return _physical(grid, _forcing_hat(grid, to_frequency(u).values,
                                        to_frequency(u_t).values, kind, mask))


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
        dt_ = t_k - times[j]
        if derivative:
            mult = np.cos(dt_ * k_mag)
        else:
            _, mult = _halfwave(k_mag, dt_)
        weight = 0.5 if j in (0, k) else 1.0
        acc += weight * mult * fhat
    acc *= (times[k] - times[0]) / k
    return to_physical(SpatialField(grid, acc, FREQUENCY))


def _duhamel_sweep(grid: GridSpec, times, force_hats):
    """Yield the spectra of the Duhamel terms (u, u_t) at t_0, t_1, ...

    Equal to duhamel_apply(times, forces, k, derivative) for every k, but in
    one pass over the force spectra.  The addition theorems
    sin((t_k - t')D) = sin(t_k D) cos(t'D) - cos(t_k D) sin(t'D) and
    cos((t_k - t')D) = cos(t_k D) cos(t'D) + sin(t_k D) sin(t'D)
    turn both trapezoid sums into running sums of cos(t_j D) F_j-hat and
    sin(t_j D) F_j-hat; the xi = 0 mode, where D^{-1} sin(tD) = t, runs on
    sums of F_j-hat and t_j F_j-hat.  force_hats may be lazy: force k is
    read just before slice k is yielded, and only O(nx^2) state is kept.
    Expects uniform slice times from 0.
    """
    k_mag = grid.xi_magnitude()
    zero = k_mag == 0
    inv_mag = np.divide(1.0, k_mag, out=np.zeros_like(k_mag), where=~zero)
    for k, fhat in enumerate(force_hats):
        t = times[k]
        cos_t = np.cos(t * k_mag)
        sin_t = np.sin(t * k_mag)
        terms = (cos_t * fhat, sin_t * fhat, fhat[zero], t * fhat[zero])
        if k == 0:
            sums = [0.5 * term for term in terms]
            yield np.zeros(grid.spatial_shape), np.zeros(grid.spatial_shape)
            continue
        # trapezoid over slices 0..k: the running sums plus half of slice k
        c, s, m0, m1 = (acc + 0.5 * term for acc, term in zip(sums, terms))
        h = t / k
        u_hat = h * (sin_t * c - cos_t * s) * inv_mag
        u_hat[zero] = h * (t * m0 - m1)
        yield u_hat, h * (cos_t * c + sin_t * s)
        for acc, term in zip(sums, terms):
            acc += term


# ---------------------------------------------------------------------------
# solvers
# ---------------------------------------------------------------------------

def _traj_l2(grid, slices_a, slices_b=None):
    """Quadrature L2 norm over all slices, from their spectra (Plancherel)."""
    total = 0.0
    # overflow to inf is fine here: a diverging iterate shows up as an
    # infinite residual and stops the iteration
    with np.errstate(over="ignore"):
        for j, a in enumerate(slices_a):
            d = a if slices_b is None else a - slices_b[j]
            total += float(np.sum(np.abs(d) ** 2))
    return math.sqrt(total * grid.spatial_freq_cell)


def picard_solve(data: CauchyData, kind: Nonlinearity, config: SolverConfig):
    """Fixed-point iteration on the integral solution map, from the free solution.

    Returns the last iterate and a report; non-convergence is reported, not
    raised (it signals leaving the contraction regime).
    """
    grid = data.grid
    times = config.times
    mask = _dealias_mask(grid) if config.dealias else None
    free_u, free_ut = zip(*_free_spectra(data, times))
    u, u_t = free_u, free_ut
    residuals = []
    converged = False
    for _ in range(config.picard_max):
        forces = (_forcing_hat(grid, a, b, kind, mask) for a, b in zip(u, u_t))
        new_u = []
        new_ut = []
        for fu, fut, (du, dut) in zip(free_u, free_ut,
                                      _duhamel_sweep(grid, times, forces)):
            new_u.append(fu + du)
            new_ut.append(fut + dut)
        scale = _traj_l2(grid, new_u) + _traj_l2(grid, new_ut)
        diff = _traj_l2(grid, new_u, u) + _traj_l2(grid, new_ut, u_t)
        resid = diff / max(scale, 1e-300)
        residuals.append(resid)
        u, u_t = new_u, new_ut
        if resid < config.picard_tol:
            converged = True
            break
        if not math.isfinite(resid):
            break
    traj = Trajectory(grid=grid, times=times,
                      u=tuple(_physical(grid, h) for h in u),
                      u_t=tuple(_physical(grid, h) for h in u_t),
                      provenance="picard", meta={"iterations": len(residuals)})
    return traj, PicardReport(residuals=tuple(residuals), converged=converged)


def rk4_solve(data: CauchyData, kind: Nonlinearity, config: SolverConfig) -> Trajectory:
    """Classical 4th-order method-of-lines oracle on the system (u, du/dt).

    Norm blow-up (spectral CFL violation or genuine divergence) is flagged
    in the trajectory metadata rather than raised.
    """
    grid = data.grid
    x1, x2 = grid.spatial_frequency_mesh()
    lap = -(x1 ** 2 + x2 ** 2)
    mask = _dealias_mask(grid) if config.dealias else None

    def rhs(u_hat, v_hat):
        return v_hat, lap * u_hat + _forcing_hat(grid, u_hat, v_hat, kind, mask)

    dt = config.T / config.n_steps
    u_hat = to_frequency(data.f).values
    v_hat = to_frequency(data.g).values
    times = config.times
    u_slices = [_physical(grid, u_hat)]
    ut_slices = [_physical(grid, v_hat)]
    init_scale = max(float(np.abs(u_hat).max()), float(np.abs(v_hat).max()), 1e-30)
    unstable = False
    for _ in range(config.n_steps):
        k1u, k1v = rhs(u_hat, v_hat)
        k2u, k2v = rhs(u_hat + 0.5 * dt * k1u, v_hat + 0.5 * dt * k1v)
        k3u, k3v = rhs(u_hat + 0.5 * dt * k2u, v_hat + 0.5 * dt * k2v)
        k4u, k4v = rhs(u_hat + dt * k3u, v_hat + dt * k3v)
        u_hat = u_hat + dt / 6.0 * (k1u + 2 * k2u + 2 * k3u + k4u)
        v_hat = v_hat + dt / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v)
        top = max(float(np.abs(u_hat).max()), float(np.abs(v_hat).max()))
        if not math.isfinite(top) or top > 1e12 * init_scale:
            unstable = True
        u_slices.append(_physical(grid, u_hat))
        ut_slices.append(_physical(grid, v_hat))
    return Trajectory(grid=grid, times=times, u=tuple(u_slices),
                      u_t=tuple(ut_slices), provenance="rk4",
                      meta={"unstable": unstable})


def energy(u: SpatialField, u_t: SpatialField) -> float:
    """Free-evolution conserved quantity (1/2) sum (u_t^2 + |grad u|^2) dx^2."""
    if u.rep != PHYSICAL or u_t.rep != PHYSICAL:
        raise ValueError("energy expects physical-representation fields")
    g1, g2 = _gradient(u.grid, to_frequency(u).values)
    dens = np.abs(u_t.values) ** 2 + np.abs(g1) ** 2 + np.abs(g2) ** 2
    return 0.5 * float(np.sum(dens)) * u.grid.spatial_phys_cell


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
    x1, x2 = grid.spatial_frequency_mesh()
    r = np.sqrt(x1 ** 2 + x2 ** 2)
    weight = (1.0 + r ** 2) ** (exponent / 2.0)
    band = (r <= band_limit) & (np.abs(k1) < nx // 2) & (np.abs(k2) < nx // 2)
    phases = np.exp(1j * TWO_PI * rng.random((nx, nx)))
    canonical = (k1 > 0) | ((k1 == 0) & (k2 > 0))
    half = np.where(band & canonical, weight * phases, 0.0)
    full = half + np.conj(flip_wrap(half))
    full[0, 0] = weight[0, 0]
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
    p = _conjugate(r)
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


def existence_probe(data_family, kind: Nonlinearity, config: SolverConfig,
                    amplitudes, bisect_steps: int = 10) -> ExistenceProbe:
    """Convergence table of the fixed-point solver over an amplitude sweep.

    data_family is either a CauchyData (scaled linearly) or a callable
    amplitude -> CauchyData.  When the sweep brackets a loss of convergence
    the threshold is refined by bisection.
    """
    if isinstance(data_family, CauchyData):
        base = data_family
        family = base.scaled
    else:
        family = data_family
    amplitudes = list(amplitudes)
    if any(b <= a for a, b in zip(amplitudes, amplitudes[1:])):
        raise ValueError("amplitudes must be strictly increasing")

    def run(a: float):
        _, report = picard_solve(family(a), kind, config)
        return report

    records = []
    for a in amplitudes:
        rep = run(a)
        records.append({"amplitude": a, "converged": rep.converged,
                        "iterations": len(rep.residuals),
                        "final_residual": rep.residuals[-1] if rep.residuals else 0.0})
    lo = None
    hi = None
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
    real; no transform is made for a frequency-represented field.
    """
    hat = to_frequency(fld).values
    if np.abs(hat - np.conj(flip_wrap(hat))).max() > 1e-12 * np.abs(hat).max():
        raise ValueError("the dispersive probe needs real data: the spectrum "
                         "is not Hermitian")
    return hat[:, :fld.grid.nx // 2 + 1]


def _gradient_magnitudes(data: CauchyData):
    """Yield |grad u| of the free solution at each time of the grid's
    periodic time lattice, one real (nx, nx) array per slice.

    Real data only (ValueError otherwise).  With the derivative multipliers
    D = (i xi1, i xi2) premultiplied into a = D f-hat and b = D g-hat/|xi|,
    a slice is one batched irfft2 of cos(t|xi|) a + sin(t|xi|) b over both
    components.  D vanishes on the Nyquist row (d/dx1) and column (d/dx2),
    so the gradient's Nyquist modes are dropped; data without Nyquist
    content, like random_data's, lose nothing.
    """
    grid = data.grid
    nx = grid.nx
    half = nx // 2 + 1
    f_half = _real_half_spectrum(data.f)
    g_half = _real_half_spectrum(data.g)
    k = grid.xi_magnitude()[:, :half]
    inv_k = np.divide(1.0, k, out=np.zeros_like(k), where=k > 0)
    xi = grid.xi_axis
    xi[nx // 2] = 0.0
    # the inverse transform's 1/factor rides on the multipliers
    deriv = (1j / grid.spatial_transform_factor) * np.stack(
        np.broadcast_arrays(xi[:, None], xi[None, :half]))
    a = deriv * f_half
    b = deriv * (inv_k * g_half)
    for t in grid.t_axis:
        tk = t * k
        g1, g2 = np.fft.irfft2(np.cos(tk) * a + np.sin(tk) * b,
                               s=grid.spatial_shape)
        yield np.sqrt(g1 ** 2 + g2 ** 2)


def gradient_magnitude_trajectory(data: CauchyData) -> SpaceTimeField:
    """|grad u|(t, x) of the free solution on the grid's periodic time
    lattice, for real data (see _gradient_magnitudes)."""
    return SpaceTimeField(data.grid, np.stack(list(_gradient_magnitudes(data))),
                          PHYSICAL)


def strichartz_ratio(data: CauchyData, q_t: float, s: float = 1.75) -> float:
    """Dispersive-to-data norm quotient for one free solution of real data.

    R = |grad u|_{L^{q_t}_t L^inf_x} / (|f|_{H^s} + |g|_{H^{s-1}}), the
    space-time norm taken over one period of the data's grid.  Each slice
    is reduced to its lattice max as it is made, so the (nt, nx, nx) stack
    is never held.
    """
    maxima = np.array([slice_.max() for slice_ in _gradient_magnitudes(data)])
    num = _temporal_norm(maxima, q_t, data.grid.dt)
    den = fl_norm(data.f, 2, s).value + fl_norm(data.g, 2, s - 1).value
    return num / den


@dataclass(frozen=True)
class StrichartzProbe:
    records: tuple      # dicts: resolution, seed, ratio
    medians: dict       # resolution -> median ratio
    slope: float        # log2(median) per log2(resolution)


def strichartz_tasks(ensemble_size: int, q_t: float, resolution_ladder,
                     seed: int, nt: int = 64, s: float = 1.75,
                     band_policy: str = "fixed") -> list:
    """strichartz_member keyword arguments, one per (resolution, member).

    With the default "fixed" band policy the random data band is pinned at
    the coarsest grid's capacity and only the lattice refines, so a flat
    trend certifies that the discrete dispersive-to-data quotient is stable
    under resolution.  The "proportional" policy grows the band with the
    grid instead; there the data norm itself still creeps upward along its
    slowly convergent tail (the 0.01 decay margin), which shows up as a
    small negative drift of the quotient.
    """
    if q_t < 4 or math.isinf(q_t):
        raise ValueError("q_t must be finite and >= 4")
    if band_policy not in ("fixed", "proportional"):
        raise ValueError("band_policy must be 'fixed' or 'proportional'")
    base_band = 0.4 * min(resolution_ladder)
    return [dict(resolution=m, seed=seed + 7919 * m + j, q_t=q_t, nt=nt, s=s,
                 band_modes=0.4 * m if band_policy == "proportional" else base_band)
            for m in resolution_ladder for j in range(ensemble_size)]


def strichartz_member(resolution: int, seed: int, q_t: float, nt: int,
                      s: float, band_modes: float) -> float:
    """Ratio of one ensemble member: random data of this seed, band-limited
    to band_modes lattice steps, on the resolution x resolution grid."""
    grid = GridSpec(nx=resolution, nt=nt, spatial_period=TWO_PI, time_period=1.0)
    data = random_data(grid, s=s, r=2, seed=seed,
                       band_limit=grid.d_xi * band_modes)
    return strichartz_ratio(data, q_t, s=s)


def strichartz_summary(tasks, ratios) -> StrichartzProbe:
    """Records, median ratio per resolution and the log-log slope of the
    medians; a member whose ratio is None (a failed task) is left out."""
    records = tuple({"resolution": task["resolution"], "seed": task["seed"],
                     "ratio": ratio}
                    for task, ratio in zip(tasks, ratios) if ratio is not None)
    groups = {}
    for rec in records:
        groups.setdefault(rec["resolution"], []).append(rec["ratio"])
    medians = {m: float(np.median(group)) for m, group in groups.items()}
    ms = sorted(medians)
    xs = np.log2(np.array(ms, float))
    ys = np.log2(np.array([medians[m] for m in ms]))
    slope = float(np.polyfit(xs, ys, 1)[0]) if len(ms) >= 2 else 0.0
    return StrichartzProbe(records=records, medians=medians, slope=slope)


def strichartz_probe(ensemble_size: int, q_t: float, resolution_ladder,
                     seed: int, nt: int = 64, s: float = 1.75,
                     band_policy: str = "fixed") -> StrichartzProbe:
    """Ratio trend of free solutions with rough random data across
    resolutions, run serially; see strichartz_tasks for the band policies."""
    tasks = strichartz_tasks(ensemble_size, q_t, resolution_ladder, seed,
                             nt=nt, s=s, band_policy=band_policy)
    return strichartz_summary(tasks, [strichartz_member(**task) for task in tasks])
