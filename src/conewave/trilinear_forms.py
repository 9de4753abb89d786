"""Trilinear convolution form, empirical best constants, and exponent fits.

The dual trilinear form J couples three frequency-lattice densities through
the convolution constraint X0 + X1 + X2 = 0 (with periodic index wrap).  The
best constant of a cone-restricted bilinear estimate is the supremum of J
over nonnegative unit-norm densities supported on the three regions; it is
measured by alternating maximization, where the optimal slot against two
fixed slots is the Hoelder duality extremizer in closed form, so the
objective is nondecreasing by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from ._regression import fit_power_law
from .frequency_geometry import _VACUOUS_L, BallCone, Reflect
from .norms import _as_fraction
from .spectral_grid import (FREQUENCY, TWO_PI, GridSpec, SpaceTimeField,
                            region_mask, require_dyadic, to_physical)


# ---------------------------------------------------------------------------
# the trilinear form
# ---------------------------------------------------------------------------

def _flip_wrap(a: np.ndarray) -> np.ndarray:
    """b[j] = a[(-j) mod n] along every axis."""
    out = a[::-1, ::-1, ::-1]
    return np.roll(out, shift=(1, 1, 1), axis=(0, 1, 2))


def _check_common_grid(fields):
    grid = fields[0].grid
    for f in fields:
        if f.grid != grid:
            raise ValueError("eval_J requires fields on a common grid")
        if f.rep != FREQUENCY:
            raise ValueError("eval_J expects frequency-representation fields")
    return grid


def eval_J(F0: SpaceTimeField, F1: SpaceTimeField, F2: SpaceTimeField,
           mode: str = "fast") -> complex:
    """Trilinear convolution form sum F0(X0) F1(X1) F2(-X0-X1) * freq_cell^2.

    "direct" evaluates the literal double lattice sum with periodic index
    wrap (the oracle); "fast" computes the same number through the physical
    side product sum u0*u1*u2 times the grid's exact normalization constant
    (2*pi)^{3/2} * dt * dx^2.
    """
    grid = _check_common_grid((F0, F1, F2))
    if mode == "direct":
        w2 = grid.freq_cell ** 2
        f2r = _flip_wrap(np.asarray(F2.values))
        v1 = np.asarray(F1.values)
        total = 0.0 + 0.0j
        nt, nx, _ = grid.shape
        for jt in range(nt):
            rolled_t = np.roll(f2r, -jt, axis=0)
            for ja in range(nx):
                rolled_a = np.roll(rolled_t, -ja, axis=1)
                for jb in range(nx):
                    inner = np.sum(v1 * np.roll(rolled_a, -jb, axis=2))
                    total += F0.values[jt, ja, jb] * inner
        return complex(total * w2)
    if mode == "fast":
        c = TWO_PI ** 1.5 * grid.phys_cell
        u0 = to_physical(F0).values
        u1 = to_physical(F1).values
        u2 = to_physical(F2).values
        return complex(np.sum(u0 * u1 * u2) * c)
    raise ValueError(f"mode must be 'direct' or 'fast', got {mode!r}")


def _cyclic_conv(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.fft.ifftn(np.fft.fftn(a) * np.fft.fftn(b))


def _effective_kernel(other1: np.ndarray, other2: np.ndarray) -> np.ndarray:
    """g[j] = sum_k other1[k] * other2[(-j-k) mod n]; real nonneg inputs."""
    g = _flip_wrap(_cyclic_conv(other1, other2)).real
    # rounding can leave tiny negatives on a nonnegative convolution
    np.maximum(g, 0.0, out=g)
    return g


# ---------------------------------------------------------------------------
# estimate forms and predictions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EstimateForm:
    """Dyadic constant shape of a cone-restriction estimate ("easy"/"hard")."""

    kind: str

    def __post_init__(self):
        if self.kind not in ("easy", "hard"):
            raise ValueError(f"kind must be 'easy' or 'hard', got {self.kind!r}")

    def exponents(self, r) -> dict:
        """Exact rational exponents keyed by the dyadic base they apply to."""
        r = _as_fraction(r)
        p = r / (r - 1)
        if self.kind == "easy":
            return {
                "N_min_012": 2 / p,
                "N_min_12": 2 / r - 2 / p,
                "L_min": 1 / r,
                "L_max": Fraction(0),
            }
        return {
            "N_min_012": 1 / p,
            "N_min_12": Fraction(3, 2) / r - 1 / p,
            "L_min": 1 / r,
            "L_max": Fraction(1, 2) / r,
        }


def predicted_constant(form: EstimateForm, N, L, r) -> float:
    """Evaluate the estimate-form constant at a dyadic configuration.

    N = (N0, N1, N2) and L = (L1, L2); exponents are exact rationals, the
    value is the float product of the dyadic bases raised to them.
    """
    N0, N1, N2 = N
    L1, L2 = L
    for name, v in zip(("N0", "N1", "N2", "L1", "L2"), (N0, N1, N2, L1, L2)):
        require_dyadic(name, v)
    bases = {
        "N_min_012": min(N0, N1, N2),
        "N_min_12": min(N1, N2),
        "L_min": min(L1, L2),
        "L_max": max(L1, L2),
    }
    value = 1.0
    for key, exp in form.exponents(r).items():
        value *= float(bases[key]) ** float(exp)
    return value


# ---------------------------------------------------------------------------
# best-constant measurement
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BallConeRegions:
    """Standard dual-form region triple of the cone-restriction estimates.

    Slot 0 carries the reflected output region -K(sign0, N0) (ball cone with
    vacuous modulation); slots 1 and 2 carry the modulation-restricted ball
    cones K(sign_j, N_j, L_j).
    """

    N: tuple
    L: tuple
    signs: tuple

    def __post_init__(self):
        if len(self.N) != 3 or len(self.L) != 2 or len(self.signs) != 3:
            raise ValueError("expected N = (N0, N1, N2), L = (L1, L2), three signs")

    @property
    def A0(self):
        return Reflect(BallCone(self.signs[0], self.N[0], _VACUOUS_L))

    @property
    def A1(self):
        return BallCone(self.signs[1], self.N[1], self.L[0])

    @property
    def A2(self):
        return BallCone(self.signs[2], self.N[2], self.L[1])


@dataclass(frozen=True)
class AscentConfig:
    restarts: int = 8
    max_iters: int = 100
    tol: float = 1e-8
    seed: int = 0
    initial: tuple | None = None   # optional warm-start (F0, F1, F2) arrays


@dataclass(frozen=True)
class ConstantMeasurement:
    """One measured best constant at a dyadic configuration."""

    N: tuple
    L: tuple
    signs: tuple
    r: float
    measured_C: float
    iterations: int
    converged: bool
    restarts: int
    seed: int
    degenerate: bool = False
    trace: tuple = field(default=(), repr=False)

    def axis_value(self, axis: str):
        order = {"N0": ("N", 0), "N1": ("N", 1), "N2": ("N", 2),
                 "L1": ("L", 0), "L2": ("L", 1)}
        group, idx = order[axis]
        return getattr(self, group)[idx]


def _normalize(values: np.ndarray, q: float, w: float) -> np.ndarray:
    nrm = (np.sum(values ** q) * w) ** (1.0 / q)
    if nrm == 0:
        return values
    return values / nrm


def best_constant(grid: GridSpec, A0, A1, A2, r,
                  config: AscentConfig = AscentConfig(),
                  N=(None,) * 3, L=(None,) * 2,
                  signs=(None,) * 3) -> ConstantMeasurement:
    """Measure sup J(F0, F1, F2) / (|F0|_r |F1|_p |F2|_p) over the regions.

    Nonnegative fields supported on the lattice masks of A0, A1, A2 are
    alternately replaced by the closed-form duality extremizer against the
    other two slots, so the objective never decreases; the best value over
    seeded restarts is reported.  An all-zero effective kernel (regions with
    no compatible triple) yields measured_C = 0 with the degenerate flag.
    """
    r = float(r)
    if not (1 < r <= 2):
        raise ValueError(f"r must lie in (1, 2], got {r}")
    p = r / (r - 1)
    q_slot = (r, p, p)
    w = grid.freq_cell
    w2 = w * w
    masks = [region_mask(grid, A) for A in (A0, A1, A2)]
    if not all(m.any() for m in masks):
        raise ValueError("best_constant requires regions nonempty on the lattice")

    best_val = -1.0
    best_trace = ()
    best_iters = 0
    best_converged = False

    for restart in range(config.restarts):
        rng = np.random.default_rng((config.seed, restart))
        fields = []
        if config.initial is not None and restart == 0:
            for init, mask, q in zip(config.initial, masks, q_slot):
                v = np.where(mask, np.maximum(np.asarray(init, dtype=float), 0.0), 0.0)
                fields.append(_normalize(v, q, w))
        else:
            for mask, q in zip(masks, q_slot):
                v = np.where(mask, rng.random(grid.shape), 0.0)
                fields.append(_normalize(v, q, w))

        value = -math.inf
        trace = []
        converged = False
        iters = 0
        dead = False
        for iters in range(1, config.max_iters + 1):
            prev = value
            for j in range(3):
                k, l = (j + 1) % 3, (j + 2) % 3
                g = _effective_kernel(fields[k], fields[l])
                g = np.where(masks[j], g, 0.0)
                gmax = g.max()
                if gmax == 0.0:
                    dead = True
                    break
                q = q_slot[j]
                fields[j] = _normalize(g ** (1.0 / (q - 1.0)), q, w)
                value = float(np.sum(fields[j] * g) * w2)
            if dead:
                break
            trace.append(value)
            if (prev > -math.inf
                    and abs(value - prev) <= config.tol * max(abs(value), 1e-300)):
                converged = True
                break
        if dead:
            value = 0.0
        if value > best_val:
            best_val = value
            best_trace = tuple(trace)
            best_iters = iters
            best_converged = converged

    if best_val <= 0.0:
        return ConstantMeasurement(N=N, L=L, signs=signs, r=r, measured_C=0.0,
                                   iterations=best_iters, converged=False,
                                   restarts=config.restarts, seed=config.seed,
                                   degenerate=True, trace=best_trace)
    return ConstantMeasurement(N=N, L=L, signs=signs, r=r, measured_C=best_val,
                               iterations=best_iters, converged=best_converged,
                               restarts=config.restarts, seed=config.seed,
                               degenerate=False, trace=best_trace)


def objective_value(grid: GridSpec, fields) -> float:
    """J of a (F0, F1, F2) value triple (arrays), for oracle comparisons."""
    w2 = grid.freq_cell ** 2
    g = _effective_kernel(np.asarray(fields[1], dtype=float),
                          np.asarray(fields[2], dtype=float))
    return float(np.sum(np.asarray(fields[0], dtype=float) * g) * w2)


# ---------------------------------------------------------------------------
# regression of measured constants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExponentFit:
    """Per-axis power-law fits of measured constants."""

    fits: dict   # axis name -> PowerLawFit

    def exponent(self, axis: str) -> float:
        return self.fits[axis].exponent

    def r_squared(self, axis: str) -> float:
        return self.fits[axis].r_squared


_AXES = ("N0", "N1", "N2", "L1", "L2")


def exponent_regression(measurements, varied_axes) -> ExponentFit:
    """Least-squares log2 fits of measured_C against each varied dyadic axis.

    For every axis the fit uses the measurements whose *other* axes sit at
    their modal values; designs with fewer than three distinct points per
    axis, or with no clean one-axis-at-a-time series, are rejected.
    """
    measurements = list(measurements)
    if not measurements:
        raise ValueError("exponent_regression requires at least one measurement")
    fits = {}
    for axis in varied_axes:
        if axis not in _AXES:
            raise ValueError(f"unknown axis {axis!r}; choose from {_AXES}")
        others = [a for a in _AXES if a != axis
                  and measurements[0].axis_value(a) is not None]
        modal = {}
        for o in others:
            vals = [m.axis_value(o) for m in measurements]
            modal[o] = max(set(vals), key=vals.count)
        series = [m for m in measurements
                  if all(m.axis_value(o) == modal[o] for o in others)]
        xs = [m.axis_value(axis) for m in series]
        if len(set(xs)) < 3:
            raise ValueError(
                f"degenerate design for axis {axis!r}: need >= 3 distinct dyadic "
                f"points with the other axes fixed, found {sorted(set(xs))}")
        ys = [m.measured_C for m in series]
        if any(y <= 0 for y in ys):
            raise ValueError(f"axis {axis!r} series contains nonpositive constants")
        fits[axis] = fit_power_law(np.array(xs, float), np.array(ys, float))
    return ExponentFit(fits=fits)
