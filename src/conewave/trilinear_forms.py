"""Trilinear convolution form and empirical best constants.

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

import numpy as np

from .frequency_geometry import _VACUOUS_L, BallCone, Reflect
from .norms import LebesgueExponents
from .spectral_grid import (FREQUENCY, TWO_PI, GridSpec, SpaceTimeField,
                            flip_wrap, region_mask, to_physical)


# ---------------------------------------------------------------------------
# the trilinear form
# ---------------------------------------------------------------------------

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
        f2r = flip_wrap(np.asarray(F2.values))
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


def _contiguous(index: np.ndarray):
    """An ascending index array as a slice when it is a contiguous run, so
    that indexing with it gives a view, not a copy."""
    if index[-1] - index[0] + 1 == len(index):
        return slice(int(index[0]), int(index[-1]) + 1)
    return index


class _Lines:
    """The (tau, xi1) lattice lines a region occupies, and its support there.

    A slot's values live as an (nlines, nx) block whose row i is the xi2
    line with flat (tau, xi1) index lines[i]; `support` is the region mask
    on those lines and `rows` the sorted tau rows they lie on.  Each index
    is a slice where it is a contiguous run.  On the shipped constants
    points a region occupies 23 to 1,056 of the 2,048 lines of the
    64 x 32 x 32 lattice.
    """

    def __init__(self, mask: np.ndarray):
        nt, nx, _ = self.shape = mask.shape
        self.half = (nt, nx, nx // 2 + 1)
        occupied = mask.any(axis=2)
        lines = np.flatnonzero(occupied)
        rows = np.flatnonzero(occupied.any(axis=1))
        self.lines = _contiguous(lines)
        self.support = mask.reshape(-1, nx)[self.lines]
        self.rows = _contiguous(rows)
        # the same lines as flat (row, xi1) indices into a[rows]
        self.row_lines = _contiguous(np.flatnonzero(occupied[rows]))

    def restrict(self, values: np.ndarray) -> np.ndarray:
        """The block of a dense lattice array, zero off the support."""
        return np.where(self.support,
                        values.reshape(-1, self.shape[2])[self.lines], 0.0)


def _line_spectrum(block: np.ndarray, lines: _Lines,
                   out: np.ndarray) -> np.ndarray:
    """Half spectrum rfftn(a), written into `out`, of the real lattice
    density a that is `block` on the lines of `lines` and zero elsewhere.

    rfftn over (0, 1, 2) is an rfft on axis 2, an fft on axis 1, then an fft
    on axis 0.  The rfft transforms each (tau, xi1) line on its own, so it
    runs on the block's lines only; the fft on axis 1 transforms each tau
    row on its own, so it runs on `rows` only.  A zero line or row
    transforms to exact zeros, and numpy runs every 1-D line through the
    same plan whatever the batch size, so the result is bit-identical to
    rfftn.
    """
    out.fill(0.0)
    out.reshape(-1, out.shape[2])[lines.lines] = np.fft.rfft(block, axis=1)
    part = out[lines.rows]      # a view of out when rows is a slice
    out[lines.rows] = np.fft.fft(part, axis=1, out=part)
    return np.fft.fft(out, axis=0, out=out)


def _line_kernel(spec1: np.ndarray, spec2: np.ndarray, lines: _Lines,
                 prod: np.ndarray) -> np.ndarray:
    """g[j] = sum_k a1[k] * a2[(-j-k) mod n] on the lines of `lines`, as an
    (nlines, nx) block, from the half spectra of a1, a2; `prod` is scratch.

    The inputs are real and nonnegative.  For real x the DFT of
    x[(-j) mod n] is conj(DFT(x)), so the flip-wrapped cyclic convolution is
    one inverse real transform of the conjugated product.  irfftn is an ifft
    on axis 0, then an ifft on axis 1 and an irfft on axis 2.  The ifft on
    axis 1 transforms each tau row on its own, so it runs on `rows` only,
    and the irfft each (tau, xi1) line on its own, so it runs on the lines
    only; through the same 1-D plans they match irfftn there bit for bit.
    """
    np.multiply(spec1, spec2, out=prod)
    np.conjugate(prod, out=prod)
    np.fft.ifft(prod, axis=0, out=prod)
    part = prod[lines.rows]
    np.fft.ifft(part, axis=1, out=part)
    g = np.fft.irfft(part.reshape(-1, part.shape[2])[lines.row_lines],
                     n=lines.shape[2], axis=1)
    # rounding can leave tiny negatives on a nonnegative convolution
    np.maximum(g, 0.0, out=g)
    return g


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
    """best_constant's restarts, sweeps per restart, relative stopping
    tolerance and seed; the defaults are the CLI's [ascent] defaults."""

    restarts: int = 6
    max_iters: int = 60
    tol: float = 1e-7
    seed: int = 0


@dataclass(frozen=True)
class ConstantMeasurement:
    """One measured best constant and the ascent that reached it."""

    measured_C: float
    iterations: int
    converged: bool
    degenerate: bool = False
    trace: tuple = field(default=(), repr=False)


def _normalize(values: np.ndarray, q: float, w: float) -> np.ndarray:
    nrm = (np.sum(values ** q) * w) ** (1.0 / q)
    if nrm == 0:
        return values
    return values / nrm


def best_constant(grid: GridSpec, A0, A1, A2, r,
                  config: AscentConfig = AscentConfig()) -> ConstantMeasurement:
    """Measure sup J(F0, F1, F2) / (|F0|_r |F1|_p |F2|_p) over the regions.

    Nonnegative fields supported on the lattice masks of A0, A1, A2 are
    alternately replaced by the closed-form duality extremizer against the
    other two slots, so the objective never decreases; the best value over
    seeded restarts is reported.  An all-zero effective kernel (regions with
    no compatible triple) yields measured_C = 0 with the degenerate flag.

    Each slot lives as an (nlines, nx) block on the lattice lines its region
    occupies (_Lines), where the duality update, the normalisation and the
    objective run, and is kept between updates as its real half spectrum;
    so a slot update costs one pruned inverse and one pruned forward real
    transform (_line_kernel, _line_spectrum).
    """
    p = float(LebesgueExponents(r).p)
    r = float(r)
    q_slot = (r, p, p)
    w = grid.freq_cell
    w2 = w * w
    masks = [region_mask(grid, A) for A in (A0, A1, A2)]
    if not all(m.any() for m in masks):
        raise ValueError("best_constant requires regions nonempty on the lattice")
    # every slot is zero off its lines, so it lives and transforms there
    slots = [_Lines(m) for m in masks]
    buffers = [np.empty(s.half, dtype=complex) for s in slots]
    prod = np.empty(slots[0].half, dtype=complex)

    best_val = -1.0
    best_trace = ()
    best_iters = 0
    best_converged = False

    for restart in range(config.restarts):
        rng = np.random.default_rng((config.seed, restart))
        # an update reads the other slots only through their spectra, and
        # update 0 reads slots 1 and 2 only: slot 0's start is drawn, so that
        # the later slots' streams stay put, but never transformed
        rng.random(grid.shape)
        spectra = [None] + [
            _line_spectrum(_normalize(s.restrict(rng.random(grid.shape)), q, w),
                           s, buf)
            for s, buf, q in zip(slots[1:], buffers[1:], q_slot[1:])]

        value = -math.inf
        trace = []
        converged = False
        iters = 0
        dead = False
        for iters in range(1, config.max_iters + 1):
            prev = value
            for j in range(3):
                k, l = (j + 1) % 3, (j + 2) % 3
                g = _line_kernel(spectra[k], spectra[l], slots[j], prod)
                g *= slots[j].support
                q = q_slot[j]
                # f**(q-1) = g, so the norm sum of f**q is the sum of f*g,
                # and that one sum also gives the objective
                f = g ** (1.0 / (q - 1.0))
                fg = np.sum(f * g)
                if fg == 0.0:
                    dead = True
                    break
                nrm = (fg * w) ** (1.0 / q)
                f /= nrm
                spectra[j] = _line_spectrum(f, slots[j], buffers[j])
                value = float(fg * w2 / nrm)
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

    return ConstantMeasurement(measured_C=max(best_val, 0.0),
                               iterations=best_iters, converged=best_converged,
                               degenerate=best_val <= 0.0, trace=best_trace)


def objective_value(grid: GridSpec, fields) -> float:
    """J of a (F0, F1, F2) value triple (arrays), for oracle comparisons.

    It runs best_constant's kernel on every lattice line, where the pruned
    transforms of _line_spectrum and _line_kernel are rfftn and irfftn.
    """
    f0, f1, f2 = (np.asarray(f, dtype=float).reshape(-1, grid.nx)
                  for f in fields)
    lines = _Lines(np.ones(grid.shape, dtype=bool))
    spec1, spec2, prod = (np.empty(lines.half, dtype=complex) for _ in range(3))
    g = _line_kernel(_line_spectrum(f1, lines, spec1),
                     _line_spectrum(f2, lines, spec2), lines, prod)
    return float(np.sum(f0 * g) * grid.freq_cell ** 2)
