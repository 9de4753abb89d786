"""Thickened null-cone regions and Monte Carlo volume measurement.

Regions are pure membership predicates on R^{1+2} points X = (tau, xi1, xi2),
built from a small tagged union of primitives.  The thickening convention is
|tau -/+ |xi|| <= L (implicit constant fixed at 1), and the cone primitives
carry the half-space constraint +/- tau >= 0 of the upper/lower cone sheets.
Volumes of intersections are measured by uniform sampling inside caller
supplied axis-aligned boxes, with counter-based per-chunk random streams so
estimates are reproducible and independent of chunking or scheduling.

The sample stream: chunk c holds n <= _CHUNK points, the last chunk the
remainder, and its coordinates are the draws of one Philox stream keyed on
(seed, c), in the order of `_chunk_rng(seed, c).random((3, n))`: tau takes
draws 0..n-1, xi1 draws n..2n-1 and xi2 draws 2n..3n-1, each scaled to its
box axis as lo + (hi - lo) * u.  `region_volume_mc` reads that stream in
blocks of _BLOCK points, so that the coordinates and the predicate's
temporaries stay within a core's L2 cache: three generators on the chunk's
key start at draw offsets 0, n and 2n (`_chunk_rng(seed, c, offset)`), and
each fills its row of one preallocated (3, _BLOCK) array per block.  The
points, and so the hit counts, are those of the whole-chunk draw bit for
bit.  The cone predicates compute |xi| and the sheet test with in-place
ufuncs, which give the same IEEE results as the plain expressions.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

import numpy as np

from .norms import LebesgueExponents
from .spectral_grid import TWO_PI, require_dyadic


# ---------------------------------------------------------------------------
# region primitives
# ---------------------------------------------------------------------------

def _check_sign(sign):
    if sign not in (+1, -1):
        raise ValueError(f"cone sign must be +1 or -1, got {sign!r}")
    return sign


class Region:
    """Base class; subclasses implement the vectorized membership predicate."""

    def contains(self, tau, xi1, xi2):
        raise NotImplementedError

    def contains_point(self, point) -> bool:
        tau, xi1, xi2 = point
        return bool(np.asarray(self.contains(np.float64(tau), np.float64(xi1),
                                             np.float64(xi2))))


@dataclass(frozen=True)
class _Cone(Region):
    """Sign, N and L of a cone primitive, and its thickened sheet."""

    sign: int
    N: int
    L: int

    def __post_init__(self):
        _check_sign(self.sign)
        require_dyadic("N", self.N)
        require_dyadic("L", self.L)

    def _sheet(self, tau, r):
        """sign*tau >= 0 and |tau - sign*r| <= L, where r = |xi|."""
        # tau + r is tau - (-1)*r bit for bit
        d = (np.subtract if self.sign > 0 else np.add)(
            tau, r, out=np.empty(np.broadcast_shapes(np.shape(tau), r.shape)))
        inside = np.abs(d, out=d) <= self.L
        inside &= tau >= 0 if self.sign > 0 else tau <= 0
        return inside


def _radius(xi1, xi2):
    """|xi| = sqrt(xi1**2 + xi2**2) as an array of the broadcast shape."""
    r = np.square(xi1, out=np.empty(np.broadcast_shapes(np.shape(xi1),
                                                        np.shape(xi2))))
    r += np.square(xi2)
    return np.sqrt(r, out=r)


@dataclass(frozen=True)
class BallCone(_Cone):
    """K(sign, N, L): |xi| <= N, sign*tau >= 0, |tau - sign*|xi|| <= L."""

    def contains(self, tau, xi1, xi2):
        r = _radius(xi1, xi2)
        inside = self._sheet(tau, r)
        inside &= r <= self.N
        return inside

    def bounding_box(self):
        lo, hi = 0.0, self.N + self.L
        t = (lo, hi) if self.sign > 0 else (-hi, -lo)
        return (t, (-self.N, self.N), (-self.N, self.N))


@dataclass(frozen=True)
class AnnularCone(_Cone):
    """K-annular: |xi| in [N, 2N), sign*tau >= 0, |tau - sign*|xi|| <= L."""

    def contains(self, tau, xi1, xi2):
        r = _radius(xi1, xi2)
        inside = self._sheet(tau, r)
        inside &= r >= self.N
        inside &= r < 2 * self.N
        return inside

    def bounding_box(self):
        lo = max(0.0, self.N - self.L)
        hi = 2 * self.N + self.L
        t = (lo, hi) if self.sign > 0 else (-hi, -lo)
        b = 2 * self.N
        return (t, (-b, b), (-b, b))


@dataclass(frozen=True)
class Translate(Region):
    """X in Translate(A, X0)  <=>  X - X0 in A."""

    region: Region
    X0: Tuple[float, float, float]

    def __post_init__(self):
        object.__setattr__(self, "X0", tuple(float(v) for v in self.X0))

    def contains(self, tau, xi1, xi2):
        t0, a0, b0 = self.X0
        return self.region.contains(tau - t0, xi1 - a0, xi2 - b0)


@dataclass(frozen=True)
class Reflect(Region):
    """X in Reflect(A)  <=>  -X in A."""

    region: Region

    def contains(self, tau, xi1, xi2):
        return self.region.contains(-tau, -xi1, -xi2)


@dataclass(frozen=True)
class Intersect(Region):
    """Intersection of a list of regions."""

    regions: Tuple[Region, ...]

    def __post_init__(self):
        object.__setattr__(self, "regions", tuple(self.regions))
        if not self.regions:
            raise ValueError("Intersect requires at least one region")

    def contains(self, tau, xi1, xi2):
        # Each later region is evaluated only on the points still inside;
        # every predicate is elementwise, so the mask equals the plain AND.
        coords = np.broadcast_arrays(tau, xi1, xi2)
        out = np.require(self.regions[0].contains(*coords), dtype=bool,
                         requirements=("C", "W"))
        flat_out = out.reshape(-1)
        flat = [c.reshape(-1) for c in coords]
        for reg in self.regions[1:]:
            idx = np.flatnonzero(flat_out)
            if idx.size == 0:
                break
            flat_out[idx] = reg.contains(*(c[idx] for c in flat))
        return out


# ---------------------------------------------------------------------------
# Monte Carlo volume estimation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VolumeEstimate:
    """Unbiased uniform-sampling estimate of a 3D region volume."""

    mean: float
    std_error: float
    samples: int
    hits: int = 0

    def __post_init__(self):
        if self.mean < 0:
            raise ValueError("volume estimate cannot be negative")


_CHUNK = 1 << 18
# points per block read from a chunk's stream: the (3, _BLOCK) coordinates
# (768 KiB) and the predicates' temporaries fit in a 4 MiB L2 cache
_BLOCK = 1 << 15


def _chunk_rng(seed: int, chunk_index: int,
               offset: int = 0) -> np.random.Generator:
    """Generator on the Philox stream of chunk `chunk_index`, at its draw
    `offset`.

    Philox yields four draws per counter value and advances the counter
    before each four, so draws 4k..4k+3 come from counter k + 1: starting
    from counter offset // 4 and discarding offset % 4 draws lands on draw
    `offset`.  One draw is one float of `Generator.random`.
    """
    key = np.array([np.uint64(seed), np.uint64(chunk_index)], dtype=np.uint64)
    bit_generator = np.random.Philox(key=key, counter=offset // 4)
    bit_generator.random_raw(offset % 4)
    return np.random.Generator(bit_generator)


def box_volume(box) -> float:
    vol = 1.0
    for lo, hi in box:
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("bounding box must be finite on all axes")
        vol *= max(hi - lo, 0.0)
    return vol


def region_volume_mc(region: Region, bounding_box, samples: int,
                     seed: int) -> VolumeEstimate:
    """Uniform-sampling volume of `region` inside `bounding_box`.

    The box, three (lo, hi) axes, must enclose the region (caller contract,
    unchecked).  Sampling is chunked with per-chunk counter-based Philox
    streams keyed on (seed, chunk index), so the result is deterministic for
    a given seed and independent of chunk scheduling; each chunk is read in
    blocks of _BLOCK points (see the module docstring for the layout).
    """
    if len(bounding_box) != 3 or any(len(axis) != 2 for axis in bounding_box):
        raise ValueError(f"bounding box must be three (lo, hi) axes, got "
                         f"{bounding_box!r}")
    if (isinstance(samples, bool) or not isinstance(samples, numbers.Integral)
            or samples < 1):
        raise ValueError(f"samples must be an int >= 1, got {samples!r}")
    vol_box = box_volume(bounding_box)
    pts = np.empty((3, _BLOCK))
    hits = 0
    for chunk_index, done in enumerate(range(0, samples, _CHUNK)):
        n = min(_CHUNK, samples - done)
        rngs = [_chunk_rng(seed, chunk_index, axis * n) for axis in range(3)]
        for start in range(0, n, _BLOCK):
            block = pts[:, :min(_BLOCK, n - start)]
            for rng, row, (lo, hi) in zip(rngs, block, bounding_box):
                rng.random(out=row)
                row *= hi - lo
                row += lo
            hits += int(np.count_nonzero(region.contains(*block)))
    p = hits / samples
    mean = vol_box * p
    if samples > 1:
        var = vol_box ** 2 * p * (1.0 - p) * samples / (samples - 1)
        std_error = math.sqrt(var / samples)
    else:
        std_error = 0.0
    return VolumeEstimate(mean=mean, std_error=std_error, samples=samples,
                          hits=hits)


def region_volume_quadrature(region: Region, bounding_box, nodes: int = 200) -> float:
    """Deterministic midpoint tensor-quadrature volume over the same box."""
    (t_lo, t_hi), (a_lo, a_hi), (b_lo, b_hi) = bounding_box
    axes = []
    for lo, hi in bounding_box:
        h = (hi - lo) / nodes
        axes.append(lo + h * (np.arange(nodes) + 0.5))
    cell = ((t_hi - t_lo) / nodes) * ((a_hi - a_lo) / nodes) * ((b_hi - b_lo) / nodes)
    total = 0
    tau_ax, a_ax, b_ax = axes
    aa, bb = np.meshgrid(a_ax, b_ax, indexing="ij", sparse=True)
    for t in tau_ax:
        total += int(np.count_nonzero(region.contains(np.float64(t), aa, bb)))
    return total * cell


def ball_cone_volume_exact(N, L) -> float:
    """Closed-form volume of BallCone(+-, N, L) for L <= N."""
    if L > N:
        raise ValueError("closed form assumes L <= N")
    return TWO_PI * L * N ** 2 - math.pi * L ** 3 / 3.0


# ---------------------------------------------------------------------------
# interaction-volume measurement cases
# ---------------------------------------------------------------------------
#
# Each case builds the intersection E = A1 cap (X0 - A2) at a dyadic
# parameter point, together with an analytic sampling box and the dyadic
# bound shape the measured volume is compared against.  Witness points sit on
# the cone axis, placed mid-annulus so the translated region is nonempty.

HLH_HARD = "HLH_hard"
HLH_EASY = "HLH_easy"

# Exact exponents of the HLH bound shapes N1^N1 * min(L)^L1 * max(L)^L2
# (hard: L2 <= N1; easy: large L2).  low is the low-frequency dimension, which
# the best-constant exponents (hlh_exponents) carry through p = r'.
VOLUME_EXPONENTS = {
    HLH_HARD: {"N1": Fraction(3, 2), "L1": 1, "L2": Fraction(1, 2), "low": 1},
    HLH_EASY: {"N1": 2, "L1": 1, "L2": 0, "low": 2},
}
VOLUME_CASES = tuple(VOLUME_EXPONENTS)


def hlh_exponents(case: str, r) -> dict:
    """Exact best-constant exponents of an HLH case at Lebesgue exponent r,
    keyed by the dyadic base they apply to: the case's volume exponents over
    r, the low dimension split off by p = r', and "total", N1/r, the sum of
    the two N exponents at coincident N."""
    lebesgue = LebesgueExponents(r)
    r, p = lebesgue.r, lebesgue.p
    e = VOLUME_EXPONENTS[case]
    return {
        "N_min_012": e["low"] / p,
        "N_min_12": e["N1"] / r - e["low"] / p,
        "L_min": e["L1"] / r,
        "L_max": e["L2"] / r,
        "total": e["N1"] / r,
    }


_BASE_PARAMS = {
    HLH_HARD: {"N1": 16, "L1": 2, "L2": 2},
    HLH_EASY: {"N1": 16, "L1": 2, "L2": None},   # L2 defaults to 4*N1
}

_VACUOUS_L = 1 << 40    # dyadic; modulation constraint vacuous on any lattice


def volume_case_config(case: str, **params):
    """Region, analytic box, and bound shape for one measurement point.

    Returns a dict with keys region, box, bound (the dyadic bound-shape
    value), and params (the fully derived parameter set).
    """
    if case not in VOLUME_CASES:
        raise ValueError(f"unknown volume case {case!r}; choose from {VOLUME_CASES}")
    p = dict(_BASE_PARAMS[case])
    for k, v in params.items():
        if k not in p:
            raise ValueError(f"case {case} does not take parameter {k!r}")
        p[k] = v

    N1, L1 = p["N1"], p["L1"]
    L2 = p["L2"] if p["L2"] is not None else 4 * N1
    N2 = 8 * N1
    if case == HLH_HARD:
        R = N2 + 2 * N1
        X0 = (float(R), float(R), 0.0)
        region = Intersect((
            AnnularCone(+1, N1, L1),
            Translate(Reflect(AnnularCone(+1, N2, L2)), X0),
        ))
        # The intersection forces xi1 nearly parallel to the axis with
        # transverse defect y^2/(2 x) <= L1 + L2; the box below encloses it.
        y_half = min(2.0 * N1, math.sqrt(8.0 * N1 * (L1 + L2)))
        box = ((N1 - L1, 2 * N1 + L1), (N1 / 4.0, 2.0 * N1), (-y_half, y_half))
    else:
        p["N0"] = N0 = 4 * N1
        X0 = (float(N0), float(N0), 0.0)
        region = Intersect((
            BallCone(+1, N1, L1),
            Translate(Reflect(BallCone(+1, N2, L2)), X0),
        ))
        box = ((0.0, N1 + L1), (-N1, N1), (-N1, N1))
    e = VOLUME_EXPONENTS[case]
    bound = (N1 ** float(e["N1"]) * min(L1, L2) ** float(e["L1"])
             * max(L1, L2) ** float(e["L2"]))
    p.update(L2=L2, N2=N2)
    return {"region": region, "box": box, "bound": bound, "params": p}

