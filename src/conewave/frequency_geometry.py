"""Thickened null-cone regions, angular nets, and Monte Carlo volume measurement.

Regions are pure membership predicates on R^{1+2} points X = (tau, xi1, xi2),
built from a small tagged union of primitives.  The thickening convention is
|tau -/+ |xi|| <= L (implicit constant fixed at 1), and the cone primitives
carry the half-space constraint +/- tau >= 0 of the upper/lower cone sheets.
Volumes of intersections are measured by uniform sampling inside caller
supplied axis-aligned boxes, with counter-based per-chunk random streams so
estimates are reproducible and independent of chunking or scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .spectral_grid import TWO_PI, require_dyadic
from ._regression import fit_power_law


# ---------------------------------------------------------------------------
# region primitives
# ---------------------------------------------------------------------------

def _check_sign(sign):
    if sign not in (+1, -1):
        raise ValueError(f"cone sign must be +1 or -1, got {sign!r}")
    return sign


def _unit(omega):
    w = np.asarray(omega, dtype=float)
    nrm = float(np.hypot(w[0], w[1]))
    if not math.isclose(nrm, 1.0, rel_tol=0, abs_tol=1e-9):
        raise ValueError(f"omega must be a unit vector, got |omega| = {nrm}")
    return (float(w[0]), float(w[1]))


class Region:
    """Base class; subclasses implement the vectorized membership predicate."""

    def contains(self, tau, xi1, xi2):
        raise NotImplementedError

    def contains_point(self, point) -> bool:
        tau, xi1, xi2 = point
        return bool(np.asarray(self.contains(np.float64(tau), np.float64(xi1),
                                             np.float64(xi2))))

    def bounding_box(self):
        """Conservative axis-aligned box ((tau_lo, tau_hi), (xi1..), (xi2..))."""
        raise NotImplementedError


_FULL_AXIS = (-math.inf, math.inf)


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
        half = tau >= 0 if self.sign > 0 else tau <= 0
        return half & (np.abs(tau - self.sign * r) <= self.L)


@dataclass(frozen=True)
class BallCone(_Cone):
    """K(sign, N, L): |xi| <= N, sign*tau >= 0, |tau - sign*|xi|| <= L."""

    def contains(self, tau, xi1, xi2):
        r = np.sqrt(xi1 ** 2 + xi2 ** 2)
        return (r <= self.N) & self._sheet(tau, r)

    def bounding_box(self):
        lo, hi = 0.0, self.N + self.L
        t = (lo, hi) if self.sign > 0 else (-hi, -lo)
        return (t, (-self.N, self.N), (-self.N, self.N))


@dataclass(frozen=True)
class AnnularCone(_Cone):
    """K-annular: |xi| in [N, 2N), sign*tau >= 0, |tau - sign*|xi|| <= L."""

    def contains(self, tau, xi1, xi2):
        return self._annulus(tau, np.sqrt(xi1 ** 2 + xi2 ** 2))

    def _annulus(self, tau, r):
        return (r >= self.N) & (r < 2 * self.N) & self._sheet(tau, r)

    def bounding_box(self):
        lo = max(0.0, self.N - self.L)
        hi = 2 * self.N + self.L
        t = (lo, hi) if self.sign > 0 else (-hi, -lo)
        b = 2 * self.N
        return (t, (-b, b), (-b, b))


@dataclass(frozen=True)
class SectorCone(AnnularCone):
    """Annular cone intersected with the sector theta(sign*xi, omega) <= gamma.

    The sign is applied to xi, matching the sector convention used for the
    lower cone sheet.
    """

    gamma: float
    omega: Tuple[float, float]

    def __post_init__(self):
        super().__post_init__()
        if not (0.0 < self.gamma <= math.pi):
            raise ValueError(f"gamma must lie in (0, pi], got {self.gamma}")
        object.__setattr__(self, "omega", _unit(self.omega))

    def contains(self, tau, xi1, xi2):
        r = np.sqrt(xi1 ** 2 + xi2 ** 2)
        wx, wy = self.omega
        dot = (self.sign * (xi1 * wx + xi2 * wy))
        with np.errstate(invalid="ignore", divide="ignore"):
            cosang = np.where(r > 0, dot / np.where(r > 0, r, 1.0), 1.0)
        return self._annulus(tau, r) & (cosang >= math.cos(self.gamma))

    def bounding_box(self):
        x_box, y_box = _sector_xy_box(self.sign, self.N, self.gamma, self.omega)
        return (super().bounding_box()[0], x_box, y_box)


def _sector_xy_box(sign, N, gamma, omega):
    # Bounding box of {r*u : r in [0, 2N], theta(sign*u, omega) <= gamma}.
    phi0 = math.atan2(sign * omega[1], sign * omega[0])
    angles = [phi0 - gamma, phi0 + gamma]
    # axis extrema inside the angular interval; phi0 +- gamma can reach out
    # to +-2*pi, so scan axis angles over that whole range
    for k in range(-4, 5):
        cand = k * math.pi / 2
        if phi0 - gamma <= cand <= phi0 + gamma:
            angles.append(cand)
    xs = [2 * N * math.cos(a) for a in angles] + [0.0]
    ys = [2 * N * math.sin(a) for a in angles] + [0.0]
    return (min(xs), max(xs)), (min(ys), max(ys))


@dataclass(frozen=True)
class Band(Region):
    """<xi> in [N, 2N), the bracket-weight dyadic band (all tau)."""

    N: int

    def __post_init__(self):
        require_dyadic("N", self.N)

    def contains(self, tau, xi1, xi2):
        w = np.sqrt(1.0 + xi1 ** 2 + xi2 ** 2)
        return (w >= self.N) & (w < 2 * self.N) & np.isfinite(tau)

    def bounding_box(self):
        b = math.sqrt(max((2 * self.N) ** 2 - 1.0, 0.0))
        return (_FULL_AXIS, (-b, b), (-b, b))


@dataclass(frozen=True)
class Modulation(Region):
    """<|tau| - |xi|> in [L, 2L), the dyadic distance-to-cone band."""

    L: int

    def __post_init__(self):
        require_dyadic("L", self.L)

    def contains(self, tau, xi1, xi2):
        r = np.sqrt(xi1 ** 2 + xi2 ** 2)
        m = np.sqrt(1.0 + (np.abs(tau) - r) ** 2)
        return (m >= self.L) & (m < 2 * self.L)

    def bounding_box(self):
        return (_FULL_AXIS, _FULL_AXIS, _FULL_AXIS)


@dataclass(frozen=True)
class FullSpace(Region):
    """All of R^{1+2}; the identity for projections and intersections."""

    def contains(self, tau, xi1, xi2):
        return np.isfinite(tau) & np.isfinite(xi1) & np.isfinite(xi2)

    def bounding_box(self):
        return (_FULL_AXIS, _FULL_AXIS, _FULL_AXIS)


@dataclass(frozen=True)
class HalfSpace(Region):
    """sign*tau >= 0 (closed: the tau = 0 plane belongs to both signs)."""

    sign: int

    def __post_init__(self):
        _check_sign(self.sign)

    def contains(self, tau, xi1, xi2):
        base = tau >= 0 if self.sign > 0 else tau <= 0
        return base & np.isfinite(xi1) & np.isfinite(xi2)

    def bounding_box(self):
        t = (0.0, math.inf) if self.sign > 0 else (-math.inf, 0.0)
        return (t, _FULL_AXIS, _FULL_AXIS)


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

    def bounding_box(self):
        box = self.region.bounding_box()
        return tuple((lo + s, hi + s) for (lo, hi), s in zip(box, self.X0))


@dataclass(frozen=True)
class Reflect(Region):
    """X in Reflect(A)  <=>  -X in A."""

    region: Region

    def contains(self, tau, xi1, xi2):
        return self.region.contains(-tau, -xi1, -xi2)

    def bounding_box(self):
        return tuple((-hi, -lo) for (lo, hi) in self.region.bounding_box())


@dataclass(frozen=True)
class Intersect(Region):
    """Intersection of a list of regions."""

    regions: Tuple[Region, ...]

    def __post_init__(self):
        object.__setattr__(self, "regions", tuple(self.regions))
        if not self.regions:
            raise ValueError("Intersect requires at least one region")

    def contains(self, tau, xi1, xi2):
        out = self.regions[0].contains(tau, xi1, xi2)
        for reg in self.regions[1:]:
            out = out & reg.contains(tau, xi1, xi2)
        return out

    def bounding_box(self):
        boxes = [r.bounding_box() for r in self.regions]
        out = []
        for axis in range(3):
            lo = max(b[axis][0] for b in boxes)
            hi = min(b[axis][1] for b in boxes)
            # an empty intersection may leave lo > hi; box_volume clamps it
            out.append((lo, hi))
        return tuple(out)


# ---------------------------------------------------------------------------
# angles and angular nets
# ---------------------------------------------------------------------------

def angle(a, b) -> float:
    """Angle in [0, pi] between nonzero 2-vectors a and b."""
    ax, ay = float(a[0]), float(a[1])
    bx, by = float(b[0]), float(b[1])
    na = math.hypot(ax, ay)
    nb = math.hypot(bx, by)
    if na == 0.0 or nb == 0.0:
        raise ValueError("angle is undefined for the zero vector")
    # atan2 of the wedge/dot pair is far more accurate near 0 and pi than acos
    return math.atan2(abs(ax * by - ay * bx), ax * bx + ay * by)


@dataclass(frozen=True)
class AngularNet:
    """Maximal gamma-separated set of unit directions on the circle."""

    gamma: float
    points: Tuple[Tuple[float, float], ...]

    def __len__(self):
        return len(self.points)

    def neighbors_within(self, omega, k: int):
        """Net points omega' with theta(omega', omega) <= k*gamma."""
        return [w for w in self.points if angle(w, omega) <= k * self.gamma + 1e-12]


def build_net(gamma: float) -> AngularNet:
    """Equally spaced maximal gamma-separated subset of the unit circle.

    Uses M = floor(2*pi/gamma) points at spacing 2*pi/M >= gamma, which is
    both gamma-separated and maximal (any extra direction would sit within
    gamma of an existing one), and satisfies the almost-orthogonality count
    #{omega' : theta(omega', omega) <= k*gamma} <= 2k + 1.
    """
    if not (0.0 < gamma <= math.pi):
        raise ValueError(f"gamma must lie in (0, pi], got {gamma!r}")
    # tolerate float roundoff when gamma divides 2*pi
    M = int(math.floor(TWO_PI / gamma + 1e-9))
    spacing = TWO_PI / M
    points = tuple((math.cos(k * spacing), math.sin(k * spacing)) for k in range(M))
    return AngularNet(gamma=gamma, points=points)


def gamma0(N1, L2) -> float:
    """Angular threshold sqrt(L2/N1) separating the sector decomposition regimes."""
    if N1 <= 0 or L2 <= 0:
        raise ValueError("gamma0 requires positive N1 and L2")
    return math.sqrt(L2 / N1)


# ---------------------------------------------------------------------------
# Monte Carlo volume estimation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VolumeEstimate:
    """Unbiased uniform-sampling estimate of a 3D region volume."""

    mean: float
    std_error: float
    samples: int
    seed: int
    hits: int = 0

    def __post_init__(self):
        if self.mean < 0:
            raise ValueError("volume estimate cannot be negative")


_CHUNK = 1 << 18


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    key = np.array([np.uint64(seed), np.uint64(chunk_index)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


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

    The box must enclose the region (caller contract, unchecked).  Sampling
    is chunked with per-chunk counter-based Philox streams keyed on
    (seed, chunk index), so the result is deterministic for a given seed and
    independent of chunk scheduling.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    vol_box = box_volume(bounding_box)
    (t_lo, t_hi), (a_lo, a_hi), (b_lo, b_hi) = bounding_box
    hits = 0
    done = 0
    chunk_index = 0
    while done < samples:
        n = min(_CHUNK, samples - done)
        rng = _chunk_rng(seed, chunk_index)
        pts = rng.random((3, n))
        tau = t_lo + (t_hi - t_lo) * pts[0]
        xi1 = a_lo + (a_hi - a_lo) * pts[1]
        xi2 = b_lo + (b_hi - b_lo) * pts[2]
        hits += int(np.count_nonzero(region.contains(tau, xi1, xi2)))
        done += n
        chunk_index += 1
    p = hits / samples
    mean = vol_box * p
    if samples > 1:
        var = vol_box ** 2 * p * (1.0 - p) * samples / (samples - 1)
        std_error = math.sqrt(var / samples)
    else:
        std_error = 0.0
    return VolumeEstimate(mean=mean, std_error=std_error, samples=samples,
                          seed=seed, hits=hits)


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
# Each case builds the intersection E = A1 cap (X0 - A2) (or the sector
# variants E = A0 cap (X2 + A1)) at a dyadic parameter point, together with
# an analytic sampling box and the dyadic bound shape the measured volume is
# compared against.  Witness points sit on the cone axis, placed mid-annulus
# so the translated region is nonempty.

HLH_HARD = "HLH_hard"
HLH_EASY = "HLH_easy"
LHH_SECTOR_S1 = "LHH_sector_S1"
LHH_SECTOR_S2 = "LHH_sector_S2"

VOLUME_CASES = (HLH_HARD, HLH_EASY, LHH_SECTOR_S1, LHH_SECTOR_S2)

_BASE_PARAMS = {
    HLH_HARD: {"N1": 16, "L1": 2, "L2": 2},
    HLH_EASY: {"N1": 16, "L1": 2, "L2": None},   # L2 defaults to 4*N1
    LHH_SECTOR_S1: {"N0": 16, "N1": 512, "L1": 2, "gamma": 0.25},
    LHH_SECTOR_S2: {"N0": 16, "N1": 512, "L1": 2, "L2": 4},
}

_VACUOUS_L = 1 << 40    # dyadic; modulation constraint vacuous on any lattice


def _rotate(omega, theta):
    c, s = math.cos(theta), math.sin(theta)
    return (c * omega[0] - s * omega[1], s * omega[0] + c * omega[1])


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

    if case == HLH_HARD:
        N1, L1, L2 = p["N1"], p["L1"], p["L2"]
        N2 = 8 * N1
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
        bound = N1 ** 1.5 * min(L1, L2) * math.sqrt(max(L1, L2))
        p["N2"] = N2
        return {"region": region, "box": box, "bound": bound, "params": p}

    if case == HLH_EASY:
        N1, L1 = p["N1"], p["L1"]
        L2 = p["L2"] if p["L2"] is not None else 4 * N1
        N0 = 4 * N1
        N2 = 8 * N1
        X0 = (float(N0), float(N0), 0.0)
        region = Intersect((
            BallCone(+1, N1, L1),
            Translate(Reflect(BallCone(+1, N2, L2)), X0),
        ))
        box = ((0.0, N1 + L1), (-N1, N1), (-N1, N1))
        bound = N1 ** 2 * min(L1, L2)
        p.update(L2=L2, N0=N0, N2=N2)
        return {"region": region, "box": box, "bound": bound, "params": p}

    if case == LHH_SECTOR_S1:
        N0, N1, L1, gamma = p["N0"], p["N1"], p["L1"], p["gamma"]
        omega0 = (1.0, 0.0)
        omega1 = omega0                       # theta(omega0, omega1) = 0 <= gamma
        tau2 = float(N1)
        xi2 = (-1.5 * N1, 0.0)
        X2 = (tau2, xi2[0], xi2[1])
        slot0 = SectorCone(+1, N0, _VACUOUS_L, gamma, omega0)
        slot1 = SectorCone(+1, N1, L1, gamma, omega1)
        region = Intersect((slot0, Translate(slot1, X2)))
        # tau window: tau = tau2 + |xi0 - xi2| + O(L1) with |xi0| <= 2 N0
        t_lo = tau2 + 1.5 * N1 - 2 * N0 - L1
        t_hi = tau2 + 1.5 * N1 + 2 * N0 + L1
        (x_lo, x_hi), (y_lo, y_hi) = _sector_xy_box(+1, N0, gamma, omega0)
        box = ((max(t_lo, 0.0), t_hi), (x_lo, x_hi), (y_lo, y_hi))
        bound = N0 * N0 * gamma * L1
        return {"region": region, "box": box, "bound": bound, "params": p}

    # LHH_SECTOR_S2: transversal sector interaction at gamma = 2*gamma0,
    # separation theta(omega0, omega1) = 4*gamma in [3*gamma, 12*gamma].
    N0, N1, L1, L2 = p["N0"], p["N1"], p["L1"], p["L2"]
    gam = 2.0 * gamma0(N1, L2)
    omega0 = (1.0, 0.0)
    omega1 = _rotate(omega0, 4.0 * gam)
    center0 = (1.5 * N0 * omega0[0], 1.5 * N0 * omega0[1])
    xi2 = (center0[0] - 1.5 * N1 * omega1[0], center0[1] - 1.5 * N1 * omega1[1])
    tau2 = float(np.hypot(*xi2))
    X2 = (tau2, xi2[0], xi2[1])
    slot0 = SectorCone(+1, N0, _VACUOUS_L, gam, omega0)
    slot1 = SectorCone(+1, N1, L1, gam, omega1)
    region = Intersect((slot0, Translate(slot1, X2)))
    dist_lo = 1.5 * N1 - 2 * N0
    dist_hi = 1.5 * N1 + 2 * N0
    box_t = (max(tau2 + dist_lo - L1, 0.0), tau2 + dist_hi + L1)
    (x_lo, x_hi), (y_lo, y_hi) = _sector_xy_box(+1, N0, gam, omega0)
    box = (box_t, (x_lo, x_hi), (y_lo, y_hi))
    bound = (L2 / gam) * L1 * N0
    p["gamma"] = gam
    return {"region": region, "box": box, "bound": bound, "params": p}


@dataclass(frozen=True)
class VolumeExponentFit:
    """Per-axis log2-log2 exponents of measured interaction volumes."""

    case: str
    fits: dict            # axis -> PowerLawFit
    series: tuple         # measurement records (dicts)

    def exponent(self, axis: str) -> float:
        return self.fits[axis].exponent


def volume_exponent_fit(case: str, parameter_ranges: dict, samples: int,
                        seed: int, base: dict | None = None) -> VolumeExponentFit:
    """Measure interaction volumes along dyadic parameter axes and fit exponents.

    Each axis in `parameter_ranges` is varied on its own, the remaining
    parameters held at the case defaults or at the `base` overrides; ranges
    should span at least three dyadic octaves.  Axes given a single value are
    reported as absent (no exponent).
    """
    base = dict(base or {})
    fits = {}
    series = []
    for axis_index, (axis, values) in enumerate(sorted(parameter_ranges.items())):
        values = list(values)
        records = []
        for vi, value in enumerate(values):
            point = dict(base)
            point[axis] = value
            cfg = volume_case_config(case, **point)
            est = region_volume_mc(cfg["region"], cfg["box"], samples,
                                   seed + 1000 * axis_index + vi)
            rec = {"case": case, "axis": axis, axis: value,
                   "volume": est.mean, "std_error": est.std_error,
                   "bound": cfg["bound"], "samples": samples}
            rec.update({k: v for k, v in cfg["params"].items() if k != axis})
            records.append(rec)
        series.extend(records)
        if len(values) >= 2:
            xs = np.array(values, dtype=float)
            ys = np.array([r["volume"] for r in records])
            fits[axis] = fit_power_law(xs, ys)
    return VolumeExponentFit(case=case, fits=fits, series=tuple(series))
