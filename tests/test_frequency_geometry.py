import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conewave import (AnnularCone, BallCone, Intersect, Reflect, Translate,
                      load_config, region_volume_mc)
from conewave.experiments import _VOLUME_AXIS_NAMES, _parse_sweeps
from conewave.frequency_geometry import (_BLOCK, _CHUNK, HLH_EASY, HLH_HARD,
                                         VOLUME_CASES, VOLUME_EXPONENTS,
                                         _chunk_rng, ball_cone_volume_exact,
                                         hlh_exponents,
                                         region_volume_quadrature,
                                         volume_case_config)
from conewave._regression import fit_power_law
from conewave.spectral_grid import GridSpec, region_mask

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


# ---------------------------------------------------------------------------
# region predicates
# ---------------------------------------------------------------------------

def test_translate_reflect_predicates():
    base = BallCone(+1, 4, 2)
    rng = np.random.default_rng(2)
    X0 = (3.0, -1.0, 2.0)
    tr = Translate(base, X0)
    rf = Reflect(base)
    pts = rng.uniform(-8, 8, size=(500, 3))
    for tau, a, b in pts:
        assert tr.contains_point((tau, a, b)) == base.contains_point(
            (tau - X0[0], a - X0[1], b - X0[2]))
        assert rf.contains_point((tau, a, b)) == base.contains_point(
            (-tau, -a, -b))


# An upper cone cut by a translated half band and a reflected half ball:
# L = 64 makes the thickening vacuous on |tau| <= 20, so those two members
# keep only their tau >= 0 half and their xi annulus or ball.
_CONE_HALF_BAND = Intersect((
    AnnularCone(+1, 8, 2), Translate(AnnularCone(+1, 8, 64), (0.0, 4.0, 0.0)),
    Reflect(BallCone(-1, 16, 64))))


def test_region_membership_deterministic():
    reg = _CONE_HALF_BAND
    pts = np.random.default_rng(3).uniform(-20, 20, size=(200, 3))
    m1 = reg.contains(pts[:, 0], pts[:, 1], pts[:, 2])
    m2 = reg.contains(pts[:, 0], pts[:, 1], pts[:, 2])
    assert np.array_equal(m1, m2)


def _and_of_members(reg, tau, xi1, xi2):
    out = reg.regions[0].contains(tau, xi1, xi2)
    for member in reg.regions[1:]:
        out = out & member.contains(tau, xi1, xi2)
    return out


_INTERSECTIONS = [volume_case_config(case) for case in VOLUME_CASES] + [
    {"region": _CONE_HALF_BAND,
     "box": ((-20.0, 20.0), (-20.0, 20.0), (-20.0, 20.0))}]


@pytest.mark.parametrize("cfg", _INTERSECTIONS,
                         ids=list(VOLUME_CASES) + ["cone_half_band"])
def test_intersect_contains_equals_and_of_members(cfg):
    # Intersect evaluates later members only where the earlier ones hold;
    # the mask must equal the plain AND of every member's mask
    reg, box = cfg["region"], cfg["box"]
    rng = np.random.default_rng(17)
    tau, xi1, xi2 = (rng.uniform(lo, hi, 20_000) for lo, hi in box)
    got = reg.contains(tau, xi1, xi2)
    want = _and_of_members(reg, tau, xi1, xi2)
    assert got.dtype == bool and got.shape == tau.shape
    assert np.array_equal(got, want) and want.any() and not want.all()
    # scalar tau over a sparse (xi1, xi2) mesh, as region_volume_quadrature
    # calls it
    aa, bb = np.meshgrid(np.linspace(*box[1], 41), np.linspace(*box[2], 43),
                         indexing="ij", sparse=True)
    for t in np.linspace(*box[0], 9):
        got = reg.contains(np.float64(t), aa, bb)
        want = _and_of_members(reg, np.float64(t), aa, bb)
        assert got.shape == (41, 43) and np.array_equal(got, want)
    for point in zip(tau[:300], xi1[:300], xi2[:300]):
        assert reg.contains_point(point) == all(
            m.contains_point(point) for m in reg.regions)


def test_intersect_region_mask_equals_and_of_member_masks():
    grid = GridSpec(nx=32, nt=64)
    reg = Intersect((BallCone(+1, 8, 4), AnnularCone(+1, 4, 8),
                     Translate(Reflect(BallCone(+1, 16, 8)), (20.0, 12.0, 0.0))))
    mask = region_mask(grid, reg)
    want = np.logical_and.reduce([region_mask(grid, m) for m in reg.regions])
    assert mask.shape == grid.shape and np.array_equal(mask, want)
    assert want.any()


def test_intersect_contains_when_first_region_is_empty():
    # no point survives the first member: later members are never evaluated
    # and the mask is all false, with the input shape
    reg = Intersect((BallCone(+1, 16, 32), BallCone(+1, 8, 2),
                     AnnularCone(+1, 4, 2)))
    rng = np.random.default_rng(5)
    tau = -rng.uniform(0.5, 10.0, 1_000)
    xi1, xi2 = rng.uniform(-8, 8, (2, 1_000))
    got = reg.contains(tau, xi1, xi2)
    assert got.shape == (1_000,) and not got.any()
    assert np.array_equal(got, _and_of_members(reg, tau, xi1, xi2))
    empty = np.empty(0)
    assert reg.contains(empty, empty, empty).shape == (0,)
    assert not reg.contains_point((-1.0, 0.5, 0.5))


def test_mc_hits_equal_plain_and_count():
    # region_volume_mc's hit count against the sampling arithmetic written
    # out: lo + (hi - lo) * u per axis and the AND of every member
    cfg = volume_case_config(HLH_HARD)
    samples = _CHUNK + 4_321
    est = region_volume_mc(cfg["region"], cfg["box"], samples, seed=23)
    hits = 0
    for chunk, n in enumerate((_CHUNK, 4_321)):
        u = _chunk_rng(23, chunk).random((3, n))
        coords = [lo + (hi - lo) * row for (lo, hi), row in zip(cfg["box"], u)]
        hits += int(np.count_nonzero(_and_of_members(cfg["region"], *coords)))
    assert est.hits == hits > 0


def test_region_validation():
    with pytest.raises(ValueError):
        BallCone(0, 4, 2)
    with pytest.raises(ValueError):
        BallCone(+1, 3, 2)


# ---------------------------------------------------------------------------
# Monte Carlo volumes
# ---------------------------------------------------------------------------

class _Box:
    """Axis-aligned box region for exact-volume checks."""

    def __init__(self, box):
        self.box = box

    def contains(self, tau, xi1, xi2):
        (t0, t1), (a0, a1), (b0, b1) = self.box
        return ((tau >= t0) & (tau <= t1) & (xi1 >= a0) & (xi1 <= a1)
                & (xi2 >= b0) & (xi2 <= b1))


def test_box_in_box_volume():
    inner = _Box(((0, 2), (0, 2), (0, 2)))
    outer = ((0, 4), (0, 4), (0, 4))
    est = region_volume_mc(inner, outer, samples=200_000, seed=5)
    assert abs(est.mean - 8.0) <= 3 * est.std_error
    assert est.std_error < 0.1


def test_ball_cone_volume_vs_quadrature_and_exact():
    cone = BallCone(+1, 8, 2)
    box = cone.bounding_box()
    est = region_volume_mc(cone, box, samples=400_000, seed=6)
    quad = region_volume_quadrature(cone, box, nodes=200)
    exact = ball_cone_volume_exact(8, 2)
    assert abs(est.mean - quad) <= 3 * est.std_error + 0.02 * exact
    assert abs(quad - exact) <= 0.02 * exact
    assert abs(est.mean - exact) <= 3 * est.std_error


def test_empty_opposite_sign_intersection():
    # widely separated opposite-sheet cones cannot intersect
    plus = AnnularCone(+1, 16, 1)
    minus = Translate(AnnularCone(-1, 16, 1), (0.0, 1.0, 0.0))
    reg = Intersect((plus, minus))
    box = plus.bounding_box()
    est = region_volume_mc(reg, box, samples=100_000, seed=7)
    assert est.mean == 0.0


def test_mc_deterministic_and_chunk_independent():
    cone = BallCone(+1, 8, 2)
    box = cone.bounding_box()
    a = region_volume_mc(cone, box, samples=300_000, seed=8)
    b = region_volume_mc(cone, box, samples=300_000, seed=8)
    assert a.mean == b.mean and a.hits == b.hits


def test_mc_error_halves_when_samples_quadruple():
    cone = BallCone(+1, 8, 2)
    box = cone.bounding_box()
    ratios = []
    for seed in range(4):
        small = region_volume_mc(cone, box, samples=50_000, seed=seed)
        big = region_volume_mc(cone, box, samples=200_000, seed=seed + 100)
        ratios.append(small.std_error / big.std_error)
    mean_ratio = np.mean(ratios)
    assert abs(mean_ratio - 2.0) <= 0.4


def test_mc_requires_finite_box():
    with pytest.raises(ValueError):
        region_volume_mc(BallCone(+1, 8, 2),
                         ((0.0, math.inf), (-8.0, 8.0), (-8.0, 8.0)), 100, 0)


@pytest.mark.parametrize("box", [
    ((0, 10), (-8, 8)),                     # xi2 was drawn in [0, 1)
    ((0, 10), (-8, 8), (-8, 8), (0, 3)),    # a spurious fourth extent
    ((0, 10), (-8, 8), (-8, 8, 1)),
    ((0, 10), (-8, 8), (-8,))])
def test_mc_rejects_box_without_three_axes(box):
    with pytest.raises(ValueError, match="three"):
        region_volume_mc(BallCone(+1, 8, 2), box, 1000, 0)


@pytest.mark.parametrize("samples", [1000.0, 0, -5, "1000", True, None])
def test_mc_rejects_samples_not_a_positive_int(samples):
    with pytest.raises(ValueError, match="samples"):
        region_volume_mc(BallCone(+1, 8, 2), BallCone(+1, 8, 2).bounding_box(),
                         samples, 0)


class _Recorder:
    """Region that keeps a copy of every block of points it is asked about."""

    def __init__(self):
        self.blocks = []

    def contains(self, tau, xi1, xi2):
        self.blocks.append(np.array([tau, xi1, xi2]))
        return np.zeros(tau.shape, dtype=bool)


@pytest.mark.parametrize("samples", [
    1, 3, 3 * _BLOCK + 2,                   # one chunk, a partial block
    _CHUNK + 4_096,                         # last chunk n % 4 = 0
    2 * _CHUNK + 4_321,                     # n % 4 = 1
    _CHUNK + _BLOCK + 6,                    # n % 4 = 2
    _CHUNK + 7])                            # n % 4 = 3
def test_mc_blocks_read_the_whole_chunk_draws(samples):
    # over the unit box the sampled points are the draws themselves; the
    # blocks, concatenated, must be chunk c's random((3, n)) bit for bit
    rec = _Recorder()
    est = region_volume_mc(rec, ((0.0, 1.0),) * 3, samples, seed=31)
    assert est.hits == 0
    assert all(b.shape[1] <= _BLOCK for b in rec.blocks)
    got = np.concatenate(rec.blocks, axis=1)
    sizes = [min(_CHUNK, samples - done) for done in range(0, samples, _CHUNK)]
    want = np.concatenate([_chunk_rng(31, c).random((3, n))
                           for c, n in enumerate(sizes)], axis=1)
    assert got.shape == want.shape == (3, samples)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_mc_working_set_stays_within_a_few_blocks():
    """The tracemalloc peak of one 2**20-sample region_volume_mc call on
    HLH_hard stays below 4 x the coordinate bytes of one block,
    4 x 3 x _BLOCK x 8 B (3 MiB at 2**15 points); the coordinates of one
    whole chunk alone are 6 MiB."""
    cfg = volume_case_config(HLH_HARD)
    region_volume_mc(cfg["region"], cfg["box"], 1000, seed=4)    # warm up
    tracemalloc.start()
    try:
        held, _ = tracemalloc.get_traced_memory()
        region_volume_mc(cfg["region"], cfg["box"], 1 << 20, seed=4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - held < 4 * 3 * _BLOCK * 8


# ---------------------------------------------------------------------------
# exponent fits
# ---------------------------------------------------------------------------

def test_synthetic_power_law_exact():
    Ns = np.array([4.0, 8.0, 16.0, 32.0])
    Ls = np.array([1.0, 2.0, 4.0, 8.0])
    vols_N = Ns ** 2 * 2.0       # volume = N^2 * L at L = 2
    vols_L = 16.0 ** 2 * Ls
    fit_N = fit_power_law(Ns, vols_N)
    fit_L = fit_power_law(Ls, vols_L)
    assert abs(fit_N.exponent - 2.0) < 1e-9
    assert abs(fit_L.exponent - 1.0) < 1e-9
    assert fit_N.r_squared > 1 - 1e-12


def test_constant_series_fits_zero_exponent():
    fit = fit_power_law(np.array([1.0, 2.0, 4.0]), np.array([5.0, 5.0, 5.0]))
    assert abs(fit.exponent) < 1e-12
    assert fit.r_squared == 1.0


def test_fit_slope_standard_error():
    # log2 points (0, 0), (1, 1), (2, 2), (3, 4): slope 13/10, intercept
    # -1/5, residuals (1, -1/2, -2, 3/2)/5, so SE^2 = (3/10 / 2) / 5 = 3/100
    fit = fit_power_law(np.array([1.0, 2.0, 4.0, 8.0]),
                        np.array([1.0, 2.0, 4.0, 16.0]))
    assert abs(fit.exponent - 1.3) < 1e-12
    assert abs(fit.exponent_se - math.sqrt(0.03)) < 1e-12
    assert math.isnan(fit_power_law(np.array([1.0, 2.0]),
                                    np.array([1.0, 3.0])).exponent_se)


def test_volume_case_config_validation():
    with pytest.raises(ValueError):
        volume_case_config("nonsense")
    with pytest.raises(ValueError):
        volume_case_config(HLH_HARD, gamma=0.5)


def test_every_volume_sweep_axis_is_a_parameter_of_every_case():
    # the schema takes the same sweep axes for every case; an axis some case
    # did not take would pass it and then fail inside every task
    for case in VOLUME_CASES:
        for axis in _VOLUME_AXIS_NAMES:
            cfg = volume_case_config(case, **{axis: 4})
            assert cfg["params"][axis] == 4, (case, axis)


def test_hlh_bound_shapes_bit_identical_to_closed_forms():
    # the table-driven bounds against the closed forms they replace, at every
    # dyadic point in 2^0..2^20; only the 1e6-sample benchmark compares
    # volumes.csv, and with it the bound column, exactly
    dyadic = [2 ** k for k in range(21)]
    for N1 in dyadic:
        for L1 in dyadic:
            for L2 in dyadic:
                lo, hi = min(L1, L2), max(L1, L2)
                hard = volume_case_config(HLH_HARD, N1=N1, L1=L1, L2=L2)
                easy = volume_case_config(HLH_EASY, N1=N1, L1=L1, L2=L2)
                assert hard["bound"] == N1 ** 1.5 * lo * math.sqrt(hi)
                assert easy["bound"] == N1 ** 2 * lo


def test_measured_volumes_respect_bound_shapes():
    # fixed-constant domination of the dyadic bound shapes in the small
    # modulation regime L <= N/8
    cases = {
        HLH_HARD: [{"N1": 16, "L1": 1, "L2": 2}, {"N1": 32, "L1": 2, "L2": 4},
                   {"N1": 64, "L1": 8, "L2": 8}],
        HLH_EASY: [{"N1": 16, "L1": 1}, {"N1": 32, "L1": 4}],
    }
    for case, configs in cases.items():
        for kw in configs:
            cfg = volume_case_config(case, **kw)
            est = region_volume_mc(cfg["region"], cfg["box"], samples=100_000,
                                   seed=13)
            assert est.mean <= 32.0 * cfg["bound"] + 3 * est.std_error, (
                case, kw, est.mean, cfg["bound"])


def _volume_points():
    """(case, params) at every case default and every point of the shipped
    volumes configs."""
    points = [(case, {}) for case in VOLUME_CASES]
    for name in ("volumes_hard.ini", "volumes_easy.ini"):
        cfg = load_config(CONFIG_DIR / name)
        case = cfg.sections["params"]["case"]
        for _, axis, values, base in _parse_sweeps(cfg.values, _VOLUME_AXIS_NAMES):
            points.extend((case, dict(base, **{axis: v})) for v in values)
    return points


def test_case_boxes_enclose_their_regions():
    # region_volume_mc trusts its box: no point of a thin shell just outside
    # a case's box may lie in the case's region
    rng = np.random.default_rng(15)
    for case, params in _volume_points():
        cfg = volume_case_config(case, **params)
        box = np.array(cfg["box"], dtype=float)
        pad = 0.05 * (box[:, 1] - box[:, 0])
        lo, hi = box[:, 0] - pad, box[:, 1] + pad
        pts = lo[:, None] + (hi - lo)[:, None] * rng.random((3, 400_000))
        inside = np.all((pts >= box[:, :1]) & (pts <= box[:, 1:]), axis=0)
        shell = pts[:, ~inside]
        assert shell.shape[1] > 50_000
        hits = np.count_nonzero(cfg["region"].contains(*shell))
        assert hits == 0, (case, params, hits)


# ---------------------------------------------------------------------------
# best-constant exponents
# ---------------------------------------------------------------------------

def test_hlh_exponents_r2():
    easy = hlh_exponents(HLH_EASY, 2)
    assert easy["N_min_012"] == 1
    assert easy["N_min_12"] == 0
    assert easy["L_min"] == Fraction(1, 2)
    hard = hlh_exponents(HLH_HARD, 2)
    assert hard["N_min_012"] == Fraction(1, 2)
    assert hard["N_min_12"] == Fraction(1, 4)
    assert hard["L_min"] == Fraction(1, 2)
    assert hard["L_max"] == Fraction(1, 4)


@pytest.mark.parametrize("r", [1, 3])
def test_hlh_exponents_reject_r_outside_one_two(r):
    for case in (HLH_EASY, HLH_HARD):
        with pytest.raises(ValueError, match="r must lie in"):
            hlh_exponents(case, r)


def test_constant_exponents_are_volume_exponents_over_r():
    # Hoelder: at coincident N the constant exponents sum to the volume
    # exponent over r, and each modulation exponent is its volume one over r
    r_values = [Fraction(3, 2) + Fraction(i, 100) for i in range(1, 51)]
    for r in r_values + [Fraction(9, 5), Fraction(8, 5)]:
        for case in (HLH_HARD, HLH_EASY):
            e = hlh_exponents(case, r)
            volume = VOLUME_EXPONENTS[case]
            assert e["N_min_012"] + e["N_min_12"] == volume["N1"] / r
            assert e["total"] == volume["N1"] / r
            assert e["L_min"] == volume["L1"] / r
            assert e["L_max"] == volume["L2"] / r
