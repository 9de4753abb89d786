import warnings

import numpy as np
import pytest

from conewave import (FREQUENCY, GridSpec, SpaceTimeField, AscentConfig,
                      BallConeRegions, best_constant, eval_J)
from conewave import trilinear_forms
from conewave.frequency_geometry import HLH_EASY, hlh_exponents
from conewave.spectral_grid import region_mask
from conewave.trilinear_forms import (_line_kernel, _line_spectrum, _Lines,
                                      objective_value)

from conftest import count_fft_calls, random_field


def _nonneg_field(grid, seed):
    rng = np.random.default_rng(seed)
    return SpaceTimeField(grid, rng.random(grid.shape), FREQUENCY)


# ---------------------------------------------------------------------------
# eval_J
# ---------------------------------------------------------------------------

def test_eval_j_zero_slot(grid8):
    z = SpaceTimeField(grid8, np.zeros(grid8.shape), FREQUENCY)
    f = _nonneg_field(grid8, 0)
    assert eval_J(z, f, f, mode="fast") == 0
    assert eval_J(f, z, f, mode="direct") == 0


def test_eval_j_single_origin_mode(grid8):
    vals = np.zeros(grid8.shape, dtype=complex)
    vals[0, 0, 0] = 1.0
    d = SpaceTimeField(grid8, vals, FREQUENCY)
    expected = grid8.freq_cell ** 2
    assert eval_J(d, d, d, mode="direct") == pytest.approx(expected, rel=1e-13)
    assert eval_J(d, d, d, mode="fast") == pytest.approx(expected, rel=1e-12)


def test_objective_value_matches_direct_sum(grid8):
    # the ascent's kernel path against the literal lattice-sum oracle
    for seed in range(3):
        F = [_nonneg_field(grid8, 10 * seed + j) for j in range(3)]
        direct = eval_J(*F, mode="direct")
        value = objective_value(grid8, [f.values.real for f in F])
        assert value == pytest.approx(direct.real, rel=1e-12)


def test_eval_j_fast_vs_direct_random(grid8):
    for seed in range(5):
        F = [random_field(grid8, 100 + 3 * seed + j) for j in range(3)]
        direct = eval_J(*F, mode="direct")
        fast = eval_J(*F, mode="fast")
        assert abs(fast - direct) <= 1e-10 * abs(direct)


def test_eval_j_permutation_symmetry(grid8):
    F = [_nonneg_field(grid8, 200 + j) for j in range(3)]
    base = eval_J(*F, mode="fast")
    for perm in ((1, 2, 0), (2, 0, 1), (0, 2, 1), (1, 0, 2), (2, 1, 0)):
        val = eval_J(F[perm[0]], F[perm[1]], F[perm[2]], mode="fast")
        assert val == pytest.approx(base, rel=1e-12)


def test_eval_j_grid_mismatch(grid8, grid16):
    a = random_field(grid8, 1)
    b = random_field(grid16, 2)
    with pytest.raises(ValueError):
        eval_J(a, a, b)


# ---------------------------------------------------------------------------
# best constants
# ---------------------------------------------------------------------------

class _PointRegion:
    """Single lattice point region (frequency coordinates)."""

    def __init__(self, point, tol=1e-9):
        self.point = point
        self.tol = tol

    def contains(self, tau, xi1, xi2):
        t0, a0, b0 = self.point
        return ((np.abs(tau - t0) < self.tol) & (np.abs(xi1 - a0) < self.tol)
                & (np.abs(xi2 - b0) < self.tol))


def _small_grid():
    return GridSpec(nx=8, nt=8)


def test_best_constant_single_point_closed_form():
    # compatible single points X0 + X1 + X2 = 0: C = freq_cell^{1/r}
    grid = _small_grid()
    A0 = _PointRegion((-3.0, -2.0, 0.0))
    A1 = _PointRegion((1.0, 1.0, 0.0))
    A2 = _PointRegion((2.0, 1.0, 0.0))
    for r in (2.0, 1.5, 1.8):
        m = best_constant(grid, A0, A1, A2, r,
                          AscentConfig(restarts=2, max_iters=10, tol=1e-12, seed=0))
        assert m.measured_C == pytest.approx(grid.freq_cell ** (1 / r), rel=1e-10)
        assert m.converged


def test_best_constant_degenerate_regions():
    # incompatible points: no triple sums to zero, kernel identically zero
    grid = _small_grid()
    A0 = _PointRegion((1.0, 0.0, 0.0))
    A1 = _PointRegion((1.0, 1.0, 0.0))
    A2 = _PointRegion((1.0, 1.0, 1.0))
    m = best_constant(grid, A0, A1, A2, 2,
                      AscentConfig(restarts=1, max_iters=5, tol=1e-9, seed=0))
    assert m.measured_C == 0.0
    assert m.degenerate and not m.converged


def test_best_constant_beats_random_search():
    grid = _small_grid()
    regions = BallConeRegions(N=(8, 2, 4), L=(2, 2), signs=(+1, +1, +1))
    m = best_constant(grid, regions.A0, regions.A1, regions.A2, 2,
                      AscentConfig(restarts=3, max_iters=50, tol=1e-9, seed=1))
    masks = [region_mask(grid, A) for A in (regions.A0, regions.A1, regions.A2)]
    w = grid.freq_cell
    rng = np.random.default_rng(2)
    best_random = 0.0
    for _ in range(10_000):
        fields = []
        for mask in masks:
            v = np.where(mask, rng.random(grid.shape), 0.0)
            fields.append(v)
        norms = [
            (np.sum(fields[0] ** 2) * w) ** 0.5,
            (np.sum(fields[1] ** 2) * w) ** 0.5,
            (np.sum(fields[2] ** 2) * w) ** 0.5,
        ]
        val = objective_value(grid, fields) / (norms[0] * norms[1] * norms[2])
        best_random = max(best_random, val)
    assert m.measured_C >= best_random - 1e-12


def test_best_constant_monotone_trace():
    grid = _small_grid()
    regions = BallConeRegions(N=(8, 2, 4), L=(2, 2), signs=(+1, +1, +1))
    m = best_constant(grid, regions.A0, regions.A1, regions.A2, 1.7,
                      AscentConfig(restarts=2, max_iters=60, tol=1e-10, seed=3))
    trace = m.trace
    assert all(b >= a - 1e-11 * max(1.0, abs(b)) for a, b in zip(trace, trace[1:]))


def test_best_constant_scale_invariance():
    # ratio homogeneity: objective of scaled fields is unchanged
    grid = _small_grid()
    regions = BallConeRegions(N=(8, 2, 2), L=(1, 1), signs=(+1, +1, +1))
    masks = [region_mask(grid, A) for A in (regions.A0, regions.A1, regions.A2)]
    rng = np.random.default_rng(4)
    fields = [np.where(m, rng.random(grid.shape), 0.0) for m in masks]
    w = grid.freq_cell
    def ratio(fs):
        ns = [(np.sum(fs[0] ** 2) * w) ** 0.5,
              (np.sum(fs[1] ** 2) * w) ** 0.5,
              (np.sum(fs[2] ** 2) * w) ** 0.5]
        return objective_value(grid, fs) / (ns[0] * ns[1] * ns[2])
    base = ratio(fields)
    scaled = [3.7 * fields[0], 0.2 * fields[1], 11.0 * fields[2]]
    assert ratio(scaled) == pytest.approx(base, rel=1e-12)


def test_best_constant_nested_region_monotone():
    grid = _small_grid()
    small = BallConeRegions(N=(8, 2, 2), L=(1, 1), signs=(+1, +1, +1))
    big = BallConeRegions(N=(8, 4, 4), L=(2, 2), signs=(+1, +1, +1))
    cfg = AscentConfig(restarts=3, max_iters=60, tol=1e-10, seed=5)
    m_small = best_constant(grid, small.A0, small.A1, small.A2, 2, cfg)
    m_big = best_constant(grid, big.A0, big.A1, big.A2, 2, cfg)
    assert m_small.measured_C <= m_big.measured_C + 1e-8


def test_best_constant_tracks_easy_shape_across_octaves():
    # degenerate modulation (L spanning the whole tau range): the measured
    # constants follow the saturated bound shape N_min^(2/p) L_min^(1/r),
    # which at r = 2 and fixed L reduces to N_min, within a factor 2 across
    # two octaves of N
    grid = GridSpec(nx=16, nt=16)
    L_span = 16     # dyadic, >= twice the tau range of this lattice
    e = hlh_exponents(HLH_EASY, 2)
    ratios = []
    for i, N1 in enumerate((1, 2, 4)):
        regions = BallConeRegions(N=(16, N1, 4), L=(L_span, L_span),
                                  signs=(+1, +1, +1))
        m = best_constant(grid, regions.A0, regions.A1, regions.A2, 2,
                          AscentConfig(restarts=3, max_iters=60, tol=1e-8,
                                       seed=50 + i))
        # N_min_012 = N_min_12 = N1 and L_min = L_max = L_span here
        predicted = (N1 ** float(e["N_min_012"] + e["N_min_12"])
                     * L_span ** float(e["L_min"] + e["L_max"]))
        ratios.append(m.measured_C / predicted)
    assert max(ratios) / min(ratios) <= 2.0


# ---------------------------------------------------------------------------
# the ascent kernel
# ---------------------------------------------------------------------------

def _lattice_sum_kernel(a, b):
    """Literal O(n^2) sum g[j] = sum_k a[k] * b[(-j-k) mod n]."""
    shape = a.shape
    k = np.indices(shape)
    g = np.empty(shape)
    for j in np.ndindex(shape):
        idx = tuple((-jd - kd) % n for jd, kd, n in zip(j, k, shape))
        g[j] = np.sum(a * b[idx])
    return g


def test_effective_kernel_matches_lattice_sum():
    grid = GridSpec(nx=8, nt=16)
    rng = np.random.default_rng(7)
    f0, a, b = (rng.random(grid.shape) for _ in range(3))
    expected = _lattice_sum_kernel(a, b)
    every = _Lines(np.ones(grid.shape, dtype=bool))
    spec_a, spec_b, prod = (np.empty(every.half, dtype=complex)
                            for _ in range(3))
    g = _line_kernel(_line_spectrum(every.restrict(a), every, spec_a),
                     _line_spectrum(every.restrict(b), every, spec_b),
                     every, prod)
    assert g.shape == (grid.nt * grid.nx, grid.nx)
    g = g.reshape(grid.shape)
    assert np.max(np.abs(g - expected)) <= 1e-12 * np.max(expected)
    J = np.sum(f0 * expected) * grid.freq_cell ** 2
    assert objective_value(grid, (f0, a, b)) == pytest.approx(J, rel=1e-12)


def _line_set(kind, shape):
    """Region mask on a line set of the 64-row tau axis: part of the xi1
    lines of contiguous rows, or of rows wrapping like slot 0's tau <= 0
    rows; a single line; lines scattered over the lattice; every line."""
    nt, nx, _ = shape
    rng = np.random.default_rng(23)
    lines = np.zeros((nt, nx), dtype=bool)
    if kind == "contiguous":
        lines[20:37] = rng.random((17, nx)) < 0.5
    elif kind == "wrapping":
        lines[np.r_[0, 33:64]] = rng.random((32, nx)) < 0.5
    elif kind == "single":
        lines[5, 3] = True
    elif kind == "scattered":
        lines = rng.random((nt, nx)) < 0.1
    else:
        lines[:] = True
    mask = lines[:, :, None] & (rng.random(shape) < 0.7)
    mask[:, :, 0] |= lines
    return mask


@pytest.mark.parametrize("kind", ["contiguous", "wrapping", "single",
                                  "scattered", "all"])
def test_pruned_transforms_equal_full_transforms(kind):
    shape = (64, 16, 16)
    mask = _line_set(kind, shape)
    lines = _Lines(mask)
    every_line = np.arange(shape[0] * shape[1])
    assert np.array_equal(every_line[lines.lines],
                          np.flatnonzero(mask.any(axis=2)))
    rng = np.random.default_rng(17)
    a = np.where(mask, rng.random(shape), 0.0)
    # a stale buffer: the spectrum must not depend on what it held
    out = np.full(lines.half, np.nan, dtype=complex)
    spec = _line_spectrum(lines.restrict(a), lines, out)
    assert spec is out
    assert np.array_equal(spec, np.fft.rfftn(a, axes=(0, 1, 2)))

    spec1, spec2 = (np.fft.rfftn(rng.random(shape), axes=(0, 1, 2))
                    for _ in range(2))
    prod = np.full(lines.half, np.nan, dtype=complex)
    g = _line_kernel(spec1, spec2, lines, prod)
    full = np.fft.irfftn(np.conjugate(spec1 * spec2), s=shape, axes=(0, 1, 2))
    np.maximum(full, 0.0, out=full)
    assert np.array_equal(g, full.reshape(-1, shape[2])[lines.lines])


def _complex_fft_kernel(a, b):
    """Independent reference for the ascent kernel: the flip-wrapped cyclic
    convolution of a and b by complex FFTs on the full lattice, which
    test_best_constant_matches_complex_fft_kernel compares the pruned real
    transforms of _line_spectrum and _line_kernel against."""
    conv = np.fft.ifftn(np.fft.fftn(a) * np.fft.fftn(b))
    g = np.roll(conv[::-1, ::-1, ::-1], shift=(1, 1, 1), axis=(0, 1, 2)).real
    np.maximum(g, 0.0, out=g)
    return g


def _dense(block, lines):
    """The lattice density that is `block` on its lines and zero elsewhere."""
    a = np.zeros(lines.shape)
    a.reshape(-1, lines.shape[2])[lines.lines] = block
    return a


# two shipped constants points (sweep l1 at L1 = 1, sweep n1 at N1 = 2 with
# the compared sign pattern), on a lattice half the shipped size
@pytest.mark.parametrize("N, L, signs", [
    ((32, 8, 16), (1, 8), (+1, +1, +1)),
    ((32, 2, 16), (2, 2), (+1, +1, -1)),
])
def test_best_constant_matches_complex_fft_kernel(monkeypatch, N, L, signs):
    grid = GridSpec(nx=16, nt=32)
    regions = BallConeRegions(N=N, L=L, signs=signs)
    cfg = AscentConfig(restarts=2, max_iters=40, tol=1e-7, seed=11)

    def run():
        return best_constant(grid, regions.A0, regions.A1, regions.A2, 2, cfg)

    new = run()
    # the reference carries dense lattice densities between the two helpers
    monkeypatch.setattr(trilinear_forms, "_line_spectrum",
                        lambda block, lines, out: _dense(block, lines))
    monkeypatch.setattr(trilinear_forms, "_line_kernel",
                        lambda a, b, lines, prod:
                        _complex_fft_kernel(a, b).reshape(
                            -1, lines.shape[2])[lines.lines])
    old = run()
    assert new.measured_C > 0
    assert new.measured_C == pytest.approx(old.measured_C, rel=1e-12)
    assert new.iterations == old.iterations
    assert new.converged == old.converged


def test_best_constant_transform_count(monkeypatch):
    # tol 0 never converges here, so each restart runs all max_iters sweeps
    grid = _small_grid()
    regions = BallConeRegions(N=(8, 2, 4), L=(2, 2), signs=(+1, +1, +1))
    restarts, sweeps = 2, 3
    # leading size of each real transform's input: its number of lines
    line_counts = []
    for name in ("rfft", "irfft"):
        original = getattr(np.fft, name)

        def recording(a, *args, _original=original, **kwargs):
            line_counts.append(len(a))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, recording)
    fft_calls = count_fft_calls(monkeypatch, trilinear_forms)
    m = best_constant(grid, regions.A0, regions.A1, regions.A2, 2,
                      AscentConfig(restarts=restarts, max_iters=sweeps, tol=0.0,
                                   seed=1))
    assert m.iterations == sweeps and not m.converged
    # a slot update is one inverse (ifft axis 0, ifft axis 1 on the slot's
    # tau rows, irfft axis 2 on its lines) and one forward (rfft axis 2 on
    # the lines, fft axis 1 on the rows, then fft axis 0); a restart adds
    # the forwards of slots 1 and 2, the only starts update 0 reads
    forward = ["rfft", "fft", "fft"]
    inverse = ["ifft", "ifft", "irfft"]
    update = inverse + forward
    expected = (forward * 2 + update * 3 * sweeps) * restarts
    assert fft_calls == expected
    nlines = [np.count_nonzero(region_mask(grid, A).any(axis=2))
              for A in (regions.A0, regions.A1, regions.A2)]
    # distinct counts, all below the lattice's, tell the slots apart
    assert len(set(nlines)) == 3 and max(nlines) < grid.nt * grid.nx
    assert line_counts == (nlines[1:] + [n for n in nlines for _ in range(2)]
                           * sweeps) * restarts


def test_best_constant_raises_no_warnings():
    # numpy 2 deprecates irfftn(s=...) without axes; any warning is an error
    grid = _small_grid()
    regions = BallConeRegions(N=(8, 2, 4), L=(2, 2), signs=(+1, +1, +1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m = best_constant(grid, regions.A0, regions.A1, regions.A2, 1.7,
                          AscentConfig(restarts=1, max_iters=5, seed=0))
    assert m.measured_C > 0

