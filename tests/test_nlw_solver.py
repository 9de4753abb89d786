import math
from dataclasses import replace

import numpy as np
import pytest

from conewave import (FREQUENCY, PHYSICAL, CauchyData, GridSpec, Nonlinearity,
                      SolverConfig, SpatialField, duhamel_apply, energy,
                      existence_probe, free_solution, nonlinearity_eval,
                      picard_solve, random_data, rk4_solve, wave_admissible)
from conewave import nlw_solver, spectral_grid
from conewave.nlw_solver import (NONLINEARITY_KINDS, _duhamel_data, _evolve,
                                  _halfwave, free_trajectory,
                                  gradient_magnitude_trajectory,
                                  strichartz_ratio)
from conewave.norms import fl_norm, spatial_l2
from conewave.spectral_grid import to_frequency, to_physical

from conftest import count_fft_calls


def make_grid(nx=16, nt=8):
    return GridSpec(nx=nx, nt=nt)


def mode_data(grid, k=(1, 0), amplitude=1.0, g_amplitude=0.0):
    x = grid.x_axis
    x1, x2 = np.meshgrid(x, x, indexing="ij")
    phase = k[0] * x1 + k[1] * x2
    f = SpatialField(grid, amplitude * np.cos(phase), PHYSICAL)
    g = SpatialField(grid, g_amplitude * np.cos(phase), PHYSICAL)
    return CauchyData(f, g)


def np_derivative(values, axis, drop_nyquist=False):
    """Spectral d/dx_axis on the 2*pi torus with raw np.fft; drop_nyquist
    zeroes the multiplier on the Nyquist row (axis 0) or column (axis 1)."""
    nx = values.shape[0]
    k = nx * np.fft.fftfreq(nx)
    if drop_nyquist:
        k[nx // 2] = 0.0
    mult = k[:, None] if axis == 0 else k[None, :]
    return np.fft.ifft2(1j * mult * np.fft.fft2(values))


def np_gradient_magnitudes(data, drop_nyquist=False):
    """|grad u| per slice of the grid's time lattice, from free_solution and
    np_derivative."""
    out = []
    for t in data.grid.t_axis:
        u, _ = free_solution(data, float(t))
        out.append(np.sqrt(
            np.abs(np_derivative(u.values, 0, drop_nyquist)) ** 2
            + np.abs(np_derivative(u.values, 1, drop_nyquist)) ** 2))
    return np.array(out)


@pytest.fixture
def transform_calls(monkeypatch):
    calls = []
    original = spectral_grid.transform

    def counting(fld, direction):
        calls.append(direction)
        return original(fld, direction)

    monkeypatch.setattr(spectral_grid, "transform", counting)
    return calls


def rel_l2(a, b):
    num = spatial_l2(a.with_values(a.values - b.values))
    den = spatial_l2(b)
    return num / max(den, 1e-300)


# ---------------------------------------------------------------------------
# propagator
# ---------------------------------------------------------------------------

def test_halfwave_multipliers_values():
    grid = make_grid()
    cos0, sin0 = _halfwave(grid.xi_magnitude(), 0.0)[:2]
    assert np.all(cos0 == 1.0)
    assert np.all(sin0 == 0.0)
    cos3, sin3 = _halfwave(grid.xi_magnitude(), 3.0)[:2]
    assert cos3[0, 0] == 1.0 and sin3[0, 0] == 3.0
    # |xi| = pi is not on this lattice; check |xi| = 4 at t = pi/4:
    # sin(pi)/4 = 0, cos(pi) = -1
    c, s = _halfwave(grid.xi_magnitude(), math.pi / 4)[:2]
    assert c[4, 0] == pytest.approx(-1.0)
    assert s[4, 0] == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("nx", [16, 64])
def test_halfwave_multipliers_bit_identical_to_masked_formula(nx):
    grid = make_grid(nx=nx)
    k = grid.xi_magnitude()
    nz = k > 0
    for t in (0.0, 1e-3, 0.3, math.pi / 4, 1.0, 3.0, 17.25):
        want_sin = np.empty_like(k)
        want_sin[nz] = np.sin(t * k[nz]) / k[nz]
        want_sin[~nz] = t
        cos_m, sin_over = _halfwave(grid.xi_magnitude(), t)[:2]
        assert np.array_equal(cos_m, np.cos(t * k))
        assert np.array_equal(sin_over, want_sin)


def test_free_solution_eigenfunction():
    grid = make_grid()
    data = mode_data(grid, k=(2, 1))
    omega = math.sqrt(5.0)
    for t in (0.0, 0.3, 1.7):
        u, u_t = free_solution(data, t)
        x = grid.x_axis
        x1, x2 = np.meshgrid(x, x, indexing="ij")
        expected = math.cos(t * omega) * np.cos(2 * x1 + x2)
        assert np.abs(u.values - expected).max() < 1e-12
        expected_t = -omega * math.sin(t * omega) * np.cos(2 * x1 + x2)
        assert np.abs(u_t.values - expected_t).max() < 1e-12


def test_free_solution_zero_data():
    grid = make_grid()
    data = mode_data(grid, amplitude=0.0)
    u, u_t = free_solution(data, 0.9)
    assert np.abs(u.values).max() == 0.0
    assert np.abs(u_t.values).max() == 0.0


def test_free_energy_conserved():
    grid = make_grid()
    data = random_data(grid, s=1.75, r=2, seed=3, band_limit=5.0)
    traj = free_trajectory(data, T=1.0, n_steps=64)
    energies = [energy(traj.u[j], traj.u_t[j]) for j in range(len(traj))]
    e0 = energies[0]
    assert max(abs(e - e0) for e in energies) <= 1e-10 * e0


def test_free_time_reversal():
    grid = make_grid()
    data = random_data(grid, s=2.0, r=2, seed=4, band_limit=5.0)
    t = 0.73
    u, u_t = free_solution(data, t)
    reversed_data = CauchyData(u, u_t.with_values(-u_t.values))
    back_u, back_ut = free_solution(reversed_data, t)
    f_phys = to_physical(data.f)
    g_phys = to_physical(data.g)
    assert np.abs(back_u.values - f_phys.values).max() <= 1e-10
    assert np.abs(back_ut.values + g_phys.values).max() <= 1e-10


# ---------------------------------------------------------------------------
# nonlinearities
# ---------------------------------------------------------------------------

def test_nonlinearity_constant_field():
    grid = make_grid()
    c = SpatialField(grid, np.full(grid.spatial_shape, 2.5), PHYSICAL)
    z = SpatialField(grid, np.zeros(grid.spatial_shape), PHYSICAL)
    for kind in (Nonlinearity("spatial_grad_square"),
                 Nonlinearity("full_grad_square")):
        out = nonlinearity_eval(c, z, kind)
        assert np.abs(out.values).max() < 1e-13


def test_spatial_grad_square_analytic():
    grid = make_grid(nx=32)
    x = grid.x_axis
    x1, _ = np.meshgrid(x, x, indexing="ij")
    u = SpatialField(grid, np.sin(x1), PHYSICAL)
    z = SpatialField(grid, np.zeros(grid.spatial_shape), PHYSICAL)
    out = nonlinearity_eval(u, z, Nonlinearity("spatial_grad_square"))
    assert np.abs(out.values - np.cos(x1) ** 2).max() < 1e-12


def test_full_grad_square_sum_of_squares():
    grid = make_grid(nx=32)
    x = grid.x_axis
    x1, x2 = np.meshgrid(x, x, indexing="ij")
    u = SpatialField(grid, np.sin(x1), PHYSICAL)
    ut = SpatialField(grid, np.cos(x2), PHYSICAL)
    out = nonlinearity_eval(u, ut, Nonlinearity("full_grad_square"))
    expected = np.cos(x2) ** 2 + np.cos(x1) ** 2
    assert np.abs(out.values - expected).max() < 1e-12


def test_deriv_of_square_time_direction():
    grid = make_grid()
    x = grid.x_axis
    x1, x2 = np.meshgrid(x, x, indexing="ij")
    u = SpatialField(grid, np.sin(x1 + x2), PHYSICAL)
    ut = SpatialField(grid, np.cos(x1), PHYSICAL)
    out = nonlinearity_eval(u, ut, Nonlinearity("deriv_of_square_t"))
    assert np.abs(out.values - 2 * u.values * ut.values).max() < 1e-13


def test_deriv_of_square_vs_finite_difference():
    # central differences of u^2 converge at O(h^2) to the spectral derivative
    errors = []
    for nx in (16, 32, 64):
        grid = make_grid(nx=nx)
        x = grid.x_axis
        x1, x2 = np.meshgrid(x, x, indexing="ij")
        u = SpatialField(grid, np.sin(x1) + 0.5 * np.cos(x1 + 2 * x2), PHYSICAL)
        z = SpatialField(grid, np.zeros(grid.spatial_shape), PHYSICAL)
        out = nonlinearity_eval(u, z, Nonlinearity("deriv_of_square_x1"))
        sq = (u.values ** 2).real
        fd = (np.roll(sq, -1, axis=0) - np.roll(sq, 1, axis=0)) / (2 * grid.dx)
        errors.append(np.abs(out.values - fd).max())
    assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.25)
    assert errors[1] / errors[2] == pytest.approx(4.0, rel=0.25)


@pytest.mark.parametrize("kind", [
    Nonlinearity("spatial_grad_square"), Nonlinearity("full_grad_square"),
    Nonlinearity("deriv_of_square_t"), Nonlinearity("deriv_of_square_x1"),
    Nonlinearity("deriv_of_square_x2")],
    ids=["spatial_grad_square", "full_grad_square", "dt", "dx1", "dx2"])
def test_nonlinearity_eval_matches_numpy_reference(kind):
    grid = make_grid(nx=16)
    rng = np.random.default_rng(5)
    u = rng.standard_normal(grid.spatial_shape)
    ut = rng.standard_normal(grid.spatial_shape)
    keep = np.abs(16 * np.fft.fftfreq(16)) <= 16 // 3
    mask = keep[:, None] & keep[None, :]

    def cut(values):
        return np.fft.ifft2(np.fft.fft2(values) * mask)

    uu, vv = cut(u), cut(ut)
    grad_sq = np_derivative(uu, 0) ** 2 + np_derivative(uu, 1) ** 2
    want = cut({"spatial_grad_square": grad_sq,
                "full_grad_square": vv ** 2 + grad_sq,
                "deriv_of_square_t": 2.0 * uu * vv,
                "deriv_of_square_x1": np_derivative(uu ** 2, 0),
                "deriv_of_square_x2": np_derivative(uu ** 2, 1)}[kind.kind])
    got = nonlinearity_eval(SpatialField(grid, u, PHYSICAL),
                            SpatialField(grid, ut, PHYSICAL), kind)
    assert np.abs(got.values - want).max() <= 1e-12 * np.abs(want).max()


def test_dealias_removes_high_modes():
    grid = make_grid(nx=16)
    x = grid.x_axis
    x1, _ = np.meshgrid(x, x, indexing="ij")
    # mode near the Nyquist: its square aliases without the 2/3 rule
    u = SpatialField(grid, np.cos(7 * x1), PHYSICAL)
    z = SpatialField(grid, np.zeros(grid.spatial_shape), PHYSICAL)
    out = nonlinearity_eval(u, z, Nonlinearity("spatial_grad_square"))
    # the dealiased square keeps only |k| <= nx/3 content
    hat = to_frequency(out)
    idx = np.rint(16 * np.fft.fftfreq(16)).astype(int)
    bad = (np.abs(idx[:, None]) > 16 // 3) | (np.abs(idx[None, :]) > 16 // 3)
    assert np.abs(hat.values[bad]).max() < 1e-13


# ---------------------------------------------------------------------------
# Duhamel quadrature
# ---------------------------------------------------------------------------

def test_duhamel_zero_forcing():
    grid = make_grid()
    times = np.linspace(0.0, 1.0, 9)
    z = SpatialField(grid, np.zeros(grid.spatial_shape), PHYSICAL)
    forces = [z] * 9
    out = duhamel_apply(times, forces, 5)
    assert np.abs(out.values).max() == 0.0
    out0 = duhamel_apply(times, forces, 0)
    assert np.abs(out0.values).max() == 0.0


@pytest.mark.parametrize("n_steps", [7, 24])
def test_duhamel_sweep_matches_single_slice_reference(n_steps):
    # time-varying random forces with a nonzero, time-dependent mean, so the
    # xi = 0 sums are exercised alongside the addition-theorem sums
    grid = make_grid(nx=16)
    times = 0.7 * np.arange(n_steps + 1) / n_steps
    rng = np.random.default_rng(n_steps)
    forces = [SpatialField(grid, rng.standard_normal(grid.spatial_shape)
                           + 1.0 + 2.0 * t * math.cos(3.0 * t), PHYSICAL)
              for t in times]
    hats = np.array([to_frequency(force).values for force in forces])
    tables = _halfwave(grid.xi_magnitude(), times)
    swept = _evolve(tables, *_duhamel_data(times[1], tables, hats))
    assert swept.shape == (2, n_steps + 1) + grid.spatial_shape
    for derivative, stack in zip((False, True), swept):
        for k, hat in enumerate(stack):
            got = to_physical(SpatialField(grid, hat, FREQUENCY)).values
            want = duhamel_apply(times, forces, k, derivative=derivative).values
            err = np.abs(got - want).max()
            assert err <= 1e-13 * np.abs(want).max()


KINDS = [Nonlinearity(word) for word in NONLINEARITY_KINDS]
KIND_IDS = ["full_grad_square", "spatial_grad_square", "dt", "dx1", "dx2", "none"]


def picard_map(data, kind, cfg, u, u_t):
    """One application of the integral solution map to the physical slices
    (u, u_t), from free_trajectory, nonlinearity_eval and duhamel_apply."""
    free = free_trajectory(data, cfg.T, cfg.n_steps)
    forces = [nonlinearity_eval(a, b, kind) for a, b in zip(u, u_t)]
    return tuple([fld.with_values(fld.values + duhamel_apply(
                      cfg.times, forces, k, derivative).values)
                  for k, fld in enumerate(slices)]
                 for derivative, slices in ((False, free.u), (True, free.u_t)))


@pytest.mark.parametrize("n_steps", [7, 24])
@pytest.mark.parametrize("kind", KINDS, ids=KIND_IDS)
def test_picard_iterates_match_single_slice_map(kind, n_steps):
    grid = make_grid(nx=16)
    data = random_data(grid, s=1.75, r=2, seed=n_steps, band_limit=5.0).scaled(0.3)
    cfg = SolverConfig(T=0.5, n_steps=n_steps, picard_tol=1e-300)
    free = free_trajectory(data, cfg.T, cfg.n_steps)
    u, u_t = free.u, free.u_t
    for m in (1, 2, 3):
        u, u_t = picard_map(data, kind, cfg, u, u_t)
        traj, _ = picard_solve(data, kind, replace(cfg, picard_max=m))
        for got, want in ((traj.u, u), (traj.u_t, u_t)):
            got = np.array([fld.values for fld in got])
            want = np.array([fld.values for fld in want])
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_picard_transform_count_linear_in_steps(transform_calls, monkeypatch):
    # the data are transformed once and an iteration is one batched inverse
    # and one batched forward transform; the output slices are one batched
    # inverse, made on the first read of u or u_t and never again
    fft_calls = count_fft_calls(monkeypatch, nlw_solver)
    data = mode_data(make_grid(), amplitude=0.1)
    calls = []
    for n_steps in (16, 32):
        transform_calls.clear()
        fft_calls.clear()
        cfg = SolverConfig(T=0.2, n_steps=n_steps, picard_max=1)
        traj, _ = picard_solve(data, Nonlinearity("spatial_grad_square"), cfg)
        solved = list(fft_calls)
        traj.u_t, traj.u, traj.u_t
        assert transform_calls == ["forward", "forward"]
        calls.append((solved, list(fft_calls)))
    assert calls[0] == calls[1] == (["ifftn", "fftn"], ["ifftn", "fftn", "ifftn"])


def test_rk4_transform_count(transform_calls, monkeypatch):
    # the data are transformed once, each right-hand side is one batched
    # inverse and one forward transform; reading u or u_t first makes the
    # one batched output inverse
    fft_calls = count_fft_calls(monkeypatch, nlw_solver)
    data = mode_data(make_grid(), amplitude=0.1)
    cfg = SolverConfig(T=0.2, n_steps=16)
    traj = rk4_solve(data, Nonlinearity("full_grad_square"), cfg)
    steps = ["ifftn", "fftn"] * 4 * cfg.n_steps
    assert fft_calls == steps
    traj.u, traj.u_t, traj.u
    assert transform_calls == ["forward", "forward"]
    assert fft_calls == steps + ["ifftn"]


def test_existence_probe_transform_count(transform_calls, monkeypatch):
    # every solve transforms its scaled data, then only iterates: the probe
    # reads no slice, so no output transform is made
    fft_calls = count_fft_calls(monkeypatch, nlw_solver)
    data = mode_data(make_grid(), amplitude=0.1)
    cfg = SolverConfig(T=0.2, n_steps=16, picard_tol=1e-10, picard_max=20)
    probe = existence_probe(data, Nonlinearity("full_grad_square"), cfg,
                            [0.1, 0.2, 0.4])
    assert all(rec["converged"] for rec in probe.records)
    iterations = sum(rec["iterations"] for rec in probe.records)
    assert fft_calls == ["ifftn", "fftn"] * iterations
    assert transform_calls == ["forward", "forward"] * len(probe.records)


def eager_slices(grid, hats):
    """The eager output path the solvers used to take: the (2, n, nx, nx)
    spectra inverse transformed in place as one (2n, nx, nx) batch, divided
    by the transform factor and copied into one SpatialField per slice."""
    flat = np.array(hats).reshape((-1,) + grid.spatial_shape)
    values = np.fft.ifftn(flat, axes=(-2, -1), out=flat)
    values /= grid.spatial_transform_factor
    fields = [SpatialField(grid, v, PHYSICAL) for v in values]
    return fields[:hats.shape[1]], fields[hats.shape[1]:]


@pytest.mark.parametrize("solver", ["picard", "rk4"])
def test_lazy_slices_equal_eager_path_and_share_one_array(solver):
    grid = make_grid(nx=16)
    data = random_data(grid, s=1.75, r=2, seed=7, band_limit=5.0).scaled(0.3)
    cfg = SolverConfig(T=0.5, n_steps=12, picard_max=3)
    kind = Nonlinearity("full_grad_square")
    traj = (picard_solve(data, kind, cfg)[0] if solver == "picard"
            else rk4_solve(data, kind, cfg))
    assert not traj.hats.flags.writeable
    want_u, want_ut = eager_slices(grid, traj.hats)
    for got, want in ((traj.u, want_u), (traj.u_t, want_ut)):
        assert len(got) == len(want) == cfg.n_steps + 1
        assert all(np.array_equal(a.values, b.values) for a, b in zip(got, want))
    owner = traj.u[0].values.base
    assert owner is not None and not owner.flags.writeable
    assert all(fld.values.base is owner for fld in (*traj.u, *traj.u_t))
    assert traj.u is traj.u and traj.u_t is traj.u_t


@pytest.mark.parametrize("solver", ["picard", "rk4"])
@pytest.mark.parametrize("kind", KINDS, ids=KIND_IDS)
def test_real_data_with_nyquist_content_give_real_slices(kind, solver):
    """Real data 0.05 N(0, 1) fill the Nyquist row and column, where i xi is
    not Hermitian; the 2/3 mask removes them before any derivative, so every
    u and u_t slice has max |imag| <= 1e-13 max |value|.  Measured: at most
    1.9e-16; without the mask, 1.3e-3 to 1.6e-2 for the four kinds with a
    spatial derivative."""
    grid = make_grid(nx=16)
    rng = np.random.default_rng(0)
    f, g = (SpatialField(grid, 0.05 * rng.standard_normal(grid.spatial_shape),
                         PHYSICAL) for _ in range(2))
    data = CauchyData(f, g)
    cfg = SolverConfig(T=0.2, n_steps=16)
    traj = (picard_solve(data, kind, cfg)[0] if solver == "picard"
            else rk4_solve(data, kind, cfg))
    values = np.array([fld.values for fld in (*traj.u, *traj.u_t)])
    assert np.abs(values.imag).max() <= 1e-13 * np.abs(values).max()


def test_gradient_magnitude_transform_count(transform_calls, monkeypatch):
    # frequency-represented data: the slices are summed by matrix products,
    # with no np.fft call and no spectral_grid.transform
    fft_calls = count_fft_calls(monkeypatch, nlw_solver)
    grid = GridSpec(nx=16, nt=8, time_period=1.0)
    data = random_data(grid, s=1.75, r=2, seed=9, band_limit=5.0)
    gradient_magnitude_trajectory(data)
    strichartz_ratio(data, q_t=4.0)
    assert fft_calls == []
    assert transform_calls == []


# ---------------------------------------------------------------------------
# solvers
# ---------------------------------------------------------------------------

def test_picard_zero_data_converges_immediately():
    grid = make_grid()
    data = mode_data(grid, amplitude=0.0)
    cfg = SolverConfig(T=0.1, n_steps=8, picard_tol=1e-12, picard_max=5)
    traj, report = picard_solve(data, Nonlinearity("full_grad_square"), cfg)
    assert report.converged
    assert len(report.residuals) == 1
    assert all(np.abs(u.values).max() == 0.0 for u in traj.u)


def test_trajectory_initial_slice_matches_data():
    grid = make_grid()
    data = mode_data(grid, amplitude=1e-3)
    cfg = SolverConfig(T=0.1, n_steps=16, picard_tol=1e-10, picard_max=10)
    traj, _ = picard_solve(data, Nonlinearity("full_grad_square"), cfg)
    assert np.abs(traj.u[0].values - to_physical(data.f).values).max() < 1e-12
    assert np.abs(traj.u_t[0].values).max() < 1e-12


def test_picard_matches_rk4_small_data():
    grid = make_grid(nx=16)
    data = mode_data(grid, amplitude=1e-3)
    cfg = SolverConfig(T=0.1, n_steps=64, picard_tol=1e-12, picard_max=25)
    kind = Nonlinearity("full_grad_square")
    traj, report = picard_solve(data, kind, cfg)
    oracle = rk4_solve(data, kind, cfg)
    assert report.converged
    assert rel_l2(traj.u[-1], oracle.u[-1]) <= 1e-4
    assert not oracle.meta["unstable"]


def test_picard_residuals_monotone_when_converged():
    grid = make_grid()
    data = mode_data(grid, amplitude=0.01)
    cfg = SolverConfig(T=0.2, n_steps=32, picard_tol=1e-11, picard_max=30)
    _, report = picard_solve(data, Nonlinearity("full_grad_square"), cfg)
    assert report.converged
    res = report.residuals
    assert all(b < a for a, b in zip(res, res[1:]))


def test_picard_nonconvergence_flagged_not_raised():
    grid = make_grid()
    data = mode_data(grid, amplitude=100.0)
    cfg = SolverConfig(T=1.0, n_steps=16, picard_tol=1e-10, picard_max=8)
    traj, report = picard_solve(data, Nonlinearity("full_grad_square"), cfg)
    assert not report.converged
    assert len(traj.u) == 17


def test_rk4_linear_matches_free_solution():
    grid = make_grid(nx=16)
    data = mode_data(grid, k=(2, 1), amplitude=1.0, g_amplitude=0.5)
    cfg = SolverConfig(T=1.0, n_steps=256, picard_tol=1e-10, picard_max=5)
    traj = rk4_solve(data, Nonlinearity("none"), cfg)
    u_free, _ = free_solution(data, 1.0)
    assert rel_l2(traj.u[-1], u_free) <= 1e-8


def test_rk4_zero_data_stays_zero():
    grid = make_grid()
    data = mode_data(grid, amplitude=0.0)
    cfg = SolverConfig(T=0.5, n_steps=16, picard_tol=1e-10, picard_max=5)
    traj = rk4_solve(data, Nonlinearity("full_grad_square"), cfg)
    assert all(np.abs(u.values).max() == 0.0 for u in traj.u)


def test_rk4_blowup_flagged():
    grid = make_grid(nx=16)
    data = mode_data(grid, amplitude=50.0)
    cfg = SolverConfig(T=2.0, n_steps=8, picard_tol=1e-10, picard_max=5)
    with np.errstate(all="ignore"):
        traj = rk4_solve(data, Nonlinearity("full_grad_square"), cfg)
    assert traj.meta["unstable"]


def test_energy_basics():
    grid = make_grid()
    z = SpatialField(grid, np.zeros(grid.spatial_shape), PHYSICAL)
    assert energy(z, z) == 0.0
    data = mode_data(grid, k=(1, 1), amplitude=2.0)
    f = to_physical(data.f)
    e1 = energy(f, z)
    scaled = f.with_values(3.0 * f.values)
    assert energy(scaled, z) == pytest.approx(9.0 * e1, rel=1e-12)


# ---------------------------------------------------------------------------
# random data
# ---------------------------------------------------------------------------

def test_random_data_reproducible_and_real():
    grid = make_grid(nx=32)
    a = random_data(grid, s=1.75, r=2, seed=11, band_limit=8.0)
    b = random_data(grid, s=1.75, r=2, seed=11, band_limit=8.0)
    assert np.array_equal(a.f.values, b.f.values)
    assert np.array_equal(a.g.values, b.g.values)
    c = random_data(grid, s=1.75, r=2, seed=12, band_limit=8.0)
    assert not np.array_equal(a.f.values, c.f.values)
    assert all(np.abs(to_physical(fld).values.imag).max() < 1e-12
               for fld in (a.f, a.g))


def full_draw_spectrum(grid, exponent, rng, band_limit):
    """Hermitian random spectrum with the weight and phase formed on every
    mode and the band selected afterwards by np.where."""
    nx = grid.nx
    idx = np.rint(nx * np.fft.fftfreq(nx)).astype(int)
    k1, k2 = idx[:, None], idx[None, :]
    x1, x2 = grid.spatial_frequency_mesh()
    r = np.sqrt(x1 ** 2 + x2 ** 2)
    weight = (1.0 + r ** 2) ** (exponent / 2.0)
    band = (r <= band_limit) & (np.abs(k1) < nx // 2) & (np.abs(k2) < nx // 2)
    phases = np.exp(1j * 2 * math.pi * rng.random((nx, nx)))
    canonical = (k1 > 0) | ((k1 == 0) & (k2 > 0))
    half = np.where(band & canonical, weight * phases, 0.0)
    full = half + np.conj(spectral_grid.flip_wrap(half))
    full[0, 0] = weight[0, 0]
    return full


@pytest.mark.parametrize("nx", [32, 256])
@pytest.mark.parametrize("seed", [5, 17])
def test_random_data_spectra_match_full_phase_draw(nx, seed):
    grid = make_grid(nx=nx)
    for band_modes in (0.4 * 32, 0.4 * nx):
        data = random_data(grid, s=1.75, r=2, seed=seed, band_limit=band_modes)
        rng = np.random.default_rng(seed)
        # random_data's exponents -(s + 2/r' + 0.01) and -(s - 1 + 2/r' + 0.01)
        want_f = full_draw_spectrum(grid, -(1.75 + 1.0 + 0.01), rng, band_modes)
        want_g = full_draw_spectrum(grid, -(0.75 + 1.0 + 0.01), rng, band_modes)
        assert np.array_equal(data.f.values, want_f)
        assert np.array_equal(data.g.values, want_g)


def test_random_data_norm_stable_across_band_doubling():
    norms = []
    for nx, band in ((64, 8.0), (64, 16.0), (128, 32.0)):
        grid = make_grid(nx=nx)
        data = random_data(grid, s=1.75, r=2, seed=13, band_limit=band)
        norms.append(fl_norm(data.f, 2, 1.75))
    for a, b in zip(norms, norms[1:]):
        assert abs(b / a - 1.0) <= 0.2


def test_random_data_higher_weight_diverges():
    norms = []
    for nx, band in ((64, 8.0), (64, 16.0), (128, 32.0)):
        grid = make_grid(nx=nx)
        data = random_data(grid, s=1.75, r=2, seed=13, band_limit=band)
        norms.append(fl_norm(data.f, 2, 2.25))
    assert norms[1] / norms[0] > 1.2
    assert norms[2] / norms[1] > 1.2


def test_random_data_band_limit_validation():
    grid = make_grid(nx=16)
    with pytest.raises(ValueError):
        random_data(grid, s=1.75, r=2, seed=1, band_limit=8.0)


# ---------------------------------------------------------------------------
# probes
# ---------------------------------------------------------------------------

def test_existence_probe_low_amplitude_converges():
    grid = make_grid()
    base = mode_data(grid, amplitude=1.0)
    cfg = SolverConfig(T=0.25, n_steps=16, picard_tol=1e-9, picard_max=20)
    probe = existence_probe(base, Nonlinearity("full_grad_square"), cfg,
                            amplitudes=[1e-3, 1e-2, 1e-1])
    assert all(rec["converged"] for rec in probe.records)
    assert probe.threshold is None


def test_existence_probe_threshold_decreases_with_T():
    grid = make_grid()
    base = mode_data(grid, amplitude=1.0)
    kind = Nonlinearity("full_grad_square")
    amps = [0.25, 1.0, 4.0, 16.0, 64.0, 256.0]
    thresholds = {}
    for T in (0.25, 0.5):
        cfg = SolverConfig(T=T, n_steps=24, picard_tol=1e-8, picard_max=30)
        probe = existence_probe(base, kind, cfg, amplitudes=amps,
                                bisect_steps=4)
        thresholds[T] = probe.threshold
        assert probe.records[0]["converged"]
        assert not probe.records[-1]["converged"]
    assert thresholds[0.5] < thresholds[0.25]


def test_existence_probe_first_residual_monotone_in_amplitude():
    grid = make_grid()
    base = mode_data(grid, amplitude=1.0)
    cfg = SolverConfig(T=0.25, n_steps=16, picard_tol=1e-12, picard_max=1)
    kind = Nonlinearity("full_grad_square")
    firsts = []
    for a in (0.01, 0.1, 1.0, 4.0):
        _, rep = picard_solve(base.scaled(a), kind, cfg)
        firsts.append(rep.residuals[0])
    assert all(b > a for a, b in zip(firsts, firsts[1:]))


def test_existence_probe_consistent_under_rescaling():
    # the equation's (t, x) -> (lam t, lam x) symmetry: the rescaled family
    # (f(lam .), lam g(lam .)) on the nested torus, solved to time T/lam,
    # reproduces the convergence table and threshold of the base family
    lam = 2
    grid = make_grid(nx=16)
    base = mode_data(grid, amplitude=1.0)
    grid2 = GridSpec(nx=16, nt=8, spatial_period=grid.spatial_period / lam,
                     time_period=grid.time_period)
    f2 = SpatialField(grid2, base.f.values, PHYSICAL)
    g2 = SpatialField(grid2, lam * base.g.values, PHYSICAL)
    rescaled = CauchyData(f2, g2)
    kind = Nonlinearity("full_grad_square")
    amps = [0.5, 2.0, 8.0, 32.0, 128.0]
    cfg1 = SolverConfig(T=0.5, n_steps=16, picard_tol=1e-8, picard_max=25)
    cfg2 = SolverConfig(T=0.5 / lam, n_steps=16, picard_tol=1e-8, picard_max=25)
    p1 = existence_probe(base, kind, cfg1, amps, bisect_steps=4)
    p2 = existence_probe(rescaled, kind, cfg2, amps, bisect_steps=4)
    assert [r["converged"] for r in p1.records] == \
        [r["converged"] for r in p2.records]
    assert (p1.threshold is None) == (p2.threshold is None)
    if p1.threshold is not None:
        assert p1.threshold == pytest.approx(p2.threshold, rel=1e-9)


def test_existence_probe_rejects_unsorted():
    grid = make_grid()
    base = mode_data(grid)
    cfg = SolverConfig(T=0.1, n_steps=8)
    with pytest.raises(ValueError):
        existence_probe(base, Nonlinearity("none"), cfg, [1.0, 0.5])


def test_wave_admissibility():
    assert wave_admissible(6, 6, n=2)
    assert not wave_admissible(4, math.inf, n=2)
    assert wave_admissible(math.inf, 2, n=2)
    assert not wave_admissible(4, 6, n=2)       # 1/2 + 1/6 > 1/2
    assert not wave_admissible(1.5, 100, n=2)   # p < 2


def test_gradient_magnitude_trajectory_matches_per_slice_reference():
    grid = GridSpec(nx=16, nt=8, time_period=1.0)
    data = random_data(grid, s=1.75, r=2, seed=9, band_limit=5.0)
    got = gradient_magnitude_trajectory(data).values
    for j, t in enumerate(grid.t_axis):
        u, _ = free_solution(data, float(t))
        want = np.sqrt(np.abs(np_derivative(u.values, 0)) ** 2
                       + np.abs(np_derivative(u.values, 1)) ** 2)
        assert np.abs(got[j] - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("nx", [16, 32])
def test_strichartz_ratio_matches_per_slice_reference(nx):
    grid = GridSpec(nx=nx, nt=16, time_period=1.0)
    data = random_data(grid, s=1.75, r=2, seed=nx + 3, band_limit=0.4 * nx)
    q_t = 4.5
    maxima = np_gradient_magnitudes(data).max(axis=(1, 2))
    num = (np.sum(maxima ** q_t) * grid.dt) ** (1.0 / q_t)
    want = num / (fl_norm(data.f, 2, 1.75) + fl_norm(data.g, 2, 0.75))
    assert strichartz_ratio(data, q_t) == pytest.approx(want, rel=1e-12, abs=0)


def test_synthesis_plan_built_once_per_band():
    # two data on one band: the second reuses the first's plan
    grid = GridSpec(nx=32, nt=8, time_period=1.0)
    nlw_solver._synthesis_plan.cache_clear()
    for seed in (1, 2):
        data = random_data(grid, s=1.75, r=2, seed=seed, band_limit=5.0)
        strichartz_ratio(data, q_t=4.0)
    info = nlw_solver._synthesis_plan.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
    plan = nlw_solver._synthesis_plan(grid, (0, 1, 31), (0, 1))
    assert [arr.shape for arr in plan] == [(8, 3, 2), (8, 3, 2), (32, 3), (4, 32)]
    for arr in plan:
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[(0,) * arr.ndim] = 0.0


def test_strichartz_ratio_same_with_cold_and_warm_caches():
    grid = GridSpec(nx=64, nt=16, time_period=1.0)
    data = [random_data(grid, s=1.75, r=2, seed=seed,
                        band_limit=grid.d_xi * 12.8) for seed in (5, 6)]
    cold = []
    for datum in data:
        nlw_solver._synthesis_plan.cache_clear()
        spectral_grid._XI_MAGNITUDE.clear()
        cold.append(strichartz_ratio(datum, q_t=4.0))
    # both data occupy one band, so each of these reads the cached plan
    warm = [strichartz_ratio(datum, q_t=4.0) for datum in data]
    assert nlw_solver._synthesis_plan.cache_info().hits == 2
    assert warm == cold


def test_gradient_magnitude_slices_are_distinct_copies():
    grid = GridSpec(nx=16, nt=8, time_period=1.0)
    data = random_data(grid, s=1.75, r=2, seed=9, band_limit=5.0)
    # the generator writes every slice into one reused buffer ...
    buffers = list(nlw_solver._squared_gradients(data))
    assert all(np.shares_memory(buf, buffers[0]) for buf in buffers)
    want = np.sqrt([buf.copy() for buf in nlw_solver._squared_gradients(data)])
    got = gradient_magnitude_trajectory(data).values
    # ... and the trajectory keeps a root of each slice in its own stack
    assert np.array_equal(got, want)
    assert not np.shares_memory(got, buffers[0])
    assert all(not np.array_equal(a, b) for a, b in zip(got, got[1:]))


def full_stack_gradient_magnitudes(data):
    """|grad u| per slice as one irfft2 of the whole (2, nx, nx/2+1) stack
    cos(t|xi|) a + sin(t|xi|) b, with a and b formed as the probe forms
    them: the FFT reference of the probe's band-limited matrix products."""
    grid = data.grid
    nx = grid.nx
    half = nx // 2 + 1
    k = grid.xi_magnitude()[:, :half]
    inv_k = np.divide(1.0, k, out=np.zeros_like(k), where=k > 0)
    xi = grid.xi_axis
    xi[nx // 2] = 0.0
    deriv = (1j / grid.spatial_transform_factor) * np.stack(
        np.broadcast_arrays(xi[:, None], xi[None, :half]))
    a = deriv * nlw_solver._real_half_spectrum(data.f)
    b = deriv * (inv_k * nlw_solver._real_half_spectrum(data.g))
    out = []
    for t in grid.t_axis:
        g1, g2 = np.fft.irfft2(np.cos(t * k) * a + np.sin(t * k) * b,
                               s=grid.spatial_shape)
        out.append(np.sqrt(g1 ** 2 + g2 ** 2))
    return np.array(out)


@pytest.mark.parametrize("data_kind", ["fixed_band", "widest_band", "physical"])
def test_pruned_gradient_magnitudes_match_full_stack(data_kind):
    """The probe sums the occupied band by matrix products, not by irfft2,
    so it agrees with the full-stack irfft2 to rounding: within 1e-13 of
    the largest value, and with the independent np.fft oracle within 1e-12.

    The shipped fixed band (12.8 lattice steps) occupies 25 rows and 13
    half-spectrum columns at 256 x 256; the widest band a strichartz ladder
    makes, 0.4 nx on a one-rung ladder at nx = 256, and physical random
    data (whose Nyquist column d/dx1 keeps) occupy far more.
    """
    grid = GridSpec(nx=256, nt=8, time_period=1.0)
    if data_kind == "physical":
        rng = np.random.default_rng(23)
        data = CauchyData(
            SpatialField(grid, rng.standard_normal(grid.spatial_shape), PHYSICAL),
            SpatialField(grid, rng.standard_normal(grid.spatial_shape), PHYSICAL))
    else:
        steps = 0.4 * (32 if data_kind == "fixed_band" else grid.nx)
        data = random_data(grid, s=1.75, r=2, seed=23,
                           band_limit=grid.d_xi * steps)
    got = gradient_magnitude_trajectory(data).values
    full = full_stack_gradient_magnitudes(data)
    assert np.abs(got - full).max() <= 1e-13 * np.abs(full).max()
    want = np_gradient_magnitudes(data, drop_nyquist=True)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_gradient_magnitudes_drop_nyquist_modes():
    # real physical data fill the Nyquist row and column of the spectrum
    grid = GridSpec(nx=16, nt=8, time_period=1.0)
    rng = np.random.default_rng(12)
    data = CauchyData(SpatialField(grid, rng.standard_normal((16, 16)), PHYSICAL),
                      SpatialField(grid, rng.standard_normal((16, 16)), PHYSICAL))
    got = gradient_magnitude_trajectory(data).values.real
    want = np_gradient_magnitudes(data, drop_nyquist=True)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    # the data do carry Nyquist content: keeping it changes the gradient
    full = np_gradient_magnitudes(data)
    assert np.abs(got - full).max() > 1e-2 * np.abs(full).max()


def test_gradient_magnitudes_reject_complex_data():
    grid = GridSpec(nx=16, nt=8, time_period=1.0)
    rng = np.random.default_rng(13)
    real = SpatialField(grid, rng.standard_normal((16, 16)), PHYSICAL)
    complex_ = SpatialField(grid, rng.standard_normal((16, 16))
                            + 1j * rng.standard_normal((16, 16)), PHYSICAL)
    for data in (CauchyData(complex_, real), CauchyData(real, complex_)):
        with pytest.raises(ValueError, match="Hermitian"):
            gradient_magnitude_trajectory(data)
        with pytest.raises(ValueError, match="Hermitian"):
            strichartz_ratio(data, q_t=4.0)


def test_strichartz_ratio_plane_wave_constant_across_resolutions():
    ratios = []
    for nx in (32, 64):
        grid = GridSpec(nx=nx, nt=64, time_period=1.0)
        x = grid.x_axis
        x1, _ = np.meshgrid(x, x, indexing="ij")
        f = SpatialField(grid, np.cos(x1), PHYSICAL)
        g = SpatialField(grid, np.zeros(grid.spatial_shape), PHYSICAL)
        ratios.append(strichartz_ratio(CauchyData(f, g), q_t=4.0))
    assert ratios[0] == pytest.approx(ratios[1], rel=1e-12)
