import math

import numpy as np
import pytest

from conewave import (FREQUENCY, PHYSICAL, CauchyData, GridSpec, Nonlinearity,
                      SolverConfig, SpatialField, duhamel_apply, energy,
                      existence_probe, free_solution, halfwave_multipliers,
                      nonlinearity_eval, picard_solve, random_data, rk4_solve,
                      wave_admissible)
from conewave import spectral_grid
from conewave.nlw_solver import (_duhamel_sweep, free_trajectory,
                                  gradient_magnitude_trajectory,
                                  strichartz_ratio)
from conewave.norms import fl_norm, spatial_l2
from conewave.spectral_grid import to_frequency, to_physical


def make_grid(nx=16, nt=8):
    return GridSpec(nx=nx, nt=nt, spatial_period=2 * math.pi,
                    time_period=2 * math.pi)


def mode_data(grid, k=(1, 0), amplitude=1.0, g_amplitude=0.0):
    x = grid.x_axis
    x1, x2 = np.meshgrid(x, x, indexing="ij")
    phase = k[0] * x1 + k[1] * x2
    f = SpatialField(grid, amplitude * np.cos(phase), PHYSICAL)
    g = SpatialField(grid, g_amplitude * np.cos(phase), PHYSICAL)
    return CauchyData(f, g)


def np_derivative(values, axis):
    """Spectral d/dx_axis on the 2*pi torus with raw np.fft."""
    nx = values.shape[0]
    k = nx * np.fft.fftfreq(nx)
    mult = k[:, None] if axis == 0 else k[None, :]
    return np.fft.ifft2(1j * mult * np.fft.fft2(values))


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
    cos0, sin0 = halfwave_multipliers(grid, 0.0)
    assert np.all(cos0 == 1.0)
    assert np.all(sin0 == 0.0)
    cos3, sin3 = halfwave_multipliers(grid, 3.0)
    assert cos3[0, 0] == 1.0 and sin3[0, 0] == 3.0
    # |xi| = pi is not on this lattice; check |xi| = 4 at t = pi/4:
    # sin(pi)/4 = 0, cos(pi) = -1
    c, s = halfwave_multipliers(grid, math.pi / 4)
    assert c[4, 0] == pytest.approx(-1.0)
    assert s[4, 0] == pytest.approx(0.0, abs=1e-15)


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
    out = nonlinearity_eval(u, z, Nonlinearity("spatial_grad_square"),
                            dealias=False)
    assert np.abs(out.values - np.cos(x1) ** 2).max() < 1e-12


def test_full_grad_square_sum_of_squares():
    grid = make_grid(nx=32)
    x = grid.x_axis
    x1, x2 = np.meshgrid(x, x, indexing="ij")
    u = SpatialField(grid, np.sin(x1), PHYSICAL)
    ut = SpatialField(grid, np.cos(x2), PHYSICAL)
    out = nonlinearity_eval(u, ut, Nonlinearity("full_grad_square"),
                            dealias=False)
    expected = np.cos(x2) ** 2 + np.cos(x1) ** 2
    assert np.abs(out.values - expected).max() < 1e-12


def test_deriv_of_square_time_direction():
    grid = make_grid()
    x = grid.x_axis
    x1, x2 = np.meshgrid(x, x, indexing="ij")
    u = SpatialField(grid, np.sin(x1 + x2), PHYSICAL)
    ut = SpatialField(grid, np.cos(x1), PHYSICAL)
    out = nonlinearity_eval(u, ut, Nonlinearity("deriv_of_square", "t"),
                            dealias=False)
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
        out = nonlinearity_eval(u, z, Nonlinearity("deriv_of_square", "x1"),
                                dealias=False)
        sq = (u.values ** 2).real
        fd = (np.roll(sq, -1, axis=0) - np.roll(sq, 1, axis=0)) / (2 * grid.dx)
        errors.append(np.abs(out.values - fd).max())
    assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.25)
    assert errors[1] / errors[2] == pytest.approx(4.0, rel=0.25)


@pytest.mark.parametrize("dealias", [True, False])
@pytest.mark.parametrize("kind", [
    Nonlinearity("spatial_grad_square"), Nonlinearity("full_grad_square"),
    Nonlinearity("deriv_of_square", "t"), Nonlinearity("deriv_of_square", "x1"),
    Nonlinearity("deriv_of_square", "x2")],
    ids=["spatial_grad_square", "full_grad_square", "dt", "dx1", "dx2"])
def test_nonlinearity_eval_matches_numpy_reference(kind, dealias):
    grid = make_grid(nx=16)
    rng = np.random.default_rng(5)
    u = rng.standard_normal(grid.spatial_shape)
    ut = rng.standard_normal(grid.spatial_shape)
    keep = np.abs(16 * np.fft.fftfreq(16)) <= 16 // 3
    mask = keep[:, None] & keep[None, :]

    def cut(values):
        return np.fft.ifft2(np.fft.fft2(values) * mask) if dealias else values

    uu, vv = cut(u), cut(ut)
    grad_sq = np_derivative(uu, 0) ** 2 + np_derivative(uu, 1) ** 2
    want = cut({"spatial_grad_square": grad_sq,
                "full_grad_square": vv ** 2 + grad_sq,
                "t": 2.0 * uu * vv,
                "x1": np_derivative(uu ** 2, 0),
                "x2": np_derivative(uu ** 2, 1)}[kind.direction or kind.kind])
    got = nonlinearity_eval(SpatialField(grid, u, PHYSICAL),
                            SpatialField(grid, ut, PHYSICAL), kind, dealias)
    assert np.abs(got.values - want).max() <= 1e-12 * np.abs(want).max()


def test_dealias_removes_high_modes():
    grid = make_grid(nx=16)
    x = grid.x_axis
    x1, _ = np.meshgrid(x, x, indexing="ij")
    # mode near the Nyquist: its square aliases without the 2/3 rule
    u = SpatialField(grid, np.cos(7 * x1), PHYSICAL)
    z = SpatialField(grid, np.zeros(grid.spatial_shape), PHYSICAL)
    out = nonlinearity_eval(u, z, Nonlinearity("spatial_grad_square"),
                            dealias=True)
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


def test_duhamel_constant_mode_closed_form_and_order():
    # F(t, x) = cos(k . x) constant in t: the integral has the closed form
    # (1 - cos(t |k|)) / |k|^2; trapezoid error decays at O(dt^2)
    k = (2, 1)
    omega = math.sqrt(5.0)
    errors = []
    for n_steps in (16, 32, 64):
        grid = make_grid(nx=16)
        x = grid.x_axis
        x1, x2 = np.meshgrid(x, x, indexing="ij")
        F = SpatialField(grid, np.cos(k[0] * x1 + k[1] * x2), PHYSICAL)
        times = 1.0 * np.arange(n_steps + 1) / n_steps
        forces = [F] * (n_steps + 1)
        out = duhamel_apply(times, forces, n_steps)
        expected = (1 - math.cos(1.0 * omega)) / omega ** 2 * np.cos(
            k[0] * x1 + k[1] * x2)
        errors.append(np.abs(out.values - expected).max())
    assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.2)
    assert errors[1] / errors[2] == pytest.approx(4.0, rel=0.2)


@pytest.mark.parametrize("n_steps", [7, 24])
def test_duhamel_sweep_matches_single_slice_reference(n_steps):
    # time-varying random forces with a nonzero, time-dependent mean, so the
    # xi = 0 branch is exercised alongside the addition-theorem sums
    grid = make_grid(nx=16)
    times = 0.7 * np.arange(n_steps + 1) / n_steps
    rng = np.random.default_rng(n_steps)
    forces = [SpatialField(grid, rng.standard_normal(grid.spatial_shape)
                           + 1.0 + 2.0 * t * math.cos(3.0 * t), PHYSICAL)
              for t in times]
    hats = [to_frequency(force).values for force in forces]
    slices = list(_duhamel_sweep(grid, times, hats))
    assert len(slices) == n_steps + 1
    for k, swept in enumerate(slices):
        for derivative, hat in zip((False, True), swept):
            got = to_physical(SpatialField(grid, hat, FREQUENCY)).values
            want = duhamel_apply(times, forces, k, derivative=derivative).values
            err = np.abs(got - want).max()
            assert err <= 1e-13 * np.abs(want).max()


def test_picard_transform_count_linear_in_steps(transform_calls):
    # 2 for the data, 3 per forcing, 2 per output slice: 87 at n_steps = 16
    data = mode_data(make_grid(), amplitude=0.1)
    counts = []
    for n_steps in (16, 32):
        transform_calls.clear()
        cfg = SolverConfig(T=0.2, n_steps=n_steps, picard_max=1)
        picard_solve(data, Nonlinearity("spatial_grad_square"), cfg)
        counts.append(len(transform_calls))
    assert counts[0] <= 90
    assert counts[1] / counts[0] <= 2.2


def test_rk4_transform_count(transform_calls):
    # 2 for the data, 4 per right-hand side, 2 per output slice: 292
    data = mode_data(make_grid(), amplitude=0.1)
    cfg = SolverConfig(T=0.2, n_steps=16)
    rk4_solve(data, Nonlinearity("full_grad_square"), cfg)
    assert len(transform_calls) <= 300


def test_gradient_magnitude_transform_count(transform_calls):
    # frequency-represented data: one inverse transform per gradient component
    grid = GridSpec(nx=16, nt=8, spatial_period=2 * math.pi, time_period=1.0)
    data = random_data(grid, s=1.75, r=2, seed=9, band_limit=5.0)
    gradient_magnitude_trajectory(data)
    assert len(transform_calls) == 2 * grid.nt


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


def test_rk4_self_convergence_fourth_order():
    grid = make_grid(nx=16)
    data = mode_data(grid, amplitude=0.05)
    kind = Nonlinearity("full_grad_square")
    finals = {}
    for n_steps in (16, 32, 64, 128):
        cfg = SolverConfig(T=0.5, n_steps=n_steps, picard_tol=1e-10,
                           picard_max=5)
        finals[n_steps] = rk4_solve(data, kind, cfg).u[-1]
    e1 = spatial_l2(finals[16].with_values(finals[16].values - finals[32].values))
    e2 = spatial_l2(finals[32].with_values(finals[32].values - finals[64].values))
    e3 = spatial_l2(finals[64].with_values(finals[64].values - finals[128].values))
    assert e1 / e2 == pytest.approx(16.0, rel=0.2)
    assert e2 / e3 == pytest.approx(16.0, rel=0.2)


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
    assert a.max_imag_physical() < 1e-12


def test_random_data_norm_stable_across_band_doubling():
    norms = []
    for nx, band in ((64, 8.0), (64, 16.0), (128, 32.0)):
        grid = make_grid(nx=nx)
        data = random_data(grid, s=1.75, r=2, seed=13, band_limit=band)
        norms.append(fl_norm(data.f, 2, 1.75).value)
    for a, b in zip(norms, norms[1:]):
        assert abs(b / a - 1.0) <= 0.2


def test_random_data_higher_weight_diverges():
    norms = []
    for nx, band in ((64, 8.0), (64, 16.0), (128, 32.0)):
        grid = make_grid(nx=nx)
        data = random_data(grid, s=1.75, r=2, seed=13, band_limit=band)
        norms.append(fl_norm(data.f, 2, 2.25).value)
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
    grid = GridSpec(nx=16, nt=8, spatial_period=2 * math.pi, time_period=1.0)
    data = random_data(grid, s=1.75, r=2, seed=9, band_limit=5.0)
    got = gradient_magnitude_trajectory(data).values
    for j, t in enumerate(grid.t_axis):
        u, _ = free_solution(data, float(t))
        want = np.sqrt(np.abs(np_derivative(u.values, 0)) ** 2
                       + np.abs(np_derivative(u.values, 1)) ** 2)
        assert np.abs(got[j] - want).max() <= 1e-12 * np.abs(want).max()


def test_strichartz_ratio_plane_wave_constant_across_resolutions():
    ratios = []
    for nx in (32, 64):
        grid = GridSpec(nx=nx, nt=64, spatial_period=2 * math.pi,
                        time_period=1.0)
        x = grid.x_axis
        x1, _ = np.meshgrid(x, x, indexing="ij")
        f = SpatialField(grid, np.cos(x1), PHYSICAL)
        g = SpatialField(grid, np.zeros(grid.spatial_shape), PHYSICAL)
        ratios.append(strichartz_ratio(CauchyData(f, g), q_t=4.0))
    assert ratios[0] == pytest.approx(ratios[1], rel=1e-12)
