import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from conewave import (FREQUENCY, PHYSICAL, SpaceTimeField,
                      SpatialField, LebesgueExponents, RegularityParams,
                      critical_exponent, fl_norm, japanese_bracket, mixed_norm,
                      scaling_law_check, sobolev_correspondence, xsb_norm,
                      z_norm)
from conewave.norms import rescale_spatial, spatial_l2
from conewave.spectral_grid import to_frequency, to_physical

from conftest import random_field


def test_japanese_bracket_values():
    assert japanese_bracket((0, 0)) == 1.0
    assert abs(japanese_bracket((3, 4)) - math.sqrt(26)) < 1e-15
    # monotone along a ray
    vals = [japanese_bracket((t, 2 * t)) for t in np.linspace(0, 5, 40)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_exponent_types():
    ex = LebesgueExponents(Fraction(3, 2))
    assert ex.p == Fraction(3)
    assert 1 / ex.r + 1 / ex.p == 1
    with pytest.raises(ValueError):
        LebesgueExponents(Fraction(5, 2))
    params = RegularityParams(s=1.76, b=0.51, eps=0.01)
    assert params.sigma == pytest.approx(0.76)
    assert params.hypotheses_hold(2)
    assert not params.hypotheses_hold(1.2)


def test_fl_norm_single_mode_closed_form(grid8):
    vals = np.zeros(grid8.spatial_shape, dtype=complex)
    vals[2, 1] = 1.0     # xi0 = (2, 1)
    f = SpatialField(grid8, vals, FREQUENCY)
    r, s = 1.5, 0.75
    p = r / (r - 1)
    expected = japanese_bracket((2, 1)) ** s * grid8.spatial_freq_cell ** (1 / p)
    assert fl_norm(f, r, s).value == pytest.approx(expected, rel=1e-13)


def test_conjugate_exponent_accepts_numpy_scalars(grid8):
    f = random_field(grid8, 3, spatial=True)
    for r in (np.int64(2), np.float32(1.5), np.float64(1.75)):
        assert LebesgueExponents(r).p == LebesgueExponents(float(r)).p
        assert fl_norm(f, r, 1).value == fl_norm(f, float(r), 1).value


def test_fl_norm_plancherel_case(grid8):
    f = random_field(grid8, 1, spatial=True)
    assert fl_norm(f, 2, 0).value == pytest.approx(spatial_l2(f), rel=1e-12)


def test_fl_norm_against_mpmath_oracle(grid8):
    f = random_field(grid8, 2, spatial=True)
    r, s = 1.5, 1.25
    p = r / (r - 1)
    with mpmath.workdps(40):
        total = mpmath.mpf(0)
        x1, x2 = grid8.spatial_frequency_mesh()
        w = np.sqrt(1.0 + x1 ** 2 + x2 ** 2)
        for (i, j), v in np.ndenumerate(f.values):
            term = (mpmath.mpf(float(w[i, j])) ** s * abs(mpmath.mpc(v))) ** p
            total += term
        expected = float((total * mpmath.mpf(grid8.spatial_freq_cell)) ** (1 / mpmath.mpf(p)))
    assert fl_norm(f, r, s).value == pytest.approx(expected, rel=1e-10)


def test_fl_norm_homogeneous_excludes_dc(grid8):
    vals = np.zeros(grid8.spatial_shape, dtype=complex)
    vals[0, 0] = 3.0
    vals[1, 0] = 1.0
    f = SpatialField(grid8, vals, FREQUENCY)
    out = fl_norm(f, 2, 1, homogeneous=True)
    assert out.meta["excluded_dc_mode"] == pytest.approx(3.0)
    expected = 1.0 * grid8.spatial_freq_cell ** 0.5    # |xi| = 1 mode only
    assert out.value == pytest.approx(expected, rel=1e-13)


def test_fl_norm_monotone_in_s(grid8):
    f = random_field(grid8, 3, spatial=True)
    v1 = fl_norm(f, 1.5, 0.5).value
    v2 = fl_norm(f, 1.5, 1.5).value
    assert v1 <= v2


def test_xsb_norm_time_independent_separable(grid8):
    fvals = np.zeros(grid8.spatial_shape, dtype=complex)
    fvals[1, 2] = 0.7
    fvals[3, 0] = -0.2j
    # u(t, x) = f(x): only the tau = 0 plane is populated, with value
    # f-hat * (time transform of 1)
    f_spatial = SpatialField(grid8, fvals, FREQUENCY)
    ones_t = np.zeros(grid8.nt)
    u_phys = np.broadcast_to(
        to_physical(f_spatial).values[None, :, :], grid8.shape)
    u = SpaceTimeField(grid8, u_phys, PHYSICAL)
    r, s = 2, 1.25
    got = xsb_norm(u, r, s, b=0).value
    # with b = 0 the weight separates: spatial fl_norm times the time factor
    # (DC tau mode carries time_period/sqrt(2 pi) per unit coefficient, with
    # quadrature weight d_tau^{1/2})
    expected = fl_norm(f_spatial, r, s).value * (
        grid8.time_period / math.sqrt(2 * math.pi)) * grid8.d_tau ** 0.5
    assert got == pytest.approx(expected, rel=1e-12)


def test_xsb_norm_on_cone_weight_is_one(grid8):
    # mode exactly on the cone tau = |xi|: modulation weight <0>^b = 1
    vals = np.zeros(grid8.shape, dtype=complex)
    # xi = (3, 0) has |xi| = 3, tau lattice contains 3
    it = list(np.rint(grid8.tau_axis).astype(int)).index(3)
    vals[it, 3, 0] = 1.0
    u = SpaceTimeField(grid8, vals, FREQUENCY)
    for b in (0.0, 0.5, 3.0):
        got = xsb_norm(u, 2, 0, b).value
        assert got == pytest.approx(grid8.freq_cell ** 0.5, rel=1e-13)


def test_xsb_norm_direct_sum_oracle(grid8):
    u = random_field(grid8, 4)
    s, b = 0.75, 0.4
    tau, x1, x2 = grid8.frequency_mesh()
    xi = np.sqrt(x1 ** 2 + x2 ** 2)
    w = (1 + xi ** 2) ** (s / 2) * (1 + (np.abs(tau) - xi) ** 2) ** (b / 2)
    direct = (np.sum((w * np.abs(u.values)) ** 2) * grid8.freq_cell) ** 0.5
    assert xsb_norm(u, 2, s, b).value == pytest.approx(direct, rel=1e-12)


def test_z_norm_additivity(grid8):
    u = random_field(grid8, 5)
    ut = random_field(grid8, 6)
    r, s, b = 1.8, 1.1, 0.6
    total = z_norm(u, ut, r, s, b).value
    assert total == pytest.approx(
        xsb_norm(u, r, s, b).value + xsb_norm(ut, r, s - 1, b).value, rel=1e-13)
    zero = u.with_values(np.zeros(grid8.shape))
    assert z_norm(zero, zero, r, s, b).value == 0.0
    assert z_norm(u, zero, r, s, b).value == pytest.approx(
        xsb_norm(u, r, s, b).value, rel=1e-13)


def test_z_norm_grid_mismatch(grid8, grid16):
    u = random_field(grid8, 7)
    v = random_field(grid16, 8)
    with pytest.raises(ValueError):
        z_norm(u, v, 2, 1, 0.5)


def test_mixed_norm_constant_closed_form(grid8):
    c = 0.37
    u = SpaceTimeField(grid8, np.full(grid8.shape, c), PHYSICAL)
    q, rho = 4.0, 6.0
    expected = c * grid8.time_period ** (1 / q) * grid8.spatial_period ** (2 / rho)
    assert mixed_norm(u, q, rho).value == pytest.approx(expected, rel=1e-13)
    # L-infinity realized as lattice max
    assert mixed_norm(u, math.inf, math.inf).value == pytest.approx(c)


def test_mixed_norm_l2_case(grid8):
    u = random_field(grid8, 9, rep=PHYSICAL)
    direct = math.sqrt(float(np.sum(np.abs(u.values) ** 2)) * grid8.phys_cell)
    assert mixed_norm(u, 2, 2).value == pytest.approx(direct, rel=1e-12)


def test_mixed_norm_against_mpmath_oracle(grid8):
    u = random_field(grid8, 10, rep=PHYSICAL)
    q, rho = 3.0, 5.0
    with mpmath.workdps(40):
        acc = mpmath.mpf(0)
        for k in range(grid8.nt):
            inner = mpmath.mpf(0)
            for (i, j), v in np.ndenumerate(u.values[k]):
                inner += abs(mpmath.mpc(v)) ** rho
            inner = (inner * mpmath.mpf(grid8.spatial_phys_cell)) ** (1 / mpmath.mpf(rho))
            acc += inner ** q
        expected = float((acc * mpmath.mpf(grid8.dt)) ** (1 / mpmath.mpf(q)))
    assert mixed_norm(u, q, rho).value == pytest.approx(expected, rel=1e-10)


def test_xsb_norm_collapses_to_weighted_l2(grid8):
    # b = 0, s = 0, r = 2: the quadrature-weighted space-time l2 norm
    u = random_field(grid8, 21, rep=PHYSICAL)
    weighted = math.sqrt(float(np.sum(np.abs(u.values) ** 2)) * grid8.phys_cell)
    got = xsb_norm(to_frequency(u), 2, 0, 0).value
    assert got == pytest.approx(weighted, rel=1e-12)


def test_norm_homogeneity_and_triangle(grid8):
    u = random_field(grid8, 11)
    v = random_field(grid8, 12)
    r, s, b = 1.6, 0.8, 0.45
    c = -2.5 + 1.25j
    scaled = u.with_values(c * u.values)
    assert xsb_norm(scaled, r, s, b).value == pytest.approx(
        abs(c) * xsb_norm(u, r, s, b).value, rel=1e-12)
    lhs = xsb_norm(u.with_values(u.values + v.values), r, s, b).value
    assert lhs <= xsb_norm(u, r, s, b).value + xsb_norm(v, r, s, b).value + 1e-12


def test_sobolev_correspondence_exact():
    assert sobolev_correspondence(2, Fraction(3, 2), 2) == Fraction(5, 3)
    assert sobolev_correspondence(Fraction(7, 4), 2, 2) == Fraction(7, 4)
    assert sobolev_correspondence(Fraction(5, 2), 1, 2) == Fraction(3, 2)


def test_critical_exponents():
    assert critical_exponent(2, 2, "grad_square") == 1
    assert critical_exponent(Fraction(3, 2), 2, "grad_square") == Fraction(4, 3)
    assert critical_exponent(2, 2, "deriv_of_square") == 0
    with pytest.raises(ValueError):
        critical_exponent(2, 2, "cubic")


def _band_limited_field(grid, seed, kmax=2):
    rng = np.random.default_rng(seed)
    vals = np.zeros(grid.spatial_shape, dtype=complex)
    for k1 in range(-kmax, kmax + 1):
        for k2 in range(-kmax, kmax + 1):
            vals[k1, k2] = rng.standard_normal() + 1j * rng.standard_normal()
    vals[0, 0] = 0.0
    return SpatialField(grid, vals, FREQUENCY)


def test_scaling_law_trivial_and_critical(grid16):
    f = _band_limited_field(grid16, 13)
    rep = scaling_law_check(f, s=1.0, r=2, lam=1)
    assert rep.ratio == pytest.approx(1.0, abs=1e-13)
    # critical invariance: s = n/r
    rep = scaling_law_check(f, s=1.0, r=2, lam=2)
    assert rep.ratio == pytest.approx(1.0, rel=1e-12)
    rep = scaling_law_check(f, s=4.0 / 3.0, r=1.5, lam=2)
    assert rep.ratio == pytest.approx(1.0, rel=1e-12)


def test_scaling_law_single_mode_exact(grid16):
    vals = np.zeros(grid16.spatial_shape, dtype=complex)
    vals[2, 1] = 1.0
    f = SpatialField(grid16, vals, FREQUENCY)
    rep = scaling_law_check(f, s=7.0 / 4.0, r=2, lam=4)
    assert rep.rel_error <= 1e-12
    assert rep.predicted == pytest.approx(4.0 ** 0.75)


def test_scaling_law_generic_field_exact(grid16):
    f = _band_limited_field(grid16, 14, kmax=3)
    for lam in (2, 4):
        for s, r in ((7.0 / 4.0, 2), (2.0, 1.5), (1.2, 1.7)):
            rep = scaling_law_check(f, s=s, r=r, lam=lam)
            assert not rep.aliased
            assert rep.rel_error <= 1e-12, (lam, s, r, rep.rel_error)


def test_scaling_law_aliased_skip(grid16):
    vals = np.zeros(grid16.spatial_shape, dtype=complex)
    vals[grid16.nx // 2, 1] = 1.0     # content on the Nyquist plane
    f = SpatialField(grid16, vals, FREQUENCY)
    rep = scaling_law_check(f, s=1.0, r=2, lam=2)
    assert rep.aliased and rep.skipped


def test_rescale_preserves_samples(grid16):
    f = _band_limited_field(grid16, 15)
    phys = to_physical(f)
    scaled = rescale_spatial(phys, 2)
    assert np.array_equal(scaled.values, phys.values)
    assert scaled.grid.spatial_period == pytest.approx(grid16.spatial_period / 2)
