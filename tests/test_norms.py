import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from conewave import (FREQUENCY, PHYSICAL, SpaceTimeField, SpatialField,
                      LebesgueExponents, critical_exponent, fl_norm, mixed_norm,
                      scaling_law_check, sobolev_correspondence)
from conewave.norms import lp_norm, rescale_spatial, spatial_l2
from conewave.spectral_grid import bracket_weight, to_physical

from conftest import random_field


def test_japanese_bracket_values():
    assert bracket_weight(0.0) == 1.0
    assert abs(bracket_weight(5.0) - math.sqrt(26)) < 1e-15
    # monotone along a ray
    vals = [bracket_weight(math.hypot(t, 2 * t)) for t in np.linspace(0, 5, 40)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_exponent_types():
    ex = LebesgueExponents(Fraction(3, 2))
    assert ex.p == Fraction(3)
    assert 1 / ex.r + 1 / ex.p == 1
    with pytest.raises(ValueError):
        LebesgueExponents(Fraction(5, 2))


@pytest.mark.parametrize("p", [1, 2, 4, 4.5, math.inf])
def test_lp_norm_matches_literal_sums(p):
    """The quadrature kernel over all axes and over axes (1, 2) equals a
    Python loop of x^p cell summed and rooted, or the loop's max at p = inf."""
    mag = np.random.default_rng(8).random((3, 4, 5))
    cell = 0.37

    def literal(values):
        if math.isinf(p):
            return max(values)
        return sum(x ** p * cell for x in values) ** (1 / p)

    assert lp_norm(mag, p, cell) == pytest.approx(
        literal(mag.ravel().tolist()), rel=1e-14, abs=0)
    per_t = lp_norm(mag, p, cell, axis=(1, 2))
    assert per_t.shape == (3,)
    for got, slice_ in zip(per_t, mag):
        assert got == pytest.approx(literal(slice_.ravel().tolist()), rel=1e-14, abs=0)


def test_fl_norm_single_mode_closed_form(grid8):
    vals = np.zeros(grid8.spatial_shape, dtype=complex)
    vals[2, 1] = 1.0     # xi0 = (2, 1)
    f = SpatialField(grid8, vals, FREQUENCY)
    r, s = 1.5, 0.75
    p = r / (r - 1)
    expected = math.sqrt(1 + 2 ** 2 + 1 ** 2) ** s * grid8.spatial_freq_cell ** (1 / p)
    assert fl_norm(f, r, s) == pytest.approx(expected, rel=1e-13)


def test_conjugate_exponent_accepts_numpy_scalars(grid8):
    f = random_field(grid8, 3, spatial=True)
    for r in (np.int64(2), np.float32(1.5), np.float64(1.75)):
        assert LebesgueExponents(r).p == LebesgueExponents(float(r)).p
        assert fl_norm(f, r, 1) == fl_norm(f, float(r), 1)


def test_fl_norm_plancherel_case(grid8):
    f = random_field(grid8, 1, spatial=True)
    assert fl_norm(f, 2, 0) == pytest.approx(spatial_l2(f), rel=1e-12)


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
    assert fl_norm(f, r, s) == pytest.approx(expected, rel=1e-10)


def test_fl_norm_homogeneous_excludes_dc(grid8):
    vals = np.zeros(grid8.spatial_shape, dtype=complex)
    vals[0, 0] = 3.0
    vals[1, 0] = 1.0
    f = SpatialField(grid8, vals, FREQUENCY)
    expected = 1.0 * grid8.spatial_freq_cell ** 0.5    # |xi| = 1 mode only
    assert fl_norm(f, 2, 1, homogeneous=True) == pytest.approx(expected, rel=1e-13)


def test_fl_norm_monotone_in_s(grid8):
    f = random_field(grid8, 3, spatial=True)
    v1 = fl_norm(f, 1.5, 0.5)
    v2 = fl_norm(f, 1.5, 1.5)
    assert v1 <= v2


def test_mixed_norm_constant_closed_form(grid8):
    c = 0.37
    u = SpaceTimeField(grid8, np.full(grid8.shape, c), PHYSICAL)
    q, rho = 4.0, 6.0
    expected = c * grid8.time_period ** (1 / q) * grid8.spatial_period ** (2 / rho)
    assert mixed_norm(u, q, rho) == pytest.approx(expected, rel=1e-13)
    # L-infinity realized as lattice max
    assert mixed_norm(u, math.inf, math.inf) == pytest.approx(c)


def test_mixed_norm_l2_case(grid8):
    u = random_field(grid8, 9, rep=PHYSICAL)
    direct = math.sqrt(float(np.sum(np.abs(u.values) ** 2)) * grid8.phys_cell)
    assert mixed_norm(u, 2, 2) == pytest.approx(direct, rel=1e-12)


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
    assert mixed_norm(u, q, rho) == pytest.approx(expected, rel=1e-10)


def test_norm_homogeneity_and_triangle(grid8):
    f = random_field(grid8, 11, spatial=True)
    g = random_field(grid8, 12, spatial=True)
    r, s = 1.6, 0.8
    c = -2.5 + 1.25j
    assert fl_norm(f.with_values(c * f.values), r, s) == pytest.approx(
        abs(c) * fl_norm(f, r, s), rel=1e-12)
    lhs = fl_norm(f.with_values(f.values + g.values), r, s)
    assert lhs <= fl_norm(f, r, s) + fl_norm(g, r, s) + 1e-12


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
    assert rep.aliased


def test_rescale_preserves_samples(grid16):
    f = _band_limited_field(grid16, 15)
    phys = to_physical(f)
    scaled = rescale_spatial(phys, 2)
    assert np.array_equal(scaled.values, phys.values)
    assert scaled.grid.spatial_period == pytest.approx(grid16.spatial_period / 2)
