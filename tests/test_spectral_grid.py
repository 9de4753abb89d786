import numpy as np
import pytest

from conewave import (FREQUENCY, PHYSICAL, GridSpec, SpaceTimeField,
                      SpatialField, dyadic_restrict, spectral_grid, transform)
from conewave.frequency_geometry import BallCone
from conewave.spectral_grid import (dyadic_band_values, region_mask,
                                    to_frequency, to_physical)

from conftest import random_field


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(nx=12, nt=8, spatial_period=1.0, time_period=1.0)
    with pytest.raises(ValueError):
        GridSpec(nx=8, nt=4, spatial_period=1.0, time_period=1.0)
    with pytest.raises(ValueError):
        GridSpec(nx=8, nt=8, spatial_period=-1.0, time_period=1.0)


def test_grid_periods_default_to_two_pi():
    assert GridSpec(nx=8, nt=8) == GridSpec(nx=8, nt=8, spatial_period=2 * np.pi,
                                            time_period=2 * np.pi)


def test_xi_magnitude_is_one_read_only_array_per_lattice():
    grid = GridSpec(nx=32, nt=8)
    mag = grid.xi_magnitude()
    x1, x2 = grid.spatial_frequency_mesh()
    assert not mag.flags.writeable
    assert mag.dtype == np.float64 and mag.shape == grid.spatial_shape
    assert np.array_equal(mag, np.sqrt(x1 ** 2 + x2 ** 2))
    # nt and the time period do not enter |xi|
    for other in (GridSpec(nx=32, nt=64), GridSpec(nx=32, nt=8, time_period=1.0)):
        assert other.xi_magnitude() is mag
    # another lattice replaces the one cached entry
    half = GridSpec(nx=32, nt=8, spatial_period=np.pi).xi_magnitude()
    assert np.array_equal(half, 2 * mag)
    assert len(spectral_grid._XI_MAGNITUDE) == 1
    assert grid.xi_magnitude() is not mag


def test_frequency_lattice_symmetric(grid8):
    # every frequency except Nyquist has its negative on the lattice
    ax = grid8.xi_axis
    for v in ax:
        if abs(v) < max(abs(ax)):
            assert np.any(np.isclose(ax, -v))


def test_constant_field_transforms_to_dc(grid8):
    fld = SpaceTimeField(grid8, np.ones(grid8.shape), PHYSICAL)
    hat = transform(fld, "forward")
    nonzero = np.argwhere(np.abs(hat.values) > 1e-12)
    assert nonzero.shape == (1, 3)
    assert tuple(nonzero[0]) == (0, 0, 0)


def test_round_trip_identity(grid8):
    fld = random_field(grid8, 0, rep=PHYSICAL)
    back = transform(transform(fld, "forward"), "inverse")
    err = np.abs(back.values - fld.values).max() / np.abs(fld.values).max()
    assert err < 1e-12


def test_rep_mismatch_rejected(grid8):
    fld = random_field(grid8, 1, rep=PHYSICAL)
    with pytest.raises(ValueError):
        transform(fld, "inverse")
    with pytest.raises(ValueError):
        transform(transform(fld, "forward"), "forward")


def test_shifted_delta_against_direct_dft_oracle(grid8):
    # delta at a lattice point versus the literal DFT sum, on the full 8^3 grid
    vals = np.zeros(grid8.shape)
    loc = (3, 1, 5)
    vals[loc] = 1.0
    hat = transform(SpaceTimeField(grid8, vals, PHYSICAL), "forward")

    nt, nx, _ = grid8.shape
    jt = np.arange(nt)[:, None, None]
    ja = np.arange(nx)[None, :, None]
    jb = np.arange(nx)[None, None, :]
    phase = np.exp(-2j * np.pi * (jt * loc[0] / nt + ja * loc[1] / nx
                                  + jb * loc[2] / nx))
    oracle = phase * grid8.phys_cell / (2 * np.pi) ** 1.5
    assert np.abs(hat.values - oracle).max() <= 1e-12 * np.abs(oracle).max()


def test_transform_preserves_weighted_l2(grid8):
    fld = random_field(grid8, 2, rep=PHYSICAL)
    hat = transform(fld, "forward")
    phys = np.sum(np.abs(fld.values) ** 2) * grid8.phys_cell
    freq = np.sum(np.abs(hat.values) ** 2) * grid8.freq_cell
    assert abs(phys - freq) <= 1e-12 * phys


def test_big_L_cone_equals_halfspace_ball(grid8):
    # pointwise predicate enumeration: when L covers twice the tau range the
    # cone constraint is vacuous and only the half space and ball survive
    tau_range = float(np.abs(grid8.tau_axis).max())
    L = 1
    while L < 2 * 2 * tau_range:
        L *= 2
    N = 4
    tau, x1, x2 = grid8.frequency_mesh()
    expect_mask = (tau >= 0) & (np.sqrt(x1 ** 2 + x2 ** 2) <= N)
    assert np.array_equal(region_mask(grid8, BallCone(+1, N, L)),
                          np.broadcast_to(expect_mask, grid8.shape))


def test_dyadic_restrict_rejects_non_dyadic(grid8):
    fld = random_field(grid8, 7)
    for bad in (3, 0, -2, 2.5):
        with pytest.raises(ValueError):
            dyadic_restrict(fld, bad)
    with pytest.raises(ValueError):
        dyadic_restrict(fld, 2, L=5)


def test_band_of_small_frequency(grid8):
    # a mode at xi = (1, 1) has <xi> = sqrt(3) ~ 1.7, so only the N = 1 band
    # [1, 2) is nonzero
    vals = np.zeros(grid8.shape, dtype=complex)
    vals[0, 1, 1] = 1.0
    fld = SpaceTimeField(grid8, vals, FREQUENCY)
    for N in dyadic_band_values(grid8):
        band = dyadic_restrict(fld, N)
        if N == 1:
            assert np.abs(band.values).max() == 1.0
        else:
            assert np.abs(band.values).max() == 0.0


def test_dyadic_bands_partition_lp(grid8):
    # sum over N of |F^N|_p^p equals |F|_p^p exactly (sharp disjoint bands)
    fld = random_field(grid8, 8)
    p = 1.7
    total = np.sum(np.abs(fld.values) ** p)
    parts = sum(np.sum(np.abs(dyadic_restrict(fld, N).values) ** p)
                for N in dyadic_band_values(grid8))
    assert abs(total - parts) <= 1e-12 * total

    # bands are pairwise disjoint and exhaustive on the lattice
    cover = np.zeros(grid8.shape, dtype=int)
    ones = fld.with_values(np.ones(grid8.shape))
    for N in dyadic_band_values(grid8):
        cover += (np.abs(dyadic_restrict(ones, N).values) > 0).astype(int)
    assert np.array_equal(cover, np.ones(grid8.shape, dtype=int))


def test_signed_modulation_bands_partition(grid8):
    # sum over L and both signs recovers |F^N|^p with tau = 0 assigned to "+"
    fld = random_field(grid8, 9)
    p = 2.0
    for N in dyadic_band_values(grid8):
        band = dyadic_restrict(fld, N)
        total = np.sum(np.abs(band.values) ** p)
        if total == 0:
            continue
        parts = 0.0
        for L in dyadic_band_values(grid8, L_bands=True):
            for sign in (+1, -1):
                parts += np.sum(np.abs(dyadic_restrict(fld, N, L, sign).values) ** p)
        assert abs(total - parts) <= 1e-12 * max(total, 1.0)


def test_fields_immutable(grid8):
    fld = random_field(grid8, 10)
    with pytest.raises(ValueError):
        fld.values[0, 0, 0] = 1.0


def test_spatial_round_trip(grid8):
    fld = random_field(grid8, 11, rep=PHYSICAL, spatial=True)
    back = to_physical(to_frequency(fld))
    assert np.abs(back.values - fld.values).max() <= 1e-12 * np.abs(fld.values).max()


def test_field_classes_stay_apart(grid8):
    # the two classes share one body; neither is an instance of the other,
    # each checks its own lattice shape and with_values keeps the class
    cube = random_field(grid8, 12)
    sheet = random_field(grid8, 13, spatial=True)
    assert not isinstance(sheet, SpaceTimeField)
    assert not isinstance(cube, SpatialField)
    with pytest.raises(ValueError):
        SpaceTimeField(grid8, sheet.values, FREQUENCY)
    with pytest.raises(ValueError):
        SpatialField(grid8, cube.values, FREQUENCY)
    assert type(cube.with_values(cube.values, PHYSICAL)) is SpaceTimeField
    assert type(sheet.with_values(sheet.values)) is SpatialField
    assert type(transform(sheet, "inverse")) is SpatialField
