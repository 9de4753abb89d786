"""Per-call microbenchmarks of the layer kernels, through public entry points.

Each predicts the wall time of the workload that owns it: objective_value and
region_mask for ascent, the 16^2 Duhamel slice for picard, the 256^2
transform and free_solution for dispersive, one Monte Carlo chunk for
volumes.  Inputs come from the benchmark seed; each figure is the median of
repeated calls.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

from conewave import frequency_geometry, nlw_solver, spectral_grid, trilinear_forms
from conewave.spectral_grid import PHYSICAL, GridSpec, SpaceTimeField, SpatialField
from conewave.trilinear_forms import BallConeRegions

MIN_CALLS = 5
MIN_SECONDS = 0.3
MC_CHUNK = 1 << 18


def call_time(fn):
    """Median seconds per call over at least MIN_CALLS calls and MIN_SECONDS."""
    times = []
    start = time.perf_counter()
    while len(times) < MIN_CALLS or time.perf_counter() - start < MIN_SECONDS:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _grid(nx, nt):
    return GridSpec(nx=nx, nt=nt, spatial_period=2 * math.pi,
                    time_period=2 * math.pi)


def micro_benchmarks(seed):
    """metric name -> median seconds per call."""
    rng = np.random.default_rng(seed)
    lattice = _grid(32, 64)                      # the 64 x 32 x 32 ascent lattice
    plane = _grid(256, 8)
    small = _grid(16, 8)

    triple = [rng.random(lattice.shape) for _ in range(3)]
    cube = SpaceTimeField(lattice, rng.standard_normal(lattice.shape), PHYSICAL)
    sheet = SpatialField(plane, rng.standard_normal(plane.spatial_shape), PHYSICAL)
    times = 0.5 * np.arange(25) / 24
    forces = [SpatialField(small, rng.standard_normal(small.spatial_shape), PHYSICAL)
              for _ in times]
    data = nlw_solver.random_data(plane, s=1.75, r=2, seed=seed,
                                  band_limit=0.4 * 32 * plane.d_xi)
    volume = frequency_geometry.volume_case_config("HLH_hard")
    region = BallConeRegions(N=(32, 8, 16), L=(2, 8), signs=(1, 1, 1)).A1

    return {
        "trilinear_forms.objective_value.call_s": call_time(
            lambda: trilinear_forms.objective_value(lattice, triple)),
        "spectral_grid.transform.call_s_256x256": call_time(
            lambda: spectral_grid.transform(sheet, "forward")),
        "spectral_grid.transform.call_s_64x32x32": call_time(
            lambda: spectral_grid.transform(cube, "forward")),
        "nlw_solver.duhamel_apply.call_s": call_time(
            lambda: nlw_solver.duhamel_apply(times, forces, len(times) - 1)),
        "nlw_solver.free_solution.call_s": call_time(
            lambda: nlw_solver.free_solution(data, 0.3)),
        "frequency_geometry.region_volume_mc.call_s": call_time(
            lambda: frequency_geometry.region_volume_mc(
                volume["region"], volume["box"], MC_CHUNK, seed)),
        "spectral_grid.region_mask.call_s": call_time(
            lambda: spectral_grid.region_mask(lattice, region)),
    }
