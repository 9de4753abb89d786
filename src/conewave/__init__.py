"""conewave: numerical laboratory for cone-restricted bilinear interaction
estimates, exact dyadic exponent bookkeeping, and a pseudospectral local
solver for quadratic-derivative wave equations on periodic 1+2D grids."""

__version__ = "0.1.0"

import os

# The worker pool is the only parallelism: one BLAS/OpenMP thread per
# process.  Set before numpy loads its BLAS, which reads these once; a value
# already in the environment wins.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")
del _var

from .spectral_grid import (FREQUENCY, PHYSICAL, GridSpec, SpaceTimeField,
                            SpatialField, dyadic_restrict, is_dyadic, transform)
from .frequency_geometry import (AnnularCone, BallCone, Intersect, Reflect,
                                 Translate, VolumeEstimate, region_volume_mc)
from .norms import (LebesgueExponents, critical_exponent, fl_norm, mixed_norm,
                    scaling_law_check, sobolev_correspondence)
from .trilinear_forms import (AscentConfig, BallConeRegions,
                              ConstantMeasurement, best_constant, eval_J)
from .dyadic_ledger import (CASES, FeasibleInterval, InequalityCheck,
                            LedgerParams, Verdict, check_all, check_case,
                            feasible_b)
from .nlw_solver import (CauchyData, Nonlinearity, PicardReport, SolverConfig,
                         Trajectory, duhamel_apply, energy, existence_probe,
                         free_solution, nonlinearity_eval, picard_solve,
                         random_data, rk4_solve, wave_admissible)
from .experiments import ExperimentConfig, emit_results, load_config, run_experiment
