"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints one `[criterion N] PASS/FAIL ...` line (run with -s to see
them all); the assertions carry the same conditions.
"""

import csv
import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from conewave import (FREQUENCY, PHYSICAL, AscentConfig, BallConeRegions,
                      CauchyData, GridSpec, Nonlinearity, SolverConfig,
                      SpaceTimeField, SpatialField, best_constant,
                      critical_exponent, duhamel_apply, dyadic_restrict,
                      energy, eval_J, feasible_b, picard_solve, rk4_solve,
                      run_experiment, scaling_law_check,
                      sobolev_correspondence, wave_admissible)
from conewave._regression import fit_power_law
from conewave.frequency_geometry import HLH_EASY, HLH_HARD, VOLUME_EXPONENTS
from conewave.nlw_solver import free_trajectory, random_data
from conewave.norms import spatial_l2
from conewave.spectral_grid import dyadic_band_values

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {status}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# ---------------------------------------------------------------------------
# 1. exact feasibility region
# ---------------------------------------------------------------------------

def test_criterion_1_ledger_region():
    t0 = time.perf_counter()
    ok = True
    for i in range(1, 51):
        r = Fraction(3, 2) + Fraction(i, 100)
        boundary = Fraction(3, 2) / r
        ok &= feasible_b(r, boundary).empty
        ok &= feasible_b(r, boundary - Fraction(1, 10 ** 6)).empty
        ok &= not feasible_b(r, boundary + Fraction(1, 10 ** 6)).empty
    # endpoints: s > 7/4 at r = 2, s > 2 as r -> 3/2+
    ok &= feasible_b(2, Fraction(3, 4)).empty
    ok &= not feasible_b(2, Fraction(3, 4) + Fraction(1, 10 ** 9)).empty
    r_near = Fraction(3, 2) + Fraction(1, 10 ** 6)
    s_bound = Fraction(3, 2) / r_near + 1
    ok &= abs(s_bound - 2) < Fraction(1, 10 ** 5)
    ok &= feasible_b(r_near, s_bound - 1).empty
    ok &= not feasible_b(r_near, s_bound - 1 + Fraction(1, 10 ** 9)).empty
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    _report(1, ok, f"region boundary sigma > 3/(2r) exact on 50 rationals, "
                   f"endpoints s > 7/4 (r=2) and s -> 2 (r -> 3/2+); "
                   f"{elapsed * 1000:.0f} ms")


# ---------------------------------------------------------------------------
# 2. scaling correspondence and critical exponents
# ---------------------------------------------------------------------------

def test_criterion_2_sobolev_correspondence():
    ok = sobolev_correspondence(2, Fraction(3, 2), 2) == Fraction(5, 3)
    ok &= critical_exponent(Fraction(3, 2), 2, "grad_square") == Fraction(4, 3)
    ok &= critical_exponent(2, 2, "grad_square") == 1
    ok &= critical_exponent(2, 2, "deriv_of_square") == 0
    ok &= critical_exponent(Fraction(3, 2), 2, "deriv_of_square") == Fraction(1, 3)
    _report(2, ok, "(s=2, r=3/2, n=2) -> 5/3 exactly; critical exponents "
                   "n/r and n/r - 1 exact")


# ---------------------------------------------------------------------------
# 3. interaction-volume exponents
# ---------------------------------------------------------------------------

def _volume_exponent(tmp_path, case, seed, sweep):
    """Exponent of one `volumes` sweep at 1e6 samples per point, run and
    fitted by the experiment runner (point vi samples seed + vi)."""
    name = f"{case}_{seed}"
    path = tmp_path / f"{name}.ini"
    path.write_text(f"[experiment]\nkind = volumes\nseed = {seed}\n\n"
                    f"[params]\ncase = {case}\nsamples = 1000000\n\n"
                    f"[sweep.s]\n{sweep}\n", encoding="utf-8")
    assert run_experiment(path, workers=2, out_dir=tmp_path / name)["complete"]
    with open(tmp_path / name / "volume_fits.csv", encoding="utf-8") as fh:
        (fit,) = csv.DictReader(fh)
    return float(fit["exponent"])


def test_criterion_3_volume_exponents(tmp_path):
    hard = {
        "N1": _volume_exponent(tmp_path, HLH_HARD, 301,
                               "n1 = 8 16 32 64\nl1 = 1\nl2 = 1"),
        "L1": _volume_exponent(tmp_path, HLH_HARD, 302,
                               "n1 = 64\nl1 = 1 2 4 8\nl2 = 16"),
        "L2": _volume_exponent(tmp_path, HLH_HARD, 303,
                               "n1 = 64\nl1 = 2\nl2 = 4 8 16 32"),
    }
    easy = {
        "N1": _volume_exponent(tmp_path, HLH_EASY, 304, "n1 = 8 16 32 64\nl1 = 1"),
        "L1": _volume_exponent(tmp_path, HLH_EASY, 305, "n1 = 32\nl1 = 1 2 4 8"),
        "L2": _volume_exponent(tmp_path, HLH_EASY, 306,
                               "n1 = 16\nl1 = 2\nl2 = 64 128 256 512"),
    }
    targets_hard = {k: float(VOLUME_EXPONENTS[HLH_HARD][k]) for k in hard}
    targets_easy = {k: float(VOLUME_EXPONENTS[HLH_EASY][k]) for k in easy}
    ok = all(abs(hard[k] - targets_hard[k]) <= 0.15 for k in hard)
    ok &= all(abs(easy[k] - targets_easy[k]) <= 0.15 for k in easy)

    def triple(values, spec):
        return "(" + ", ".join(format(v, spec) for v in values.values()) + ")"

    _report(3, ok,
            f"hard (N1, Lmin, Lmax) = {triple(hard, '.3f')} vs "
            f"{triple(targets_hard, 'g')}; easy = {triple(easy, '.3f')} vs "
            f"{triple(targets_easy, 'g')}; tolerance 0.15, 1e6 samples/point")


# ---------------------------------------------------------------------------
# 4. restriction-constant exponents and sign independence
# ---------------------------------------------------------------------------

def _measure_constant(grid, N, L, signs, seed):
    regions = BallConeRegions(N=N, L=L, signs=signs)
    cfg = AscentConfig(restarts=4, max_iters=60, tol=1e-7, seed=seed)
    return best_constant(grid, regions.A0, regions.A1, regions.A2, 2, cfg)


def test_criterion_4_constant_exponents_and_signs():
    grid = GridSpec(nx=32, nt=64)
    plus, minus = [], []
    for i, L1 in enumerate((1, 2, 4, 8)):
        plus.append(_measure_constant(grid, (32, 8, 16), (L1, 8),
                                      (+1, +1, +1), 400 + i))
        minus.append(_measure_constant(grid, (32, 8, 16), (L1, 8),
                                       (+1, +1, -1), 410 + i))
    for i, N1 in enumerate((2, 4, 8)):
        plus.append(_measure_constant(grid, (32, N1, 16), (2, 2),
                                      (+1, +1, +1), 420 + i))
        minus.append(_measure_constant(grid, (32, N1, 16), (2, 2),
                                       (+1, +1, -1), 430 + i))
    exp_L1 = fit_power_law((1, 2, 4, 8),
                           [m.measured_C for m in plus[:4]]).exponent
    exp_N1 = fit_power_law((2, 4, 8), [m.measured_C for m in plus[4:]]).exponent
    ratios = [p.measured_C / m.measured_C for p, m in zip(plus, minus)]
    ok = abs(exp_L1 - 0.5) <= 0.2
    ok &= exp_N1 <= 0.75 + 0.2
    ok &= all(0.5 <= rho <= 2.0 for rho in ratios)
    _report(4, ok,
            f"L1 exponent {exp_L1:.3f} (target 1/2 +- 0.2), N1 exponent "
            f"{exp_N1:.3f} (at most 0.95); sign ratios (+,+,+)/(+,+,-) in "
            f"[{min(ratios):.3f}, {max(ratios):.3f}] within factor 2 at all "
            f"{len(ratios)} configurations")


# ---------------------------------------------------------------------------
# 5. trilinear form oracle
# ---------------------------------------------------------------------------

def test_criterion_5_trilinear_oracle():
    grid = GridSpec(nx=8, nt=8)
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        fields = [SpaceTimeField(
            grid, rng.standard_normal(grid.shape)
            + 1j * rng.standard_normal(grid.shape), FREQUENCY)
            for _ in range(3)]
        direct = eval_J(*fields, mode="direct")
        fast = eval_J(*fields, mode="fast")
        worst = max(worst, abs(fast - direct) / abs(direct))
    ok = worst <= 1e-10
    _report(5, ok, f"fast vs direct trilinear form on 8^3 fields, 100 seeds, "
                   f"worst relative difference {worst:.2e} <= 1e-10")


# ---------------------------------------------------------------------------
# 6. solver checks
# ---------------------------------------------------------------------------

def test_criterion_6_solver():
    grid = GridSpec(nx=16, nt=8)
    x = grid.x_axis
    x1, _ = np.meshgrid(x, x, indexing="ij")
    data = CauchyData(
        SpatialField(grid, 1e-3 * np.cos(x1), PHYSICAL),
        SpatialField(grid, np.zeros(grid.spatial_shape), PHYSICAL))
    kind = Nonlinearity("full_grad_square")
    cfg = SolverConfig(T=0.1, n_steps=64, picard_tol=1e-12, picard_max=25)
    traj, report = picard_solve(data, kind, cfg)
    oracle = rk4_solve(data, kind, cfg)
    diff = spatial_l2(traj.u[-1].with_values(
        traj.u[-1].values - oracle.u[-1].values))
    rel = diff / spatial_l2(oracle.u[-1])
    ok = report.converged and rel <= 1e-4

    # free-evolution energy drift over T = 1
    rdata = random_data(grid, s=1.75, r=2, seed=601, band_limit=5.0)
    free = free_trajectory(rdata, T=1.0, n_steps=64)
    energies = [energy(free.u[j], free.u_t[j]) for j in range(len(free))]
    drift = max(abs(e - energies[0]) for e in energies) / energies[0]
    ok &= drift <= 1e-10

    # Duhamel trapezoid O(dt^2) Richardson ratios
    omega = math.sqrt(5.0)
    errs = []
    for n_steps in (16, 32, 64):
        xg = grid.x_axis
        g1, g2 = np.meshgrid(xg, xg, indexing="ij")
        F = SpatialField(grid, np.cos(2 * g1 + g2), PHYSICAL)
        times = np.arange(n_steps + 1) / n_steps
        out = duhamel_apply(times, [F] * (n_steps + 1), n_steps)
        exact = (1 - math.cos(omega)) / omega ** 2 * np.cos(2 * g1 + g2)
        errs.append(np.abs(out.values - exact).max())
    duh_ratios = (errs[0] / errs[1], errs[1] / errs[2])
    ok &= all(abs(r / 4.0 - 1.0) <= 0.2 for r in duh_ratios)

    # RK4 O(dt^4) self-convergence Richardson ratios
    sdata = CauchyData(
        SpatialField(grid, 0.05 * np.cos(x1), PHYSICAL),
        SpatialField(grid, np.zeros(grid.spatial_shape), PHYSICAL))
    finals = {}
    for n_steps in (16, 32, 64, 128):
        c = SolverConfig(T=0.5, n_steps=n_steps, picard_tol=1e-10, picard_max=5)
        finals[n_steps] = rk4_solve(sdata, kind, c).u[-1]
    e1 = spatial_l2(finals[16].with_values(finals[16].values - finals[32].values))
    e2 = spatial_l2(finals[32].with_values(finals[32].values - finals[64].values))
    e3 = spatial_l2(finals[64].with_values(finals[64].values - finals[128].values))
    rk_ratios = (e1 / e2, e2 / e3)
    ok &= all(abs(r / 16.0 - 1.0) <= 0.2 for r in rk_ratios)

    _report(6, ok,
            f"picard-vs-rk4 rel l2 {rel:.2e} <= 1e-4; energy drift "
            f"{drift:.2e} <= 1e-10; Duhamel Richardson ratios "
            f"{duh_ratios[0]:.2f}, {duh_ratios[1]:.2f} ~ 4; RK4 ratios "
            f"{rk_ratios[0]:.1f}, {rk_ratios[1]:.1f} ~ 16 (+-20%)")


# ---------------------------------------------------------------------------
# 7. scaling law
# ---------------------------------------------------------------------------

def test_criterion_7_scaling_law():
    grid = GridSpec(nx=32, nt=8)
    rng = np.random.default_rng(701)
    vals = np.zeros(grid.spatial_shape, dtype=complex)
    for k1 in range(-5, 6):
        for k2 in range(-5, 6):
            if (k1, k2) != (0, 0):
                vals[k1, k2] = rng.standard_normal() + 1j * rng.standard_normal()
    f = SpatialField(grid, vals, FREQUENCY)
    worst = 0.0
    for lam in (2, 4):
        for s, r in ((7.0 / 4.0, 2), (2.0, 1.5)):
            rep = scaling_law_check(f, s=s, r=r, lam=lam)
            assert not rep.aliased
            worst = max(worst, rep.rel_error)
    ok = worst <= 1e-12
    _report(7, ok, f"|u_lam|/|u| = lam^(s - 2/r) for lam in {{2, 4}}, "
                   f"(s, r) in {{(7/4, 2), (2, 3/2)}}; worst relative error "
                   f"{worst:.2e} <= 1e-12")


# ---------------------------------------------------------------------------
# 8. dispersive ratio trend and admissibility
# ---------------------------------------------------------------------------

def test_criterion_8_strichartz_slope(tmp_path):
    path = tmp_path / "strichartz.ini"
    path.write_text("[experiment]\nkind = strichartz\nseed = 801\n\n"
                    "[params]\nensemble = 8\nq_t = 4\n"
                    "resolutions = 32 64 128 256\nnt = 64\n", encoding="utf-8")
    assert run_experiment(path, workers=2, out_dir=tmp_path / "out")["complete"]
    with open(tmp_path / "out" / "slope.csv", encoding="utf-8") as fh:
        (row,) = csv.DictReader(fh)
    slope = float(row["slope"])
    ok = abs(slope) <= 0.1
    ok &= wave_admissible(6, 6, n=2)
    ok &= not wave_admissible(4, math.inf, n=2)
    _report(8, ok, f"median log-ratio slope {slope:+.4f} within +-0.1 "
                   f"over the 32->256 ladder; (6,6) admissible, (4,inf) not")


# ---------------------------------------------------------------------------
# 9. partition identities
# ---------------------------------------------------------------------------

def test_criterion_9_partition_identities():
    grid = GridSpec(nx=16, nt=16)
    worst_n = 0.0
    worst_l = 0.0
    p = 2.0
    for seed in range(5):
        rng = np.random.default_rng(900 + seed)
        fld = SpaceTimeField(grid, rng.standard_normal(grid.shape)
                             + 1j * rng.standard_normal(grid.shape), FREQUENCY)
        total = np.sum(np.abs(fld.values) ** p)
        n_sum = sum(np.sum(np.abs(dyadic_restrict(fld, N).values) ** p)
                    for N in dyadic_band_values(grid))
        worst_n = max(worst_n, abs(n_sum - total) / total)
        for N in dyadic_band_values(grid):
            band_total = np.sum(np.abs(dyadic_restrict(fld, N).values) ** p)
            if band_total == 0:
                continue
            signed = sum(
                np.sum(np.abs(dyadic_restrict(fld, N, L, sign).values) ** p)
                for L in dyadic_band_values(grid, L_bands=True)
                for sign in (+1, -1))
            worst_l = max(worst_l, abs(signed - band_total) / band_total)
    ok = worst_n <= 1e-12 and worst_l <= 1e-12
    _report(9, ok, f"sum_N |F^N|^p = |F|^p (worst {worst_n:.2e}) and signed "
                   f"L-band partition (worst {worst_l:.2e}) at 1e-12 on "
                   f"random fields")


# ---------------------------------------------------------------------------
# 10. CLI determinism
# ---------------------------------------------------------------------------

def test_criterion_10_cli_determinism(tmp_path):
    smoke = {
        "ledger": """
[experiment]
kind = ledger
seed = 10
[params]
r_count = 10
s_offsets = -1/100 1/100
""",
        "volumes": """
[experiment]
kind = volumes
seed = 10
[params]
case = HLH_easy
samples = 20000
[sweep.l1]
n1 = 16
l1 = 1 2 4
""",
        "constants": """
[experiment]
kind = constants
seed = 10
[grid]
nx = 8
nt = 16
[regions]
signs = + + +
[ascent]
r = 2
restarts = 2
max_iters = 20
tol = 1e-6
[sweep.l1]
n0 = 8
n1 = 2
n2 = 4
l1 = 1 2
l2 = 2
""",
        "solve": """
[experiment]
kind = solve
seed = 10
[grid]
nx = 8
nt = 8
[params]
amplitude = 1e-3
t_final = 0.1
n_steps = 16
picard_max = 10
""",
        "scaling": """
[experiment]
kind = scaling
seed = 10
[grid]
nx = 16
[params]
s = 7/4
r = 2
lambda = 2
band_limit = 3
""",
        "strichartz": """
[experiment]
kind = strichartz
seed = 10
[params]
ensemble = 2
q_t = 4
resolutions = 16 32
nt = 16
""",
    }
    ok = True
    details = []
    for kind, text in smoke.items():
        cfg_path = tmp_path / f"{kind}.ini"
        cfg_path.write_text(text, encoding="utf-8")
        outs = []
        for run, workers in (("a", 1), ("b", 4)):
            out_dir = tmp_path / kind / run
            manifest = run_experiment(cfg_path, workers=workers,
                                      out_dir=out_dir)
            assert manifest["complete"], (kind, manifest["errors"])
            payload = {}
            for entry in manifest["files"]:
                payload[entry["name"]] = (out_dir / entry["name"]).read_bytes()
            outs.append(payload)
        same = outs[0] == outs[1]
        ok &= same
        details.append(f"{kind}:{'=' if same else '!'}")
    _report(10, ok, "byte-identical numeric payloads across reruns and "
                    "worker counts 1 vs 4 for all kinds "
                    f"({', '.join(details)})")
