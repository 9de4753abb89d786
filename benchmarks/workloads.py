"""The benchmark's four workloads, their operations and their output checks.

An operation is one ``run_experiment`` call on a shipped config, or one
probe call.  Its outcome is checked after the timed pass: the operation
fails if it raised, if its manifest is incomplete, or if a check fails.
Checks use the acceptance suite's tolerances and hold at any seed.  At seed
offset 0 (every config at its own seed) numeric cells are also compared with
the reference tables in ``reference/``, within the tolerances in TOLERANCES.

The benchmark seed is an offset: experiment seed = config seed + seed, so
``--seed 0`` runs the shipped configs exactly as shipped.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

from conewave import experiments, nlw_solver
from conewave.nlw_solver import CauchyData, Nonlinearity, SolverConfig
from conewave.spectral_grid import PHYSICAL, GridSpec, SpatialField

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "ascent": ("constants",),
    "picard": ("solve", "existence_probe"),
    "dispersive": ("strichartz",),
    "volumes": ("volumes_easy", "volumes_hard", "ledger", "scaling"),
}

PROBE = "existence_probe"
PROBE_AMPLITUDES = tuple(0.25 * 4.0 ** k for k in range(6))   # 0.25 ... 256
PROBE_SOLVER = dict(T=0.5, n_steps=24, picard_tol=1e-8, picard_max=30)
PROBE_BISECT_STEPS = 4

EXPECTED_FILES = {
    "constants": ("constants.csv", "constant_fits.csv"),
    "solve": ("trajectory.csv", "summary.csv"),
    "strichartz": ("ratios.csv", "medians.csv", "slope.csv"),
    "volumes": ("volumes.csv", "volume_fits.csv"),
    "ledger": ("ledger.csv",),
    "scaling": ("scaling.csv",),
}

# Reference comparison per table: column -> (rtol, atol), or SKIP.  Columns
# not listed must match exactly.  volumes.csv is exact: volume is
# box * hits / samples, so an exact volume is an exact Monte Carlo hit count.
SKIP = None
TOLERANCES = {
    "ledger.csv": {},
    "volumes.csv": {},
    "volume_fits.csv": {"exponent": (1e-9, 1e-12), "intercept": (1e-9, 1e-12),
                        "r_squared": (1e-9, 1e-12)},
    # ascent stops at relative change 1e-5, so a reordered kernel may take
    # one more or fewer sweep; the constant itself moves far less than 1e-4
    "constants.csv": {"measured_C": (1e-4, 0.0), "iterations": SKIP},
    "constant_fits.csv": {"exponent": (0.0, 1e-3), "intercept": (0.0, 1e-3),
                          "r_squared": (0.0, 1e-4)},
    "trajectory.csv": {c: (1e-9, 1e-15) for c in (
        "t", "picard_l2_u", "picard_l2_ut", "picard_energy", "rk4_l2_u",
        "rk4_energy", "abs_diff_l2")},
    "summary.csv": {"final_residual": (0.0, 1e-12)},
    "scaling.csv": {"ratio": (1e-12, 0.0), "predicted": (1e-12, 0.0),
                    "rel_error": (0.0, 1e-12)},
    "ratios.csv": {"ratio": (1e-9, 0.0)},
    "medians.csv": {"median_ratio": (1e-9, 0.0)},
    "slope.csv": {"slope": (0.0, 1e-9)},
    PROBE: {"threshold": (1e-12, 0.0)},
}

VOLUME_TARGETS = {"HLH_easy": {"N1": 2.0, "L1": 1.0, "L2": 0.0},
                  "HLH_hard": {"N1": 1.5, "L1": 1.0, "L2": 0.5}}


@dataclass(frozen=True)
class Operation:
    name: str
    execute: Callable      # (out_dir, seed, workers) -> outcome
    check: Callable        # (outcome, out_dir, seed) -> list of problems


def config_paths(workload, root):
    return [root / "configs" / f"{name}.ini"
            for name in WORKLOADS[workload] if name != PROBE]


def operations(workload, root):
    """The workload's operations, in pass order, on its loaded configs."""
    configs = {Path(p).stem: experiments.load_config(p)
               for p in config_paths(workload, root)}
    ops = []
    for name in WORKLOADS[workload]:
        if name == PROBE:
            ops.append(probe_operation(configs["solve"]))
        else:
            ops.append(experiment_operation(name, configs[name]))
    return ops


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def experiment_operation(name, config):
    def execute(out, seed, workers):
        # looked up at call time so that the traced run sees its wrapper
        return experiments.run_experiment(config, workers=workers, out_dir=out,
                                          seed=config.seed + seed)

    def check(manifest, out, seed):
        problems = manifest_problems(manifest, EXPECTED_FILES[config.kind])
        if problems:
            return problems
        problems = CHECKS[config.kind](out)
        if seed == 0:
            problems += compare_reference(out, REFERENCE_DIR / name,
                                          EXPECTED_FILES[config.kind])
        return problems

    return Operation(name, execute, check)


def probe_datum(solve_config):
    """The solve config's single-mode datum cos(k.x) at unit amplitude."""
    grid_sec = solve_config.section("grid")
    grid = GridSpec(nx=int(grid_sec["nx"]), nt=int(grid_sec["nt"]),
                    spatial_period=2 * math.pi, time_period=2 * math.pi)
    k1, k2 = (int(v) for v in solve_config.section("params")["mode"].split())
    x1, x2 = np.meshgrid(grid.x_axis, grid.x_axis, indexing="ij")
    f = np.cos(k1 * x1 + k2 * x2)
    return CauchyData(SpatialField(grid, f, PHYSICAL),
                      SpatialField(grid, np.zeros_like(f), PHYSICAL))


def probe_operation(solve_config):
    """Existence-threshold probe; deterministic, so the seed does not enter."""
    datum = probe_datum(solve_config)
    kind = Nonlinearity(solve_config.section("params")["nonlinearity"])
    solver = SolverConfig(**PROBE_SOLVER)

    def execute(out, seed, workers):
        return nlw_solver.existence_probe(datum, kind, solver, PROBE_AMPLITUDES,
                                          bisect_steps=PROBE_BISECT_STEPS)

    def check(probe, out, seed):
        problems = []
        if not probe.records[0]["converged"]:
            problems.append("lowest amplitude did not converge")
        if probe.records[-1]["converged"]:
            problems.append("highest amplitude converged")
        reference = json.loads((REFERENCE_DIR / f"{PROBE}.json").read_text())
        return problems + compare_rows(probe_rows(probe), reference,
                                       TOLERANCES[PROBE])

    return Operation(PROBE, execute, check)


def probe_rows(probe):
    """The probe's convergence table and threshold, one row per amplitude;
    the final residual is left out, being round-off once converged."""
    return [{"amplitude": rec["amplitude"], "converged": rec["converged"],
             "iterations": rec["iterations"], "threshold": probe.threshold}
            for rec in probe.records]


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def manifest_problems(manifest, expected):
    if not manifest.get("complete"):
        return [f"incomplete manifest: {manifest.get('errors')}"]
    written = {f["name"] for f in manifest.get("files", ())}
    missing = sorted(set(expected) - written)
    return [f"missing output {name}" for name in missing]


def check_constants(out):
    # Convergence within max_iters is seed-dependent on the flat-ridge point
    # n1 = 2 (it runs out at seed 9), so it is enforced only at the config's
    # own seed, through the reference table's converged column.
    rows = read_csv(out / "constants.csv")
    problems = [f"row {i} degenerate" for i, r in enumerate(rows)
                if r["degenerate"] != "false"]
    fits = {r["sweep"]: float(r["exponent"])
            for r in read_csv(out / "constant_fits.csv")}
    l1, n1 = fits.get("l1:base", math.nan), fits.get("n1:base", math.nan)
    if not abs(l1 - 0.5) <= 0.2:
        problems.append(f"l1 slope {l1} outside 0.5 +- 0.2")
    if not n1 <= 0.95:
        problems.append(f"n1 slope {n1} above 0.95")
    point = ("N0", "N1", "N2", "L1", "L2")
    by_point = {}
    for r in rows:
        sweep, signs = r["sweep"].split(":")
        by_point.setdefault((sweep,) + tuple(r[k] for k in point), {})[signs] = \
            float(r["measured_C"])
    for key, pair in by_point.items():
        ratio = pair.get("base", math.nan) / pair.get("alt", math.nan)
        if not 0.5 <= ratio <= 2.0:
            problems.append(f"sign ratio {ratio} at {key} outside [0.5, 2]")
    return problems


def check_solve(out):
    summary = read_csv(out / "summary.csv")[0]
    problems = [] if summary["converged"] == "true" else ["Picard did not converge"]
    final = read_csv(out / "trajectory.csv")[-1]
    rel = float(final["abs_diff_l2"]) / float(final["rk4_l2_u"])
    if not rel <= 1e-4:
        problems.append(f"Picard vs RK4 relative L2 difference {rel} above 1e-4")
    return problems


def check_strichartz(out):
    slope = float(read_csv(out / "slope.csv")[0]["slope"])
    return [] if abs(slope) <= 0.1 else [f"|slope| {abs(slope)} above 0.1"]


def check_volumes(out):
    fits = read_csv(out / "volume_fits.csv")
    case = fits[0]["case"] if fits else None
    targets = VOLUME_TARGETS.get(case)
    if targets is None:
        return [f"unexpected volume case {case!r}"]
    got = {r["axis"]: float(r["exponent"]) for r in fits}
    problems = []
    for axis, target in targets.items():
        value = got.get(axis, math.nan)
        if not abs(value - target) <= 0.15:
            problems.append(f"{case} {axis} exponent {value} not within 0.15 of {target}")
    return problems


def check_ledger(out):
    problems = []
    for r in read_csv(out / "ledger.csv"):
        feasible = Fraction(r["s"]) > Fraction(3, 2) / Fraction(r["r"]) + 1
        if (r["feasible"] == "true") != feasible:
            problems.append(f"ledger r={r['r']} s={r['s']} feasible={r['feasible']}")
    return problems


def check_scaling(out):
    return [f"scaling rel_error {r['rel_error']} above 1e-12"
            for r in read_csv(out / "scaling.csv")
            if not float(r["rel_error"]) <= 1e-12]


CHECKS = {
    "constants": check_constants,
    "solve": check_solve,
    "strichartz": check_strichartz,
    "volumes": check_volumes,
    "ledger": check_ledger,
    "scaling": check_scaling,
}


# ---------------------------------------------------------------------------
# reference comparison
# ---------------------------------------------------------------------------

def compare_reference(out, reference_dir, files):
    problems = []
    for name in files:
        problems += [f"{name} {p}" for p in compare_rows(
            read_csv(out / name), read_csv(reference_dir / name), TOLERANCES[name])]
    return problems


def compare_rows(rows, reference, tolerances):
    if len(rows) != len(reference):
        return [f"has {len(rows)} rows, reference {len(reference)}"]
    problems = []
    for i, (row, ref) in enumerate(zip(rows, reference)):
        if set(row) != set(ref):
            problems.append(f"row {i} columns {sorted(row)} differ from reference")
            continue
        for col, want in ref.items():
            got = row[col]
            if col not in tolerances:
                ok = got == want
            elif tolerances[col] is SKIP:
                continue
            else:
                rtol, atol = tolerances[col]
                ok = abs(float(got) - float(want)) <= atol + rtol * abs(float(want))
            if not ok:
                problems.append(f"row {i} {col} = {got}, reference {want}")
    return problems
