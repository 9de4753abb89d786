import csv
import json
import math
import multiprocessing
import os
import platform
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import conewave
from conewave import (ConstantMeasurement, GridSpec, Nonlinearity,
                      SolverConfig, emit_results, energy, experiments,
                      load_config, picard_solve, random_data, rk4_solve,
                      run_experiment)
from conewave._regression import fit_power_law
from conewave.cli import main as cli_main
from conewave.experiments import (ConfigError, ExperimentConfig, format_cell,
                                  resolve_workers)
from conewave.frequency_geometry import (HLH_HARD, region_volume_mc,
                                         volume_case_config)
from conewave.norms import spatial_l2

from conftest import DEALIASED

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SRC_DIR = CONFIG_DIR.parent / "src"


def read_csv(path):
    """The rows of a result CSV, as dicts keyed by its header."""
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def write_config(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_missing_seed_rejected(tmp_path):
    path = write_config(tmp_path, "[experiment]\nkind = ledger\n")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert err.value.key == "seed"


def test_unknown_kind_rejected_with_line(tmp_path):
    path = write_config(tmp_path, "[experiment]\nkind = frobnicate\nseed = 1\n")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert err.value.key == "kind"
    assert err.value.line == 2


def test_empty_sweep_list_rejected(tmp_path):
    path = write_config(tmp_path, """
[experiment]
kind = constants
seed = 1

[sweep.one]
n0 = 16
n1 =
n2 = 8
l1 = 1
l2 = 1
""")
    with pytest.raises(ConfigError):
        run_experiment(path, workers=1, out_dir=tmp_path / "out")


def test_rational_values_parse_exactly(tmp_path):
    path = write_config(tmp_path, """
[experiment]
kind = ledger
seed = 1

[params]
r_min = 3/2
r_max = 7/4
r_count = 1
s_offsets = 323/2800
""")
    cfg = load_config(path)
    assert cfg.kind == "ledger" and cfg.seed == 1
    manifest = run_experiment(cfg, workers=1, out_dir=tmp_path / "out")
    assert manifest["complete"]
    rows = read_csv(tmp_path / "out" / "ledger.csv")
    assert rows[0]["r"] == "7/4"
    assert rows[0]["s"] == "789/400"
    assert rows[0]["feasible"] == "true"


# ---------------------------------------------------------------------------
# emit_results
# ---------------------------------------------------------------------------

def test_emit_empty_records_header_only(tmp_path):
    out = emit_results([], tmp_path / "empty.csv", ["a", "b"])
    assert out.read_text() == "a,b\n"
    with pytest.raises(ValueError):
        emit_results([], tmp_path / "e2.csv")


def test_emit_rejects_mixed_schemas(tmp_path):
    with pytest.raises(ValueError):
        emit_results([{"a": 1}, {"b": 2}], tmp_path / "bad.csv")


def test_csv_floats_round_trip_exactly(tmp_path):
    values = [math.pi, 1.0 / 3.0, 6.02e23, 1e-300, -0.1]
    recs = [{"x": v} for v in values]
    out = emit_results(recs, tmp_path / "f.csv")
    rows = read_csv(out)
    for rec, row in zip(recs, rows):
        assert float(row["x"]) == rec["x"]


def test_format_cell_booleans_and_fractions():
    assert format_cell(True) == "true"
    assert format_cell(Fraction(10, 4)) == "5/2"
    assert format_cell(None) == ""
    assert format_cell(7) == "7"


# ---------------------------------------------------------------------------
# the shipped ledger experiment
# ---------------------------------------------------------------------------

def test_ledger_experiment_region_boundary(tmp_path):
    manifest = run_experiment(CONFIG_DIR / "ledger.ini", workers=1,
                              out_dir=tmp_path / "out")
    assert manifest["complete"]
    rows = read_csv(tmp_path / "out" / "ledger.csv")
    # 50 r-values, three s-offsets each
    assert len(rows) == 150
    for row in rows:
        r = Fraction(row["r"])
        s = Fraction(row["s"])
        expected = s - 1 > Fraction(3, 2) / r
        assert (row["feasible"] == "true") == expected
        if row["feasible"] == "true":
            assert Fraction(row["b_lo"]) < Fraction(row["b_hi"])


def test_manifest_lists_all_files_with_checksums(tmp_path):
    manifest = run_experiment(CONFIG_DIR / "ledger.ini", workers=1,
                              out_dir=tmp_path / "out")
    names = {f["name"] for f in manifest["files"]}
    assert names == {"ledger.csv"}
    for entry in manifest["files"]:
        assert len(entry["sha256"]) == 64
        assert entry["bytes"] > 0
    assert (tmp_path / "out" / "manifest.json").exists()


def test_manifest_records_environment(tmp_path):
    run_experiment(CONFIG_DIR / "ledger.ini", workers=2, out_dir=tmp_path / "out")
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    env = manifest["environment"]
    assert set(env) == {"python", "numpy", "cpu_affinity"}
    assert env["python"] == platform.python_version()
    assert env["numpy"] == np.__version__
    assert isinstance(env["cpu_affinity"], int) and env["cpu_affinity"] >= 1
    assert manifest["workers"] == 2


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def _volumes_smoke_config(tmp_path, seed=9):
    return write_config(tmp_path, f"""
[experiment]
kind = volumes
seed = {seed}

[params]
case = HLH_easy
samples = 20000

[sweep.l1]
n1 = 16
l1 = 1 2 4 8
""")


def test_rerun_byte_identical(tmp_path):
    cfg = _volumes_smoke_config(tmp_path)
    run_experiment(cfg, workers=1, out_dir=tmp_path / "a")
    run_experiment(cfg, workers=1, out_dir=tmp_path / "b")
    a = (tmp_path / "a" / "volumes.csv").read_bytes()
    b = (tmp_path / "b" / "volumes.csv").read_bytes()
    assert a == b


def test_worker_count_does_not_change_output(tmp_path):
    cfg = _volumes_smoke_config(tmp_path)
    run_experiment(cfg, workers=1, out_dir=tmp_path / "w1")
    run_experiment(cfg, workers=3, out_dir=tmp_path / "w3")
    for name in ("volumes.csv", "volume_fits.csv"):
        assert ((tmp_path / "w1" / name).read_bytes()
                == (tmp_path / "w3" / name).read_bytes())
    checksums = []
    for workers in (1, 3):
        manifest = run_experiment(CONFIG_DIR / "solve.ini", workers=workers,
                                  out_dir=tmp_path / f"solve{workers}")
        checksums.append({f["name"]: f["sha256"] for f in manifest["files"]})
    assert checksums[0] == checksums[1]
    assert "residuals.csv" in checksums[0]
    strichartz = write_config(tmp_path, """
[experiment]
kind = strichartz
seed = 5

[params]
ensemble = 3
q_t = 4
resolutions = 16 32
nt = 8
""", name="strichartz.ini")
    for workers in (1, 3):
        manifest = run_experiment(strichartz, workers=workers,
                                  out_dir=tmp_path / f"strichartz{workers}")
        assert manifest["complete"]
    for name in ("ratios.csv", "medians.csv", "slope.csv"):
        assert ((tmp_path / "strichartz1" / name).read_bytes()
                == (tmp_path / "strichartz3" / name).read_bytes())


def test_seed_changes_output(tmp_path):
    run_experiment(_volumes_smoke_config(tmp_path, seed=9), workers=1,
                   out_dir=tmp_path / "s9")
    run_experiment(_volumes_smoke_config(tmp_path, seed=10), workers=1,
                   out_dir=tmp_path / "s10")
    assert ((tmp_path / "s9" / "volumes.csv").read_bytes()
            != (tmp_path / "s10" / "volumes.csv").read_bytes())


def test_volume_points_follow_the_sweep_seed_scheme(tmp_path):
    # the volumes kind runs one pool task per sweep point and fits each sweep
    # in the parent; sweep i (sorted by name) samples point vi with seed
    # config seed + 1000*i + vi
    cfg = write_config(tmp_path, """
[experiment]
kind = volumes
seed = 4

[params]
case = HLH_hard
samples = 20000

[sweep.n1]
n1 = 8 16 32
l1 = 1
l2 = 1

[sweep.l1]
n1 = 32
l1 = 1 2 4
l2 = 8
""")
    for workers in (1, 3):
        assert run_experiment(cfg, workers=workers,
                              out_dir=tmp_path / f"w{workers}")["complete"]
    for name in ("volumes.csv", "volume_fits.csv"):
        assert ((tmp_path / "w1" / name).read_bytes()
                == (tmp_path / "w3" / name).read_bytes())
    rows = read_csv(tmp_path / "w3" / "volumes.csv")
    fits = {r["axis"]: r
            for r in read_csv(tmp_path / "w3" / "volume_fits.csv")}
    sweeps = [("L1", [1, 2, 4], {"N1": 32, "L2": 8}),
              ("N1", [8, 16, 32], {"L1": 1, "L2": 1})]
    for i, (axis, values, base) in enumerate(sweeps):
        ref = []
        for vi, value in enumerate(values):
            case = volume_case_config(HLH_HARD, **dict(base, **{axis: value}))
            est = region_volume_mc(case["region"], case["box"], 20000,
                                   4 + 1000 * i + vi)
            ref.append(dict(case["params"], case=HLH_HARD, volume=est.mean,
                            std_error=est.std_error, bound=case["bound"],
                            samples=20000, axis=axis))
        got = [r for r in rows if r["axis"] == axis]
        assert got == [{k: format_cell(rec.get(k, "")) for k in got[0]}
                       for rec in ref]
        f = fit_power_law(values, [rec["volume"] for rec in ref])
        assert fits[axis] == {"case": HLH_HARD, "axis": axis,
                              "exponent": format_cell(f.exponent),
                              "intercept": format_cell(f.intercept),
                              "r_squared": format_cell(f.r_squared)}


# ---------------------------------------------------------------------------
# the other experiment kinds, smoke scale
# ---------------------------------------------------------------------------

def test_constants_experiment_smoke(tmp_path):
    path = write_config(tmp_path, """
[experiment]
kind = constants
seed = 2

[grid]
nx = 8
nt = 16

[regions]
signs = + + +
compare_signs = + + -

[ascent]
r = 2
restarts = 2
max_iters = 25
tol = 1e-6

[sweep.l1]
n0 = 8
n1 = 2
n2 = 4
l1 = 1 2 4
l2 = 2
""")
    manifest = run_experiment(path, workers=2, out_dir=tmp_path / "out")
    assert manifest["complete"]
    rows = read_csv(tmp_path / "out" / "constants.csv")
    assert len(rows) == 6        # 3 values x 2 sign patterns
    sweeps = {row["sweep"] for row in rows}
    assert sweeps == {"l1:base", "l1:alt"}
    for row in rows:
        assert float(row["measured_C"]) > 0
    # each sweep's fit is fit_power_law over its rows, to the written digit
    fits = read_csv(tmp_path / "out" / "constant_fits.csv")
    assert sorted(fit["sweep"] for fit in fits) == sorted(sweeps)
    for fit in fits:
        series = [row for row in rows if row["sweep"] == fit["sweep"]]
        expected = fit_power_law([int(row["L1"]) for row in series],
                                 [float(row["measured_C"]) for row in series])
        assert fit["axis"] == "L1"
        assert fit["exponent"] == format_cell(expected.exponent)
        assert fit["r_squared"] == format_cell(expected.r_squared)
    # the trace table holds each point's ascent, ending at its constant
    trace = read_csv(tmp_path / "out" / "ascent_trace.csv")
    assert list(trace[0]) == ["sweep", "N0", "N1", "N2", "L1", "L2", "signs",
                              "iteration", "value"]
    key = ("sweep", "N0", "N1", "N2", "L1", "L2", "signs")
    for row in rows:
        steps = [t for t in trace if all(t[k] == row[k] for k in key)]
        assert [int(t["iteration"]) for t in steps] == list(
            range(1, int(row["iterations"]) + 1))
        assert steps[-1]["value"] == row["measured_C"]
    assert len(trace) == sum(int(row["iterations"]) for row in rows)


_TWO_POINT_CONSTANTS = """
[experiment]
kind = constants
seed = 2

[grid]
nx = 8
nt = 16

[regions]
signs = + + +
compare_signs = + + -

[ascent]
restarts = 1
max_iters = 10

[sweep.l1]
n0 = 8
n1 = 2
n2 = 4
l1 = 1 2
l2 = 2
"""


def test_constants_two_point_sweep_writes_its_fit(tmp_path):
    # the same minimum sweep length as volumes: two points fit a power law
    path = write_config(tmp_path, _TWO_POINT_CONSTANTS)
    assert cli_main(["constants", "--config", str(path), "--workers", "1",
                     "--out", str(tmp_path / "out")]) == 0
    rows = read_csv(tmp_path / "out" / "constants.csv")
    fits = read_csv(tmp_path / "out" / "constant_fits.csv")
    assert [fit["sweep"] for fit in fits] == ["l1:alt", "l1:base"]
    for fit in fits:
        series = [row for row in rows if row["sweep"] == fit["sweep"]]
        assert len(series) == 2
        expected = fit_power_law([int(row["L1"]) for row in series],
                                 [float(row["measured_C"]) for row in series])
        assert fit["exponent"] == format_cell(expected.exponent)


def test_constants_failed_fit_is_named_in_errors(tmp_path, capsys,
                                                 monkeypatch):
    # a zero (degenerate) constant cannot be fitted on log axes; the run
    # keeps its points, names each failed sweep and exits 1
    zero = ConstantMeasurement(measured_C=0.0, iterations=1, converged=False,
                               degenerate=True)
    monkeypatch.setattr(experiments, "best_constant", lambda *a, **k: zero)
    path = write_config(tmp_path, _TWO_POINT_CONSTANTS)
    rc = cli_main(["constants", "--config", str(path), "--workers", "1",
                   "--out", str(tmp_path / "out")])
    assert rc == 1
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["complete"] is False
    message = "fit_power_law requires strictly positive data"
    assert manifest["errors"] == [f"sweep.l1:alt: {message}",
                                  f"sweep.l1:base: {message}"]
    assert json.loads(capsys.readouterr().err)["errors"] == manifest["errors"]
    rows = read_csv(tmp_path / "out" / "constants.csv")
    assert len(rows) == 4
    assert not (tmp_path / "out" / "constant_fits.csv").exists()


def test_solve_experiment_smoke(tmp_path):
    manifest = run_experiment(CONFIG_DIR / "solve.ini", workers=1,
                              out_dir=tmp_path / "out")
    assert manifest["complete"]
    rows = read_csv(tmp_path / "out" / "trajectory.csv")
    assert len(rows) == 65
    assert float(rows[0]["abs_diff_l2"]) < 1e-12
    summary = read_csv(tmp_path / "out" / "summary.csv")[0]
    assert summary["converged"] == "true"
    history = read_csv(tmp_path / "out" / "residuals.csv")
    assert [int(r["iteration"]) for r in history] == list(
        range(1, int(summary["iterations"]) + 1))
    assert history[-1]["residual"] == summary["final_residual"]
    assert "residuals.csv" in {f["name"] for f in manifest["files"]}


def physical_energy(u, u_t):
    """(1/2) sum (|u_t|^2 + |grad u|^2) dx^2 with the gradient taken by
    np.fft on the 2 pi torus."""
    nx = u.grid.nx
    k = nx * np.fft.fftfreq(nx)
    u_hat = np.fft.fft2(u.values)
    g1 = np.fft.ifft2(1j * k[:, None] * u_hat)
    g2 = np.fft.ifft2(1j * k[None, :] * u_hat)
    dens = np.abs(u_t.values) ** 2 + np.abs(g1) ** 2 + np.abs(g2) ** 2
    return 0.5 * float(np.sum(dens)) * u.grid.spatial_phys_cell


SOLVE_KINDS = [Nonlinearity("spatial_grad_square"), Nonlinearity("full_grad_square"),
               Nonlinearity("deriv_of_square", "t"),
               Nonlinearity("deriv_of_square", "x1"),
               Nonlinearity("deriv_of_square", "x2"), Nonlinearity("none")]


@DEALIASED
@pytest.mark.parametrize("kind", SOLVE_KINDS,
                         ids=lambda kind: kind.direction or kind.kind)
def test_trajectory_records_match_per_slice_norms(kind, dealiased):
    # two Picard iterations and four RK4 steps keep the two solutions apart
    # by more than 1e-3 relative after t = 0, so that abs_diff_l2 is not a
    # cancellation and is compared relatively like the other columns
    grid = GridSpec(nx=16, nt=8, spatial_period=2 * math.pi,
                    time_period=2 * math.pi)
    data = random_data(grid, s=0.5, r=2, seed=5, band_limit=5.0).scaled(0.3)
    cfg = SolverConfig(T=1.0, n_steps=4, picard_max=2)
    traj, _ = picard_solve(data, kind, cfg)
    oracle = rk4_solve(data, kind, cfg)
    records = experiments._trajectory_records(traj, oracle)
    want = {
        "t": list(traj.times),
        "picard_l2_u": [spatial_l2(u) for u in traj.u],
        "picard_l2_ut": [spatial_l2(u_t) for u_t in traj.u_t],
        "picard_energy": [energy(*pair) for pair in zip(traj.u, traj.u_t)],
        "rk4_l2_u": [spatial_l2(u) for u in oracle.u],
        "rk4_energy": [energy(*pair) for pair in zip(oracle.u, oracle.u_t)],
        "abs_diff_l2": [spatial_l2(a.with_values(a.values - b.values))
                        for a, b in zip(traj.u, oracle.u)],
    }
    assert len(records) == cfg.n_steps + 1
    assert all(diff > 1e-3 * norm for diff, norm in
               zip(want["abs_diff_l2"][1:], want["picard_l2_u"][1:]))
    for column, values in want.items():
        got = [rec[column] for rec in records]
        assert all(type(x) is float for x in got)
        np.testing.assert_allclose(got, values, rtol=1e-12, atol=0, err_msg=column)
    for name, stack in (("picard_energy", traj), ("rk4_energy", oracle)):
        np.testing.assert_allclose(
            [rec[name] for rec in records],
            [physical_energy(*pair) for pair in zip(stack.u, stack.u_t)],
            rtol=1e-12, atol=0, err_msg=name)


def test_rk4_trajectory_holds_each_stack_once():
    """On the shipped solve config the traced peak of rk4_solve, and then the
    traced peak of the first read of its u over what is held before it,
    each stay at or below one (2, n_steps + 1, nx, nx) complex128 stack plus
    a margin of 128 KiB.  The solver's spectral stack is kept without a
    copy, and the physical slices are views of the one array that the
    batched inverse transform writes, not per-slice copies."""
    values = load_config(CONFIG_DIR / "solve.ini").values
    params = values["params"]
    grid = experiments._grid_spec(values["grid"])
    data = experiments._single_mode_data(grid, params["mode"], params["amplitude"])
    kind = Nonlinearity(params["nonlinearity"], params["direction"])
    cfg = SolverConfig(T=params["t_final"], n_steps=params["n_steps"])
    rk4_solve(data, kind, cfg).u      # warm every lazily built cache
    stack = 2 * (cfg.n_steps + 1) * grid.nx ** 2 * 16
    margin = 128 * 1024
    tracemalloc.start()
    try:
        traj = rk4_solve(data, kind, cfg)
        _, solve_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        held, _ = tracemalloc.get_traced_memory()
        traj.u
        _, read_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert solve_peak <= stack + margin
    assert read_peak - held <= stack + margin


def test_scaling_experiment_smoke(tmp_path):
    manifest = run_experiment(CONFIG_DIR / "scaling.ini", workers=1,
                              out_dir=tmp_path / "out")
    assert manifest["complete"]
    rows = read_csv(tmp_path / "out" / "scaling.csv")
    assert len(rows) == 4
    for row in rows:
        assert row["aliased"] == "false"
        assert float(row["rel_error"]) <= 1e-12


def test_strichartz_experiment_smoke(tmp_path):
    path = write_config(tmp_path, """
[experiment]
kind = strichartz
seed = 4

[params]
ensemble = 2
q_t = 4
resolutions = 16 32
nt = 16
""")
    manifest = run_experiment(path, workers=1, out_dir=tmp_path / "out")
    assert manifest["complete"]
    rows = read_csv(tmp_path / "out" / "ratios.csv")
    assert len(rows) == 4
    slope = read_csv(tmp_path / "out" / "slope.csv")[0]
    assert math.isfinite(float(slope["slope"]))


# ensemble members per resolution; None marks a member that raises
STRICHARTZ_MEMBERS = {32: [8.0, 100.0, 1.0, None], 64: [4.0, 4.0, 50.0, 1.0],
                      128: [2.0, 0.5, 3.0, 2.0]}


@pytest.mark.parametrize("members, medians, slope", [
    pytest.param(STRICHARTZ_MEMBERS, {32: 8.0, 64: 4.0, 128: 2.0}, -1.0,
                 id="three_medians"),
    # fewer than two resolutions with a median: the slope is 0
    pytest.param({32: STRICHARTZ_MEMBERS[32], 64: [None] * 4}, {32: 8.0}, 0.0,
                 id="one_median")])
def test_strichartz_rows_medians_and_slope(tmp_path, monkeypatch, members,
                                           medians, slope):
    # member j at resolution m has seed 3 + 7919 m + j; a failed member is
    # left out of ratios.csv and the medians, and its error is recorded
    def point(resolution, seed, q_t, nt, band_modes):
        ratio = members[resolution][seed - 3 - 7919 * resolution]
        if ratio is None:
            raise RuntimeError(f"member {seed} failed")
        return ratio

    monkeypatch.setattr(experiments, "_strichartz_point", point)
    path = write_config(tmp_path, "[experiment]\nkind = strichartz\nseed = 3\n"
                        "[params]\nensemble = 4\nresolutions = "
                        + " ".join(map(str, members)) + "\n")
    manifest = run_experiment(path, workers=1, out_dir=tmp_path / "out")
    assert manifest["complete"] is False
    failed = [3 + 7919 * m + j for m, rs in members.items()
              for j, r in enumerate(rs) if r is None]
    assert [err.splitlines()[0] for err in manifest["errors"]] == [
        f"RuntimeError: member {seed} failed" for seed in failed]
    rows = read_csv(tmp_path / "out" / "ratios.csv")
    assert [(int(r["resolution"]), int(r["seed"]), float(r["ratio"]))
            for r in rows] == [
        (m, 3 + 7919 * m + j, r) for m, rs in members.items()
        for j, r in enumerate(rs) if r is not None]
    got = {int(r["resolution"]): float(r["median_ratio"])
           for r in read_csv(tmp_path / "out" / "medians.csv")}
    assert got == medians
    (row,) = read_csv(tmp_path / "out" / "slope.csv")
    assert float(row["slope"]) == pytest.approx(slope, abs=1e-12)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_runs_ledger(tmp_path, capsys):
    rc = cli_main(["ledger", "--config", str(CONFIG_DIR / "ledger.ini"),
                   "--out", str(tmp_path / "out"), "--workers", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "ledger.csv" in out
    assert (tmp_path / "out" / "manifest.json").exists()


def test_cli_rejects_bad_config(tmp_path, capsys):
    path = write_config(tmp_path, "[experiment]\nkind = ledger\n")
    rc = cli_main(["ledger", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    record = json.loads(err.strip())
    assert record["error"] == "config"
    assert record["key"] == "seed"


def test_cli_rejects_kind_mismatch(tmp_path, capsys):
    rc = cli_main(["solve", "--config", str(CONFIG_DIR / "ledger.ini"),
                   "--out", str(tmp_path / "o")])
    assert rc == 2


@pytest.mark.parametrize("key, raw", [("n_steps", "64.5"),
                                      ("picard_max", "ten")])
def test_cli_rejects_mistyped_solve_param(tmp_path, capsys, key, raw):
    text = (CONFIG_DIR / "solve.ini").read_text(encoding="utf-8")
    lines = [f"{key} = {raw}" if line.startswith(f"{key} =") else line
             for line in text.splitlines()]
    path = write_config(tmp_path, "\n".join(lines) + "\n")
    rc = cli_main(["solve", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "config"
    assert (record["section"], record["key"]) == ("params", key)
    assert raw in record["message"]


@pytest.mark.parametrize("key, raw", [("ensemble", "2.7"), ("ensemble", "0"),
                                      ("nt", "64.5"), ("q_t", "2"),
                                      ("q_t", "inf"), ("resolutions", "32.7 64"),
                                      ("resolutions", "48 64"),
                                      ("resolutions", "32 32 64")])
def test_cli_rejects_bad_strichartz_param(tmp_path, capsys, key, raw):
    text = (CONFIG_DIR / "strichartz.ini").read_text(encoding="utf-8")
    lines = [f"{key} = {raw}" if line.startswith(f"{key} =") else line
             for line in text.splitlines()]
    path = write_config(tmp_path, "\n".join(lines) + "\n")
    rc = cli_main(["strichartz", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "config"
    assert (record["section"], record["key"]) == ("params", key)
    assert raw in record["message"]


@pytest.mark.parametrize("config, section, key, raw", [
    ("volumes_hard.ini", "params", "samples", "2000.5"),
    ("constants.ini", "ascent", "restarts", "1.5"),
    ("constants.ini", "ascent", "max_iters", "80.5"),
    ("constants.ini", "grid", "nx", "32.0"),
    ("ledger.ini", "params", "r_count", "50.5"),
    ("solve.ini", "grid", "nt", "8.5"),
    ("solve.ini", "params", "mode", "1.5 0"),
    ("scaling.ini", "params", "lambda", "2.5 4")])
def test_cli_rejects_non_integer_key(tmp_path, capsys, config, section, key, raw):
    text = (CONFIG_DIR / config).read_text(encoding="utf-8")
    lines = [f"{key} = {raw}" if line.startswith(f"{key} =") else line
             for line in text.splitlines()]
    path = write_config(tmp_path, "\n".join(lines) + "\n")
    kind = load_config(CONFIG_DIR / config).kind
    rc = cli_main([kind, "--config", str(path), "--workers", "1",
                   "--out", str(tmp_path / "o")])
    assert rc == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "config"
    assert (record["section"], record["key"]) == (section, key)
    assert raw in record["message"]


@pytest.mark.parametrize("config, section, key, raw", [
    ("solve.ini", "params", "t_final", "true"),
    ("solve.ini", "params", "t_final", "inf"),
    ("solve.ini", "params", "amplitude", "abc"),
    ("solve.ini", "params", "picard_tol", "nan"),
    ("solve.ini", "params", "amplitude", "1/0"),
    ("solve.ini", "params", "amplitude", "a/b"),
    pytest.param("solve.ini", "params", "amplitude", "1" + "0" * 400,
                 id="solve.ini-params-amplitude-1e400"),
    ("solve.ini", "grid", "d_xi", "nan"),
    ("solve.ini", "grid", "d_tau", "off"),
    ("solve.ini", "grid", "d_xi", "0"),
    ("solve.ini", "grid", "d_xi", "-1"),
    ("solve.ini", "grid", "d_tau", "0"),
    ("scaling.ini", "grid", "d_tau", "-0.5"),
    ("constants.ini", "grid", "d_tau", "-0.5"),
    ("constants.ini", "grid", "d_xi", "1"),
    ("constants.ini", "ascent", "tol", "small"),
    ("scaling.ini", "params", "band_limit", "-inf"),
    ("scaling.ini", "params", "band_limit", "100"),
    ("ledger.ini", "params", "r_min", "2"),
    # a repeated list value wrote its rows again; the ledger has no r
    # list, so one is rejected as an unknown key that quotes its value
    ("ledger.ini", "params", "r", "7/4 7/4"),
    ("ledger.ini", "params", "s_offsets", "0 0"),
    ("scaling.ini", "params", "lambda", "2 2"),
    ("solve.ini", "params", "direction", "t"),
    ("strichartz.ini", "params", "q_t", "yes"),
    ("volumes_hard.ini", "params", "samples", "0"),
    ("volumes_hard.ini", "params", "case", "LHH_sector_S1"),
    ("constants.ini", "ascent", "r", "3"),
    ("solve.ini", "params", "n_steps", "0"),
    ("solve.ini", "params", "t_final", "-1"),
    ("solve.ini", "params", "nonlinearity", "foo"),
    ("solve.ini", "params", "mode", "1"),
    ("constants.ini", "ascent", "restarts", "0"),
    ("constants.ini", "regions", "signs", "+ + x"),
    # a negative seed failed in the Philox key or default_rng, or ran
    ("volumes_easy.ini", "experiment", "seed", "-5"),
    ("constants.ini", "experiment", "seed", "-1"),
    ("ledger.ini", "experiment", "seed", "-2")])
def test_cli_rejects_bad_number_key(tmp_path, capsys, config, section,
                                    key, raw):
    text = (CONFIG_DIR / config).read_text(encoding="utf-8")
    lines = [f"{key} = {raw}" if line.startswith(f"{key} =") else line
             for line in text.splitlines()]
    if f"{key} = {raw}" not in lines:
        lines.insert(lines.index(f"[{section}]") + 1, f"{key} = {raw}")
    path = write_config(tmp_path, "\n".join(lines) + "\n")
    kind = load_config(CONFIG_DIR / config).kind
    rc = cli_main([kind, "--config", str(path), "--workers", "1",
                   "--out", str(tmp_path / "o")])
    assert rc == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "config"
    assert (record["section"], record["key"]) == (section, key)
    assert raw in record["message"]


def test_solve_rejects_deriv_of_square_without_direction(tmp_path, capsys):
    # Nonlinearity's own rule, reported at the [params] header
    text = (CONFIG_DIR / "solve.ini").read_text(encoding="utf-8")
    text = text.replace("nonlinearity = full_grad_square",
                        "nonlinearity = deriv_of_square")
    record = _cli_config_error(tmp_path, capsys, "solve.ini", text)
    assert (record["section"], record["key"], record["line"]) == (
        "params", "direction", text.splitlines().index("[params]") + 1)
    assert "deriv_of_square needs direction" in record["message"]


def _insert_line(config, section, entry):
    """Shipped config text with entry added as the last line of [section],
    which is appended when absent; and the entry's line number."""
    lines = (CONFIG_DIR / config).read_text(encoding="utf-8").splitlines()
    if f"[{section}]" not in lines:
        lines += ["", f"[{section}]"]
    at = lines.index(f"[{section}]") + 1
    while at < len(lines) and not lines[at].startswith("["):
        at += 1
    while not lines[at - 1].strip():
        at -= 1
    lines.insert(at, entry)
    return "\n".join(lines) + "\n", at + 1


def _cli_config_error(tmp_path, capsys, config, text, extra=()):
    path = write_config(tmp_path, text)
    kind = load_config(CONFIG_DIR / config).kind
    rc = cli_main([kind, "--config", str(path), "--out", str(tmp_path / "o"),
                   *extra])
    assert rc == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "config"
    return record


@pytest.mark.parametrize("config, section, entry, key", [
    ("solve.ini", "params", "amplitud = 5", "amplitud"),
    ("solve.ini", "solver", "amplitud = 5", None),
    ("solve.ini", "params", "n_step = 4", "n_step"),
    ("volumes_hard.ini", "params", "sampels = 1000", "sampels"),
    ("volumes_hard.ini", "sweep.n0", "n0 = 8 16", "n0"),    # no case takes
    ("volumes_easy.ini", "sweep.gamma", "gamma = 1 2", "gamma"),  # these two
    ("volumes_easy.ini", "grid", "nx = 16", None),
    ("constants.ini", "ascent", "rr = 8/5", "rr"),
    ("constants.ini", "grid", "n = 16", "n"),
    ("constants.ini", "ascent", "nx = 16", "nx"),           # a [grid] key
    ("constants.ini", "regions", "sign = +", "sign"),       # after signs
    ("ledger.ini", "experiment", "sede = 2", "sede"),
    ("ledger.ini", "sweep.r", "r = 7/4 2", None),
    # the r grid and s_offsets are the ledger's only points
    ("ledger.ini", "params", "s = 7/4", "s"),
    ("scaling.ini", "params", "lamda = 2", "lamda"),
    ("strichartz.ini", "params", "resolution = 32 64", "resolution"),
    ("strichartz.ini", "grid", "nx = 32", None),
    ("solve.ini", "params", "dealias = true", "dealias"),
    ("ledger.ini", "experiment", "workers = 2", "workers"),
    ("solve.ini", "grid", "d_xi = 1", "d_xi"),
    ("scaling.ini", "grid", "d_xi = 1", "d_xi")])
def test_cli_rejects_unknown_key_or_section(tmp_path, capsys, config, section,
                                            entry, key):
    # none of these keys or sections is in the kind's schema; each
    # misspelling ran with exit 0, the key left at its default
    text, line = _insert_line(config, section, entry)
    record = _cli_config_error(tmp_path, capsys, config, text)
    if key is None:       # an unknown section is reported at its header
        line -= 1
    assert (record["section"], record["key"], record["line"]) == (section, key, line)


def test_ledger_rejects_r_list_with_generated_grid(tmp_path, capsys):
    # an explicit r list used to win silently over r_min, r_max and r_count;
    # the r grid is now the ledger's only source of r
    text, line = _insert_line("ledger.ini", "params", "r = 7/4")
    record = _cli_config_error(tmp_path, capsys, "ledger.ini", text)
    assert (record["section"], record["key"], record["line"]) == ("params", "r", line)


@pytest.mark.parametrize("config, edits, key", [
    # r_max at or below the default r_min exited 1 with a KeyError on the
    # r_min that the file does not set
    ("ledger.ini", {"r_min": None, "r_max": "r_max = 3/2"}, "r_max"),
    ("ledger.ini", {"s_offsets": None}, "s_offsets"),
    # a repeated (s, r) pair wrote its rows twice
    ("scaling.ini", {"s": "s = 2 2", "r": "r = 2 2"}, "r")],
    ids=["ledger-r_max-only", "ledger-no-s_offsets", "scaling-repeated-pair"])
def test_cli_rejects_edited_config(tmp_path, capsys, config, edits, key):
    # shipped config lines replaced by key (None deletes the line): cases
    # that a one-line change cannot make
    lines = [edits.get(line.split(" =")[0], line) for line in
             (CONFIG_DIR / config).read_text(encoding="utf-8").splitlines()]
    text = "\n".join(line for line in lines if line is not None) + "\n"
    record = _cli_config_error(tmp_path, capsys, config, text)
    assert (record["section"], record["key"]) == ("params", key)


@pytest.mark.parametrize("value", [pytest.param(v, id=f"flag-{v}")
                                   for v in ("0", "-3")])
def test_cli_rejects_workers_below_one(tmp_path, capsys, value):
    # each was clamped to one worker
    text = (CONFIG_DIR / "ledger.ini").read_text(encoding="utf-8")
    record = _cli_config_error(tmp_path, capsys, "ledger.ini", text,
                               ["--workers", value])
    assert (record["section"], record["key"]) == ("--workers", "workers")
    assert value in record["message"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("config", ["volumes_easy.ini", "constants.ini",
                                    "ledger.ini"])
def test_cli_rejects_negative_seed_flag(tmp_path, capsys, config):
    # --seed is checked as [experiment] seed is, before any work
    text = (CONFIG_DIR / config).read_text(encoding="utf-8")
    record = _cli_config_error(tmp_path, capsys, config, text,
                               ["--seed", "-3", "--workers", "1"])
    assert (record["section"], record["key"]) == ("experiment", "seed")
    assert "'-3'" in record["message"]
    assert not (tmp_path / "o").exists()


UINT64_MAX = 2 ** 64 - 1


@pytest.mark.parametrize("where", ["config", "flag", "run_experiment"])
def test_volumes_rejects_seed_beyond_uint64(tmp_path, capsys, where):
    # the smoke sweep's points take seeds seed .. seed + 3; a seed whose
    # last point passed 2**64 - 1 exited 1 with an OverflowError per task
    seed = UINT64_MAX - 2
    path = _volumes_smoke_config(tmp_path, seed=seed if where == "config" else 0)
    if where == "run_experiment":
        with pytest.raises(ConfigError) as err:
            run_experiment(path, workers=1, out_dir=tmp_path / "o", seed=seed)
        assert (err.value.section, err.value.key) == ("experiment", "seed")
        message = err.value.message
    else:
        flag = ["--seed", str(seed)] if where == "flag" else []
        record = _cli_config_error(tmp_path, capsys, "volumes_easy.ini",
                                   path.read_text(encoding="utf-8"),
                                   ["--workers", "1", *flag])
        assert (record["section"], record["key"]) == ("experiment", "seed")
        message = record["message"]
    assert str(seed) in message and str(UINT64_MAX - 3) in message
    assert not (tmp_path / "o").exists()


def test_volumes_runs_at_the_largest_seed(tmp_path):
    path = _volumes_smoke_config(tmp_path, seed=UINT64_MAX - 3)
    manifest = run_experiment(path, workers=1, out_dir=tmp_path / "o")
    assert manifest["complete"], manifest["errors"]
    assert [f["records"] for f in manifest["files"]] == [4, 1]


@pytest.mark.parametrize("preset, want", [(None, "1"), ("3", "3")])
def test_import_pins_blas_threads_unless_set(preset, want):
    # the worker pool is the only parallelism; a value set by the user wins
    env = {k: v for k, v in os.environ.items()
           if k not in conewave.THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")]))
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    done = subprocess.run(
        [sys.executable, "-c",
         "import os, conewave; print(os.environ['OPENBLAS_NUM_THREADS'])"],
        env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == want


def test_config_built_in_code_is_checked_before_any_work(tmp_path):
    sections = {"params": {"case": "HLH_hard", "samples": "0"},
                "sweep.l1": {"n1": "16", "l1": "1 2"}}
    cfg = ExperimentConfig(kind="volumes", seed=1, sections=sections)
    with pytest.raises(ConfigError) as err:
        run_experiment(cfg, workers=1, out_dir=tmp_path / "out")
    assert (err.value.section, err.value.key, err.value.line) == (
        "params", "samples", None)
    assert not (tmp_path / "out").exists()


def _ini_text(echo):
    """INI text of a manifest's config echo; unset keys are left out."""
    lines = []
    for section, keys in echo.items():
        lines.append(f"[{section}]")
        for key, value in keys.items():
            if value is not None:
                items = value if isinstance(value, list) else [value]
                lines.append(f"{key} = " + " ".join(
                    str(v).lower() if isinstance(v, bool) else str(v)
                    for v in items))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("config", sorted(p.name for p in CONFIG_DIR.glob("*.ini")))
def test_manifest_config_echo_round_trips(tmp_path, config):
    shipped = load_config(CONFIG_DIR / config)
    manifest = run_experiment(shipped, workers=2, out_dir=tmp_path / "a")
    echoed = load_config(write_config(tmp_path, _ini_text(manifest["config"])))
    assert echoed.values == shipped.values
    again = run_experiment(echoed, workers=2, out_dir=tmp_path / "b")
    assert [f["name"] for f in again["files"]] == [f["name"] for f in manifest["files"]]
    for entry in manifest["files"]:
        assert ((tmp_path / "a" / entry["name"]).read_bytes()
                == (tmp_path / "b" / entry["name"]).read_bytes())


def test_cli_rejects_misspelled_constants_sweep_key(tmp_path, capsys):
    path = write_config(tmp_path, """
[experiment]
kind = constants
seed = 2

[grid]
nx = 8
nt = 16

[sweep.l1]
n0 = 8
n1 = 2
n2 = 4
l1 = 1 2
l2 = 2
l3 = 99
""")
    rc = cli_main(["constants", "--config", str(path), "--workers", "1",
                   "--out", str(tmp_path / "o")])
    assert rc == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "config"
    assert (record["section"], record["key"]) == ("sweep.l1", "l3")


@pytest.mark.parametrize("config, section, key, raw", [
    ("volumes_hard.ini", "sweep.l1", "l1", "2 2"),
    ("volumes_hard.ini", "sweep.l1", "l1", "2"),
    ("constants.ini", "sweep.n1", "n1", "4 4")])
def test_cli_rejects_repeated_sweep_value(tmp_path, capsys, config, section,
                                          key, raw):
    # a repeat made the list count as the varying axis: volumes then exited 1
    # with a fit error, constants ran the point twice and fitted nothing; a
    # single value leaves the sweep without a varying axis, which has no fit
    lines = (CONFIG_DIR / config).read_text(encoding="utf-8").splitlines()
    at = lines.index(f"[{section}]")
    at += next(i for i, line in enumerate(lines[at:]) if line.startswith(f"{key} ="))
    lines[at] = f"{key} = {raw}"
    path = write_config(tmp_path, "\n".join(lines) + "\n")
    kind = load_config(CONFIG_DIR / config).kind
    rc = cli_main([kind, "--config", str(path), "--workers", "1",
                   "--out", str(tmp_path / "o")])
    assert rc == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "config"
    if len(raw.split()) == 1:   # the error names the section, not a key
        assert (record["section"], record["key"]) == (section, None)
        assert "exactly one axis may vary" in record["message"]
    else:
        assert (record["section"], record["key"]) == (section, key)
        assert raw in record["message"]


def test_cli_seed_override(tmp_path):
    cfg = _volumes_smoke_config(tmp_path)
    assert cli_main(["volumes", "--config", str(cfg), "--workers", "1",
                     "--out", str(tmp_path / "a"), "--seed", "77"]) == 0
    assert cli_main(["volumes", "--config", str(cfg), "--workers", "1",
                     "--out", str(tmp_path / "b"), "--seed", "77"]) == 0
    assert cli_main(["volumes", "--config", str(cfg), "--workers", "2",
                     "--out", str(tmp_path / "c"), "--seed", "78"]) == 0
    a = (tmp_path / "a" / "volumes.csv").read_bytes()
    b = (tmp_path / "b" / "volumes.csv").read_bytes()
    c = (tmp_path / "c" / "volumes.csv").read_bytes()
    assert a == b != c


def test_workers_env_and_flag_precedence():
    assert resolve_workers(5) == 5
    assert resolve_workers(None) >= 1


@pytest.mark.parametrize("value", ["0", "nope"])
def test_workers_variable_is_not_read(tmp_path, monkeypatch, value):
    # CONEWAVE_WORKERS once set the default count; both values exited 2
    monkeypatch.setenv("CONEWAVE_WORKERS", value)
    assert cli_main(["ledger", "--config", str(CONFIG_DIR / "ledger.ini"),
                     "--out", str(tmp_path / "out")]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["complete"]
    assert manifest["workers"] == experiments._affinity_count()


def test_workers_default_follows_cpu_affinity(monkeypatch):
    monkeypatch.setattr(multiprocessing, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5},
                        raising=False)
    assert resolve_workers(None) == 3


def test_workers_default_without_affinity_uses_cpu_count(monkeypatch):
    monkeypatch.setattr(multiprocessing, "cpu_count", lambda: 7)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert resolve_workers(None) == 7


def test_worker_failure_marks_incomplete(tmp_path, capsys, monkeypatch):
    # every bad key exits 2 before any work; force a task-level failure by
    # making the task itself raise (one worker runs it in this process)
    def fail(**kwargs):
        raise RuntimeError("task failed")

    monkeypatch.setattr(experiments, "_volume_point", fail)
    path = write_config(tmp_path, """
[experiment]
kind = volumes
seed = 1

[params]
case = HLH_hard
samples = 10

[sweep.n1]
n1 = 8 16
""")
    rc = cli_main(["volumes", "--config", str(path),
                   "--out", str(tmp_path / "out"), "--workers", "1"])
    assert rc == 1
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["complete"] is False
    assert manifest["errors"]
