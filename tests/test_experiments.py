import csv
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

from conewave import emit_results, load_config, run_experiment
from conewave.cli import main as cli_main
from conewave.experiments import ConfigError, format_cell, resolve_workers

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


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
r = 7/4
s = 789/400
""")
    cfg = load_config(path)
    assert cfg.kind == "ledger" and cfg.seed == 1
    manifest = run_experiment(cfg, workers=1, out_dir=tmp_path / "out")
    assert manifest["complete"]
    rows = list(csv.DictReader(open(tmp_path / "out" / "ledger.csv")))
    assert rows[0]["r"] == "7/4"
    assert rows[0]["s"] == "789/400"
    assert rows[0]["feasible"] == "true"


# ---------------------------------------------------------------------------
# emit_results
# ---------------------------------------------------------------------------

def test_emit_empty_records_header_only(tmp_path):
    out = emit_results([], "csv", tmp_path / "empty.csv", ["a", "b"])
    assert out.read_text() == "a,b\n"
    with pytest.raises(ValueError):
        emit_results([], "csv", tmp_path / "e2.csv")


def test_emit_rejects_mixed_schemas(tmp_path):
    with pytest.raises(ValueError):
        emit_results([{"a": 1}, {"b": 2}], "csv", tmp_path / "bad.csv")


def test_emit_json_rationals_and_sorted_keys(tmp_path):
    recs = [{"beta": Fraction(3, 4), "alpha": 1.5}]
    out = emit_results(recs, "json", tmp_path / "r.json")
    payload = json.loads(out.read_text())
    assert payload == [{"alpha": 1.5, "beta": "3/4"}]
    text = out.read_text()
    assert text.index('"alpha"') < text.index('"beta"')


def test_csv_floats_round_trip_exactly(tmp_path):
    values = [math.pi, 1.0 / 3.0, 6.02e23, 1e-300, -0.1]
    recs = [{"x": v} for v in values]
    out = emit_results(recs, "csv", tmp_path / "f.csv")
    rows = list(csv.DictReader(open(out)))
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
    rows = list(csv.DictReader(open(tmp_path / "out" / "ledger.csv")))
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


def test_seed_changes_output(tmp_path):
    run_experiment(_volumes_smoke_config(tmp_path, seed=9), workers=1,
                   out_dir=tmp_path / "s9")
    run_experiment(_volumes_smoke_config(tmp_path, seed=10), workers=1,
                   out_dir=tmp_path / "s10")
    assert ((tmp_path / "s9" / "volumes.csv").read_bytes()
            != (tmp_path / "s10" / "volumes.csv").read_bytes())


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
l1 = 1 2
l2 = 2
""")
    manifest = run_experiment(path, workers=2, out_dir=tmp_path / "out")
    assert manifest["complete"]
    rows = list(csv.DictReader(open(tmp_path / "out" / "constants.csv")))
    assert len(rows) == 4        # 2 values x 2 sign patterns
    sweeps = {row["sweep"] for row in rows}
    assert sweeps == {"l1:base", "l1:alt"}
    for row in rows:
        assert float(row["measured_C"]) > 0


def test_solve_experiment_smoke(tmp_path):
    manifest = run_experiment(CONFIG_DIR / "solve.ini", workers=1,
                              out_dir=tmp_path / "out")
    assert manifest["complete"]
    rows = list(csv.DictReader(open(tmp_path / "out" / "trajectory.csv")))
    assert len(rows) == 65
    assert float(rows[0]["abs_diff_l2"]) < 1e-12
    summary = list(csv.DictReader(open(tmp_path / "out" / "summary.csv")))[0]
    assert summary["converged"] == "true"
    history = list(csv.DictReader(open(tmp_path / "out" / "residuals.csv")))
    assert [int(r["iteration"]) for r in history] == list(
        range(1, int(summary["iterations"]) + 1))
    assert history[-1]["residual"] == summary["final_residual"]
    assert "residuals.csv" in {f["name"] for f in manifest["files"]}


def test_scaling_experiment_smoke(tmp_path):
    manifest = run_experiment(CONFIG_DIR / "scaling.ini", workers=1,
                              out_dir=tmp_path / "out")
    assert manifest["complete"]
    rows = list(csv.DictReader(open(tmp_path / "out" / "scaling.csv")))
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
    rows = list(csv.DictReader(open(tmp_path / "out" / "ratios.csv")))
    assert len(rows) == 4
    slope = list(csv.DictReader(open(tmp_path / "out" / "slope.csv")))[0]
    assert math.isfinite(float(slope["slope"]))


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


@pytest.mark.parametrize("key, raw", [("dealias", "maybe"),
                                      ("n_steps", "64.5"),
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


def test_workers_env_and_flag_precedence(monkeypatch):
    monkeypatch.setenv("CONEWAVE_WORKERS", "2")
    assert resolve_workers(None) == 2
    assert resolve_workers(5) == 5
    monkeypatch.setenv("CONEWAVE_WORKERS", "nope")
    with pytest.raises(ConfigError):
        resolve_workers(None)
    monkeypatch.delenv("CONEWAVE_WORKERS")
    assert resolve_workers(None) >= 1


def test_worker_failure_marks_incomplete(tmp_path, capsys):
    # an unknown volume axis inside a task would be caught at validation;
    # force a task-level failure through an impossible case parameter
    path = write_config(tmp_path, """
[experiment]
kind = volumes
seed = 1

[params]
case = HLH_hard
samples = 10

[sweep.bad]
gamma = 1 2
""")
    rc = cli_main(["volumes", "--config", str(path),
                   "--out", str(tmp_path / "out"), "--workers", "1"])
    assert rc == 1
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["complete"] is False
    assert manifest["errors"]
