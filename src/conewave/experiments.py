"""Experiment orchestration: configs, deterministic sweeps, CSV/JSON results.

Configs are flat INI files (sections of key = value pairs).  Every experiment
is decomposed into independent seeded tasks dispatched over a worker pool;
results are merged in task order before writing, so numeric payloads are
byte-identical for a given (config, seed) regardless of worker count or
scheduling.  Each run writes one CSV per result table plus a JSON manifest
with per-file checksums.
"""

from __future__ import annotations

import configparser
import csv
import datetime
import hashlib
import json
import math
import multiprocessing
import os
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .dyadic_ledger import feasible_b
from .frequency_geometry import VOLUME_CASES, volume_exponent_fit
from .nlw_solver import (CauchyData, Nonlinearity, SolverConfig, energy,
                         picard_solve, random_data, rk4_solve, strichartz_probe)
from .norms import _as_fraction, scaling_law_check, spatial_l2
from .spectral_grid import PHYSICAL, TWO_PI, GridSpec, SpatialField
from ._regression import fit_power_law
from .trilinear_forms import AscentConfig, BallConeRegions, best_constant

EXPERIMENT_KINDS = ("volumes", "constants", "ledger", "solve", "scaling",
                    "strichartz")

WORKERS_ENV = "CONEWAVE_WORKERS"


class ConfigError(ValueError):
    """Invalid experiment configuration; carries the offending key location."""

    def __init__(self, message, section=None, key=None, line=None):
        self.section = section
        self.key = key
        self.line = line
        loc = ""
        if section:
            loc = f" [{section}]"
        if key:
            loc += f" {key}"
        if line is not None:
            loc += f" (line {line})"
        super().__init__(f"config error{loc}: {message}")


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    seed: int
    sections: dict                  # section -> {key: raw string}
    path: str | None = None
    workers: int | None = None
    out_dir: str = "results"

    def section(self, name, required=False) -> dict:
        if name not in self.sections:
            if required:
                raise ConfigError("missing section", section=name)
            return {}
        return self.sections[name]


def _find_line(text: str, key: str) -> int | None:
    for i, line in enumerate(text.splitlines(), start=1):
        if line.strip().lower().startswith(key.lower()):
            return i
    return None


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"no such config file: {path}")
    text = path.read_text(encoding="utf-8")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from exc
    sections = {name: dict(parser.items(name)) for name in parser.sections()}
    exp = sections.get("experiment")
    if exp is None:
        raise ConfigError("missing section", section="experiment")
    kind = exp.get("kind")
    if kind not in EXPERIMENT_KINDS:
        raise ConfigError(f"kind must be one of {EXPERIMENT_KINDS}, got {kind!r}",
                          section="experiment", key="kind",
                          line=_find_line(text, "kind"))
    if "seed" not in exp:
        raise ConfigError("seed is mandatory", section="experiment", key="seed",
                          line=_find_line(text, "seed"))
    try:
        seed = int(exp["seed"])
    except ValueError as exc:
        raise ConfigError(f"seed must be an integer, got {exp['seed']!r}",
                          section="experiment", key="seed",
                          line=_find_line(text, "seed")) from exc
    workers = None
    if "workers" in exp:
        try:
            workers = int(exp["workers"])
        except ValueError as exc:
            raise ConfigError(f"workers must be an integer, got {exp['workers']!r}",
                              section="experiment", key="workers",
                              line=_find_line(text, "workers")) from exc
    return ExperimentConfig(kind=kind, seed=seed, sections=sections,
                            path=str(path), workers=workers)


def _parse_scalar(raw: str):
    raw = raw.strip()
    low = raw.lower()
    if low in ("true", "yes", "on"):
        return True
    if low in ("false", "no", "off"):
        return False
    if low in ("2pi", "2*pi"):
        return TWO_PI
    if low in ("inf", "infinity"):
        return math.inf
    if "/" in raw:
        return Fraction(raw)
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        return raw


_TYPE_NAMES = {bool: "a boolean", int: "an integer"}


def get_value(section: dict, key: str, default=None, required=False,
              section_name="", expect=None):
    """Parsed value of key; with expect (bool or int) any other type is a
    ConfigError, so "maybe" is not a boolean and 64.5 is not an integer."""
    if key not in section:
        if required:
            raise ConfigError("missing required key", section=section_name, key=key)
        return default
    value = _parse_scalar(section[key])
    if expect is not None and type(value) is not expect:
        raise ConfigError(f"must be {_TYPE_NAMES[expect]}, got {section[key]!r}",
                          section=section_name, key=key)
    return value


def get_list(section: dict, key: str, default=None, required=False,
             section_name="") -> list:
    if key not in section:
        if required:
            raise ConfigError("missing required key", section=section_name, key=key)
        return list(default) if default is not None else []
    items = [_parse_scalar(tok) for tok in section[key].split()]
    if required and not items:
        raise ConfigError("list must be nonempty", section=section_name, key=key)
    return items


def resolve_workers(flag_value=None) -> int:
    """--workers flag beats CONEWAVE_WORKERS beats machine parallelism."""
    if flag_value is not None:
        return max(1, int(flag_value))
    env = os.environ.get(WORKERS_ENV)
    if env:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise ConfigError(f"{WORKERS_ENV} must be an integer, got {env!r}") from exc
    return max(1, multiprocessing.cpu_count())


# ---------------------------------------------------------------------------
# result serialization
# ---------------------------------------------------------------------------

def _fraction_str(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Fraction):
        return _fraction_str(value)
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def _json_cell(value):
    if isinstance(value, bool):
        return value
    if isinstance(value, Fraction):
        # JSON schema rule: rationals are always "num/den" strings
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    return value


def emit_results(records, fmt: str, path, field_order=None) -> Path:
    """Write homogeneous records as CSV (17 significant digits, UTF-8, LF)
    or JSON (one object per record, keys sorted, rationals as "num/den")."""
    records = list(records)
    if field_order is None:
        if not records:
            raise ValueError("empty record list requires an explicit field order")
        field_order = list(records[0].keys())
    for rec in records:
        if set(rec.keys()) != set(field_order):
            raise ValueError(
                f"mixed record schemas: {sorted(rec.keys())} vs {sorted(field_order)}")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if fmt == "csv":
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(field_order)
            for rec in records:
                writer.writerow([format_cell(rec[k]) for k in field_order])
    elif fmt == "json":
        payload = [{k: _json_cell(rec[k]) for k in sorted(rec)} for rec in records]
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    else:
        raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")
    return path


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    h.update(path.read_bytes())
    return h.hexdigest()


def _record_count(path: Path) -> int:
    if path.suffix != ".csv":
        return 0
    with open(path, "r", encoding="utf-8") as fh:
        return max(0, sum(1 for _ in fh) - 1)


# ---------------------------------------------------------------------------
# worker pool
# ---------------------------------------------------------------------------

_TASK_REGISTRY = {}


def register_task(name):
    def deco(fn):
        _TASK_REGISTRY[name] = fn
        return fn
    return deco


def _run_task(payload):
    name, index, kwargs = payload
    try:
        return index, _TASK_REGISTRY[name](**kwargs), None
    except Exception as exc:   # pragma: no cover - exercised via failure test
        return index, None, f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}"


def run_tasks(name: str, task_kwargs: list, workers: int):
    """Deterministic parallel map: results returned in task order."""
    payloads = [(name, i, kw) for i, kw in enumerate(task_kwargs)]
    if workers <= 1 or len(payloads) <= 1:
        raw = [_run_task(p) for p in payloads]
    else:
        with multiprocessing.Pool(processes=min(workers, len(payloads))) as pool:
            raw = pool.map(_run_task, payloads)
    raw.sort(key=lambda item: item[0])
    results, errors = [], []
    for _, res, err in raw:
        results.append(res)
        if err is not None:
            errors.append(err)
    return results, errors


# ---------------------------------------------------------------------------
# experiment drivers
# ---------------------------------------------------------------------------

def _grid_from_config(cfg: ExperimentConfig, default_nx=32, default_nt=64) -> GridSpec:
    sec = cfg.section("grid")
    nx = get_value(sec, "nx", default_nx, section_name="grid")
    nt = get_value(sec, "nt", default_nt, section_name="grid")
    d_xi = float(get_value(sec, "d_xi", 1.0, section_name="grid"))
    d_tau = float(get_value(sec, "d_tau", 1.0, section_name="grid"))
    try:
        return GridSpec(nx=int(nx), nt=int(nt), spatial_period=TWO_PI / d_xi,
                        time_period=TWO_PI / d_tau)
    except ValueError as exc:
        raise ConfigError(str(exc), section="grid") from exc


@register_task("ledger_point")
def _ledger_point(r_num, r_den, s_num, s_den):
    r = Fraction(r_num, r_den)
    s = Fraction(s_num, s_den)
    sigma = s - 1
    interval = feasible_b(r, sigma)
    return {
        "r": r,
        "s": s,
        "feasible": not interval.empty,
        "b_lo": interval.lo if not interval.empty else "",
        "b_hi": interval.hi if not interval.empty else "",
    }


def _ledger_tasks(cfg: ExperimentConfig):
    sec = cfg.section("params", required=True)
    r_values = [_as_fraction(v) for v in get_list(sec, "r", section_name="params")]
    if not r_values:
        r_min = _as_fraction(get_value(sec, "r_min", Fraction(3, 2),
                                       section_name="params"))
        r_max = _as_fraction(get_value(sec, "r_max", Fraction(2),
                                       section_name="params"))
        count = int(get_value(sec, "r_count", 50, section_name="params"))
        if count < 1:
            raise ConfigError("r_count must be >= 1", section="params", key="r_count")
        step = (r_max - r_min) / count
        r_values = [r_min + step * (i + 1) for i in range(count)]
    s_values = [_as_fraction(v) for v in get_list(sec, "s", section_name="params")]
    s_offsets = [_as_fraction(v) for v in
                 get_list(sec, "s_offsets", section_name="params")]
    if not s_values and not s_offsets:
        raise ConfigError("need s or s_offsets", section="params", key="s")
    tasks = []
    for r in r_values:
        pts = list(s_values)
        pts += [Fraction(3, 2) / r + 1 + off for off in s_offsets]
        for s in pts:
            tasks.append(dict(r_num=r.numerator, r_den=r.denominator,
                              s_num=s.numerator, s_den=s.denominator))
    return tasks


def _run_ledger(cfg: ExperimentConfig, workers: int, out: Path):
    tasks = _ledger_tasks(cfg)
    results, errors = run_tasks("ledger_point", tasks, workers)
    records = [r for r in results if r is not None]
    files = [emit_results(records, "csv", out / "ledger.csv",
                          ["r", "s", "feasible", "b_lo", "b_hi"])]
    return files, errors


@register_task("volume_axis")
def _volume_axis(case, axis, values, samples, seed, base):
    fit = volume_exponent_fit(case, {axis: values}, samples, seed, base=base)
    series = [dict(rec) for rec in fit.series]
    fitrec = None
    if axis in fit.fits:
        f = fit.fits[axis]
        fitrec = {"case": case, "axis": axis, "exponent": f.exponent,
                  "intercept": f.intercept, "r_squared": f.r_squared}
    return {"series": series, "fit": fitrec}


def _parse_sweeps(cfg: ExperimentConfig, names: dict, required=False):
    """(sweep name, axis, axis values, base point) per [sweep.<name>] section.

    names maps config keys to axis names.  Any other key is an error, and
    with required so is a missing one; every list must be nonempty, exactly
    one axis may take several values, and base holds the others' values.
    """
    sweeps = [(name[len("sweep."):], sec)
              for name, sec in sorted(cfg.sections.items())
              if name.startswith("sweep.")]
    if not sweeps:
        raise ConfigError("no [sweep.<name>] sections given")
    parsed = []
    for sweep_name, sec in sweeps:
        section = f"sweep.{sweep_name}"
        for key in sec:
            if key not in names:
                raise ConfigError(f"unknown parameter {key!r}",
                                  section=section, key=key)
        point = {axis: get_list(sec, key, required=True, section_name=section)
                 for key, axis in names.items() if required or key in sec}
        varying = [k for k, v in point.items() if len(v) > 1]
        if len(varying) != 1:
            raise ConfigError("exactly one axis may vary per sweep", section=section)
        axis = varying[0]
        parsed.append((sweep_name, axis, point[axis],
                       {k: v[0] for k, v in point.items() if k != axis}))
    return parsed


_VOLUME_AXIS_NAMES = {"n0": "N0", "n1": "N1", "l1": "L1", "l2": "L2",
                      "gamma": "gamma"}
_CONSTANT_AXIS_NAMES = {"n0": "N0", "n1": "N1", "n2": "N2", "l1": "L1", "l2": "L2"}


def _run_volumes(cfg: ExperimentConfig, workers: int, out: Path):
    sec = cfg.section("params", required=True)
    case = get_value(sec, "case", required=True, section_name="params")
    if case not in VOLUME_CASES:
        raise ConfigError(f"case must be one of {VOLUME_CASES}, got {case!r}",
                          section="params", key="case")
    samples = int(get_value(sec, "samples", 10 ** 6, section_name="params"))
    tasks = [dict(case=case, axis=axis, values=values, samples=samples,
                  seed=cfg.seed + 1000 * i, base=base)
             for i, (_, axis, values, base)
             in enumerate(_parse_sweeps(cfg, _VOLUME_AXIS_NAMES))]
    results, errors = run_tasks("volume_axis", tasks, workers)
    series, fits = [], []
    for res in results:
        if res is None:
            continue
        series.extend(res["series"])
        if res["fit"]:
            fits.append(res["fit"])
    keys = sorted({k for rec in series for k in rec})
    for rec in series:
        for k in keys:
            rec.setdefault(k, "")
    files = [emit_results(series, "csv", out / "volumes.csv", keys)]
    if fits:
        files.append(emit_results(fits, "csv", out / "volume_fits.csv",
                                  ["case", "axis", "exponent", "intercept",
                                   "r_squared"]))
    return files, errors


@register_task("constant_point")
def _constant_point(nx, nt, N0, N1, N2, L1, L2, signs, r, restarts, max_iters,
                    tol, seed, sweep, axis):
    grid = GridSpec(nx=nx, nt=nt, spatial_period=TWO_PI, time_period=TWO_PI)
    regions = BallConeRegions(N=(N0, N1, N2), L=(L1, L2), signs=tuple(signs))
    cfg = AscentConfig(restarts=restarts, max_iters=max_iters, tol=tol, seed=seed)
    m = best_constant(grid, regions.A0, regions.A1, regions.A2,
                      _as_fraction(r), cfg, N=(N0, N1, N2), L=(L1, L2),
                      signs=tuple(signs))
    return {"sweep": sweep, "axis": axis, "N0": N0, "N1": N1, "N2": N2,
            "L1": L1, "L2": L2, "signs": "".join("+" if s > 0 else "-" for s in signs),
            "r": _as_fraction(r), "measured_C": m.measured_C,
            "iterations": m.iterations, "converged": m.converged,
            "restarts": m.restarts, "seed": seed, "degenerate": m.degenerate}


def _parse_signs(raw) -> tuple:
    toks = str(raw).split()
    if len(toks) == 1:
        toks = list(toks[0])
    if len(toks) != 3 or any(t not in "+-" for t in toks):
        raise ConfigError(f"signs must be three of +/-, got {raw!r}")
    return tuple(+1 if t == "+" else -1 for t in toks)


def _run_constants(cfg: ExperimentConfig, workers: int, out: Path):
    grid_sec = cfg.section("grid")
    nx = int(get_value(grid_sec, "nx", 32, section_name="grid"))
    nt = int(get_value(grid_sec, "nt", 64, section_name="grid"))
    ascent = cfg.section("ascent")
    r = get_value(ascent, "r", Fraction(2), section_name="ascent")
    restarts = int(get_value(ascent, "restarts", 6, section_name="ascent"))
    max_iters = int(get_value(ascent, "max_iters", 60, section_name="ascent"))
    tol = float(get_value(ascent, "tol", 1e-7, section_name="ascent"))
    base_signs = _parse_signs(get_value(cfg.section("regions"), "signs", "+ + +",
                                        section_name="regions"))
    alt_raw = get_value(cfg.section("regions"), "compare_signs", None,
                        section_name="regions")
    alt_signs = _parse_signs(alt_raw) if alt_raw else None

    tasks = []
    for sweep_name, axis, values, base in _parse_sweeps(
            cfg, _CONSTANT_AXIS_NAMES, required=True):
        for val in values:
            point = dict(base, **{axis: val})
            for sgn_label, sgn in (("base", base_signs),) + (
                    (("alt", alt_signs),) if alt_signs else ()):
                tasks.append(dict(nx=nx, nt=nt, r=r, restarts=restarts,
                                  max_iters=max_iters, tol=tol,
                                  seed=cfg.seed + 101 * len(tasks),
                                  sweep=f"{sweep_name}:{sgn_label}", axis=axis,
                                  signs=sgn, **point))
    results, errors = run_tasks("constant_point", tasks, workers)
    records = [r_ for r_ in results if r_ is not None]
    cols = ["sweep", "axis", "N0", "N1", "N2", "L1", "L2", "signs", "r",
            "measured_C", "iterations", "converged", "restarts", "seed",
            "degenerate"]
    files = [emit_results(records, "csv", out / "constants.csv", cols)]
    fits = []
    for label in sorted({rec["sweep"] for rec in records}):
        series = [rec for rec in records if rec["sweep"] == label]
        axis = series[0]["axis"]
        xs = [rec[axis] for rec in series]
        ys = [rec["measured_C"] for rec in series]
        if len(set(xs)) >= 3 and all(y > 0 for y in ys):
            f = fit_power_law(np.array(xs, float), np.array(ys, float))
            fits.append({"sweep": label, "axis": axis, "exponent": f.exponent,
                         "intercept": f.intercept, "r_squared": f.r_squared})
    if fits:
        files.append(emit_results(fits, "csv", out / "constant_fits.csv",
                                  ["sweep", "axis", "exponent", "intercept",
                                   "r_squared"]))
    return files, errors


def _single_mode_data(grid: GridSpec, mode, amplitude: float) -> CauchyData:
    x = grid.x_axis
    xx1, xx2 = np.meshgrid(x, x, indexing="ij")
    k1, k2 = mode
    vals = amplitude * np.cos(grid.d_xi * (k1 * xx1 + k2 * xx2))
    f = SpatialField(grid, vals, PHYSICAL)
    g = SpatialField(grid, np.zeros_like(vals), PHYSICAL)
    return CauchyData(f, g)


def _run_solve(cfg: ExperimentConfig, workers: int, out: Path):
    del workers
    grid = _grid_from_config(cfg, default_nx=16, default_nt=8)
    sec = cfg.section("params", required=True)
    kind_name = get_value(sec, "nonlinearity", "full_grad_square",
                          section_name="params")
    direction = get_value(sec, "direction", None, section_name="params")
    kind = Nonlinearity(kind_name, direction)
    amplitude = float(get_value(sec, "amplitude", 1e-3, section_name="params"))
    mode = get_list(sec, "mode", [1, 0], section_name="params")
    T = float(get_value(sec, "t_final", 0.1, section_name="params"))
    solver_cfg = SolverConfig(
        T=T, n_steps=get_value(sec, "n_steps", 64, section_name="params", expect=int),
        picard_tol=float(get_value(sec, "picard_tol", 1e-10, section_name="params")),
        picard_max=get_value(sec, "picard_max", 30, section_name="params", expect=int),
        dealias=get_value(sec, "dealias", True, section_name="params", expect=bool))
    data = _single_mode_data(grid, mode, amplitude)
    traj, report = picard_solve(data, kind, solver_cfg)
    oracle = rk4_solve(data, kind, solver_cfg)
    records = []
    for j, t in enumerate(traj.times):
        diff = spatial_l2(traj.u[j].with_values(traj.u[j].values - oracle.u[j].values))
        records.append({
            "t": float(t),
            "picard_l2_u": spatial_l2(traj.u[j]),
            "picard_l2_ut": spatial_l2(traj.u_t[j]),
            "picard_energy": energy(traj.u[j], traj.u_t[j]),
            "rk4_l2_u": spatial_l2(oracle.u[j]),
            "rk4_energy": energy(oracle.u[j], oracle.u_t[j]),
            "abs_diff_l2": diff,
        })
    files = [emit_results(records, "csv", out / "trajectory.csv")]
    summary = [{
        "converged": report.converged,
        "iterations": len(report.residuals),
        "final_residual": report.residuals[-1] if report.residuals else 0.0,
        "rk4_unstable": oracle.meta.get("unstable", False),
    }]
    files.append(emit_results(summary, "csv", out / "summary.csv"))
    history = [{"iteration": i, "residual": r}
               for i, r in enumerate(report.residuals, start=1)]
    files.append(emit_results(history, "csv", out / "residuals.csv",
                              field_order=["iteration", "residual"]))
    return files, []


def _run_scaling(cfg: ExperimentConfig, workers: int, out: Path):
    del workers
    grid = _grid_from_config(cfg, default_nx=32, default_nt=8)
    sec = cfg.section("params", required=True)
    s_list = get_list(sec, "s", required=True, section_name="params")
    r_list = get_list(sec, "r", required=True, section_name="params")
    if len(s_list) != len(r_list):
        raise ConfigError("s and r lists must zip", section="params", key="r")
    lams = get_list(sec, "lambda", [2, 4], section_name="params")
    band = float(get_value(sec, "band_limit", grid.d_xi * (grid.nx // 4),
                           section_name="params"))
    records = []
    for s, r in zip(s_list, r_list):
        data = random_data(grid, float(s), _as_fraction(r), cfg.seed, band)
        for lam in lams:
            rep = scaling_law_check(data.f, float(s), float(_as_fraction(r)), int(lam))
            records.append({"s": _as_fraction(s), "r": _as_fraction(r),
                            "lambda": int(lam), "ratio": rep.ratio,
                            "predicted": rep.predicted,
                            "rel_error": rep.rel_error, "aliased": rep.aliased})
    files = [emit_results(records, "csv", out / "scaling.csv")]
    return files, []


def _run_strichartz(cfg: ExperimentConfig, workers: int, out: Path):
    del workers
    sec = cfg.section("params", required=True)
    ensemble = int(get_value(sec, "ensemble", 8, section_name="params"))
    q_t = float(get_value(sec, "q_t", 4.0, section_name="params"))
    resolutions = [int(v) for v in get_list(sec, "resolutions", [32, 64, 128, 256],
                                            section_name="params")]
    nt = int(get_value(sec, "nt", 64, section_name="params"))
    probe = strichartz_probe(ensemble, q_t, resolutions, cfg.seed, nt=nt)
    files = [emit_results([dict(rec) for rec in probe.records], "csv",
                          out / "ratios.csv", ["resolution", "seed", "ratio"])]
    medians = [{"resolution": m, "median_ratio": v}
               for m, v in sorted(probe.medians.items())]
    files.append(emit_results(medians, "csv", out / "medians.csv"))
    files.append(emit_results([{"slope": probe.slope}], "csv", out / "slope.csv"))
    return files, []


_RUNNERS = {
    "ledger": _run_ledger,
    "volumes": _run_volumes,
    "constants": _run_constants,
    "solve": _run_solve,
    "scaling": _run_scaling,
    "strichartz": _run_strichartz,
}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def run_experiment(config, workers=None, out_dir=None, seed=None) -> dict:
    """Run one configured experiment; returns the manifest dictionary.

    Writes one CSV per result table plus manifest.json in the output
    directory.  Worker failures preserve partial results and mark the
    manifest incomplete.
    """
    if not isinstance(config, ExperimentConfig):
        config = load_config(config)
    if seed is not None:
        config = ExperimentConfig(kind=config.kind, seed=int(seed),
                                  sections=config.sections, path=config.path,
                                  workers=config.workers, out_dir=config.out_dir)
    # precedence: --workers flag, then CONEWAVE_WORKERS, then the config key
    if workers is None and os.environ.get(WORKERS_ENV) is None:
        workers = config.workers
    workers = resolve_workers(workers)
    out = Path(out_dir if out_dir is not None else config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    started = datetime.datetime.now(datetime.timezone.utc).isoformat()
    errors = []
    files = []
    try:
        files, errors = _RUNNERS[config.kind](config, workers, out)
    except ConfigError:
        raise
    except Exception as exc:
        errors = [f"{type(exc).__name__}: {exc}"]
    finished = datetime.datetime.now(datetime.timezone.utc).isoformat()
    manifest = {
        "kind": config.kind,
        "seed": config.seed,
        "version": __version__,
        "config": config.sections,
        "config_path": config.path,
        "workers": workers,
        "started_at": started,
        "finished_at": finished,
        "complete": not errors,
        "errors": errors,
        "files": [{"name": f.name, "sha256": _sha256(f),
                   "bytes": f.stat().st_size, "records": _record_count(f)}
                  for f in files],
    }
    with open(out / "manifest.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest
