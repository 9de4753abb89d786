"""Experiment orchestration: configs, deterministic sweeps, CSV results.

Configs are flat INI files (sections of key = value pairs), checked against
one schema per experiment kind before any work starts.  The volumes,
constants, ledger and strichartz kinds run as independent seeded tasks over
a worker pool, merged in task order; solve and scaling run in the calling
process.  Numeric payloads are therefore byte-identical for a given
(config, seed) regardless of worker count or scheduling.  Each run writes
one CSV per result table plus a JSON manifest with per-file checksums.
"""

from __future__ import annotations

import configparser
import csv
import datetime
import hashlib
import json
import multiprocessing
import os
import platform
import traceback
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from itertools import islice
from pathlib import Path

import numpy as np

from . import __version__
from .dyadic_ledger import feasible_b
from .frequency_geometry import (HLH_HARD, VOLUME_CASES, VOLUME_EXPONENTS,
                                 region_volume_mc, volume_case_config)
from .nlw_solver import (DIRECTIONS, FULL_GRAD_SQUARE, NONLINEARITY_KINDS,
                         CauchyData, Nonlinearity, SolverConfig,
                         picard_solve, plancherel_energy, plancherel_l2,
                         random_data, rk4_solve, strichartz_ratio)
from .norms import LebesgueExponents, scaling_law_check
from .spectral_grid import PHYSICAL, TWO_PI, GridSpec, SpatialField, is_dyadic
from ._regression import fit_power_law
from .trilinear_forms import AscentConfig, BallConeRegions, best_constant

EXPERIMENT_KINDS = ("volumes", "constants", "ledger", "solve", "scaling",
                    "strichartz")


class ConfigError(ValueError):
    """Invalid experiment configuration; carries the offending key location."""

    def __init__(self, message, section=None, key=None, line=None):
        self.message = message
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

# A key is a (type, default, range) triple.  The type is a (name, parser)
# pair; the parser raises ValueError, LookupError or ArithmeticError on a
# malformed raw string.  The default is the value when the key is absent:
# REQUIRED means it must be given, None that it stays unset.  The range,
# None or a (description, test) pair, holds for the value or for each item
# of a list; its test returns false or raises ValueError outside it.
REQUIRED = object()

INT = ("an integer", int)
# Fraction takes integers, decimals and num/den but no nan, inf or word, and
# float() of a value beyond the float range raises OverflowError
FLOAT = ("a finite number", lambda raw: float(Fraction(raw)))
RATIONAL = ("a rational", Fraction)


def _word(*words) -> tuple:
    return "one of " + ", ".join(words), {w: w for w in words}.__getitem__


def _list_of(item: tuple, length=None, distinct=False) -> tuple:
    """A whitespace-separated nonempty list of item values, as a tuple."""
    def parse(raw):
        values = tuple(map(item[1], raw.split()))
        if (not values or length not in (None, len(values))
                or (distinct and len(set(values)) < len(values))):
            raise ValueError(raw)
        return values
    count = f"{length} " if length else ""
    return f"a list of {count}{'distinct ' * distinct}values, each {item[0]}", parse


POSITIVE = ("> 0", lambda v: v > 0)
NON_NEGATIVE = (">= 0", lambda v: v >= 0)
AT_LEAST_1 = (">= 1", lambda v: v >= 1)
DYADIC = ("2**j", is_dyadic)
GRID_SIZE = ("2**j >= 8", lambda v: is_dyadic(v) and v >= 8)
LEBESGUE = ("in (1, 2]", LebesgueExponents)
SIGNS = _list_of(_word("+", "-"), length=3)

# read by load_config into the config's kind and seed
_EXPERIMENT = {"kind": (_word(*EXPERIMENT_KINDS), REQUIRED, None),
               "seed": (INT, REQUIRED, NON_NEGATIVE)}
# [sweep.<name>] keys per kind: axis name -> key; the config key is the axis
# name in lower case.  An absent volumes axis keeps the case's default.
_VOLUME_AXIS_NAMES = dict.fromkeys(
    ("N1", "L1", "L2"), (_list_of(INT, distinct=True), None, DYADIC))
_CONSTANT_AXIS_NAMES = dict.fromkeys(
    ("N0", "N1", "N2", "L1", "L2"),
    (_list_of(INT, distinct=True), REQUIRED, DYADIC))


def _check_ledger(values, cfg):
    p = values["params"]
    if p["r_min"] >= p["r_max"]:
        # reported at the key the file sets, r_min when it sets both
        key = "r_min" if "r_min" in cfg.section("params") else "r_max"
        raise ConfigError(f"r_min {p['r_min']} must lie below r_max "
                          f"{p['r_max']}", "params", key)


def _check_solve(values, cfg):
    p = values["params"]
    try:
        Nonlinearity(p["nonlinearity"], p["direction"])
    except ValueError as exc:
        raise ConfigError(str(exc), "params", "direction") from None


def _volume_seed(seed: int, sweep_index: int, value_index: int) -> int:
    """Seed of point value_index of the volumes sweep sweep_index (sweeps
    in name order)."""
    return seed + 1000 * sweep_index + value_index


def _check_volumes(values, cfg):
    # every point's seed keys a Philox stream, which takes a uint64
    seed = values["experiment"]["seed"]
    top = max(_volume_seed(seed, i, len(axis_values) - 1)
              for i, (_, _, axis_values, _)
              in enumerate(_parse_sweeps(values, _VOLUME_AXIS_NAMES)))
    if top >= 2 ** 64:
        raise ConfigError(f"must be <= {seed + 2 ** 64 - 1 - top} so that every "
                          f"sweep point's seed (seed + 1000 i + v) fits in "
                          f"uint64, got {seed!r}", "experiment", "seed")


def _check_scaling(values, cfg):
    p = values["params"]
    pairs = list(zip(p["s"], p["r"]))
    if len(p["s"]) != len(p["r"]) or len(set(pairs)) < len(pairs):
        raise ConfigError("s and r lists must zip into distinct pairs",
                          "params", "r")
    nx = values["grid"]["nx"]
    nyquist = float(nx // 2)     # random_data's bound
    if p["band_limit"] is None:     # a quarter of the Nyquist band
        p["band_limit"] = float(nx // 4)
    elif p["band_limit"] >= nyquist:
        raise ConfigError(f"must lie below Nyquist {nyquist}, got "
                          f"{cfg.section('params')['band_limit']!r}",
                          "params", "band_limit")


# kind -> (section -> {key: (type, default, range)}, the [sweep.<name>] axes
# or None, a check of rules across keys or None)
SCHEMAS = {
    "ledger": ({"params": {
        "r_min": (RATIONAL, Fraction(3, 2), ("in [1, 2]", lambda r: 1 <= r <= 2)),
        "r_max": (RATIONAL, Fraction(2), LEBESGUE),
        "r_count": (INT, 50, AT_LEAST_1),
        "s_offsets": (_list_of(RATIONAL, distinct=True), REQUIRED, None)}},
        None, _check_ledger),
    "volumes": ({"params": {
        "case": (_word(*VOLUME_CASES), REQUIRED, None),
        "samples": (INT, 10 ** 6, AT_LEAST_1)}}, _VOLUME_AXIS_NAMES,
        _check_volumes),
    "constants": ({
        "grid": {"nx": (INT, 32, GRID_SIZE), "nt": (INT, 64, GRID_SIZE)},
        "regions": {"signs": (SIGNS, ("+", "+", "+"), None),
                    "compare_signs": (SIGNS, None, None)},
        "ascent": {"r": (RATIONAL, Fraction(2), LEBESGUE),
                   "restarts": (INT, 6, AT_LEAST_1),
                   "max_iters": (INT, 60, AT_LEAST_1),
                   "tol": (FLOAT, 1e-7, POSITIVE)}}, _CONSTANT_AXIS_NAMES, None),
    "solve": ({
        "grid": {"nx": (INT, 16, GRID_SIZE), "nt": (INT, 8, GRID_SIZE)},
        "params": {
            "nonlinearity": (_word(*NONLINEARITY_KINDS), FULL_GRAD_SQUARE, None),
            "direction": (_word(*DIRECTIONS), None, None),
            "amplitude": (FLOAT, 1e-3, None),
            "mode": (_list_of(INT, length=2), (1, 0), None),
            "t_final": (FLOAT, 0.1, POSITIVE),
            "n_steps": (INT, 64, (">= 2", lambda n: n >= 2)),
            "picard_tol": (FLOAT, 1e-10, POSITIVE),
            "picard_max": (INT, 30, AT_LEAST_1)}}, None, _check_solve),
    "scaling": ({
        "grid": {"nx": (INT, 32, GRID_SIZE), "nt": (INT, 8, GRID_SIZE)},
        "params": {"s": (_list_of(RATIONAL), REQUIRED, None),
                   "r": (_list_of(RATIONAL), REQUIRED, LEBESGUE),
                   "lambda": (_list_of(INT, distinct=True), (2, 4), DYADIC),
                   # unset: nx // 4, see _check_scaling
                   "band_limit": (FLOAT, None, POSITIVE)}}, None, _check_scaling),
    "strichartz": ({"params": {
        "ensemble": (INT, 8, AT_LEAST_1),
        "q_t": (FLOAT, 4.0, (">= 4", lambda q: q >= 4)),
        "resolutions": (_list_of(INT, distinct=True), (32, 64, 128, 256),
                        GRID_SIZE),
        "nt": (INT, 64, GRID_SIZE)}}, None, None),
}


def _read_section(name: str, raw: dict, table: dict) -> dict:
    """Typed value of every key of table in section name, whose raw strings
    are raw; an absent key takes its default."""
    for key, text in raw.items():
        if key not in table:
            raise ConfigError(f"unknown key, got {text!r}", name, key)
    values = {}
    for key, ((type_name, parse), default, allowed) in table.items():
        if key not in raw:
            if default is REQUIRED:
                raise ConfigError("missing required key", name, key)
            values[key] = default
            continue
        text = raw[key]
        try:
            value = parse(text.strip())
        except (ValueError, LookupError, ArithmeticError):
            raise ConfigError(f"must be {type_name}, got {text!r}",
                              name, key) from None
        try:
            in_range = allowed is None or all(
                map(allowed[1], value if isinstance(value, tuple) else (value,)))
        except ValueError:
            in_range = False
        if not in_range:
            raise ConfigError(f"must be {allowed[0]}, got {text!r}", name, key)
        values[key] = value
    return values


def _parse_sweeps(values: dict, axes: dict):
    """(sweep name, axis, axis values, base point) per [sweep.<name>] section
    of the resolved values, whose keys are the axes' names in lower case.

    Exactly one axis may take several values; base holds the values of the
    others that are given.
    """
    parsed = []
    for section in sorted(values):
        if section.startswith("sweep."):
            point = {axis: values[section][axis.lower()] for axis in axes
                     if values[section][axis.lower()] is not None}
            varying = [axis for axis, v in point.items() if len(v) > 1]
            if len(varying) != 1:
                raise ConfigError("exactly one axis may vary per sweep", section)
            axis = varying[0]
            parsed.append((section[len("sweep."):], axis, point[axis],
                           {k: v[0] for k, v in point.items() if k != axis}))
    if not parsed:
        raise ConfigError("no [sweep.<name>] sections given")
    return parsed


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    seed: int
    sections: dict                  # section -> {key: raw string}
    path: str | None = None

    def section(self, name) -> dict:
        return self.sections.get(name, {})

    @cached_property
    def values(self) -> dict:
        """section -> {key: typed value} for every key of the kind's schema
        and of each [sweep.<name>] section, checked before any work."""
        if self.kind not in SCHEMAS:
            raise ConfigError(f"kind must be one of {EXPERIMENT_KINDS}, got "
                              f"{self.kind!r}", "experiment", "kind")
        tables, axes, check = SCHEMAS[self.kind]
        tables = dict(tables)
        for name in self.sections:
            if axes and name.startswith("sweep."):
                tables[name] = {axis.lower(): key for axis, key in axes.items()}
            elif name not in tables and name != "experiment":
                raise ConfigError("unknown section", name)
        values = {name: _read_section(name, self.section(name), table)
                  for name, table in tables.items()}
        values["experiment"] = {key: getattr(self, key) for key in _EXPERIMENT}
        if axes:
            _parse_sweeps(values, axes)
        if check:
            check(values, self)
        return values


def _find_line(text: str, section: str, key: str | None = None) -> int | None:
    """Line of key (the whole key, in any case) inside [section], else of
    the [section] header."""
    current, found = None, None
    for number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if line.startswith("["):
            current = line[1:line.rfind("]")]
            if current == section:
                found = number
        elif (current == section and key
              and line.replace(":", "=").split("=")[0].strip().lower() == key):
            return number
    return found


def load_config(path) -> ExperimentConfig:
    """Read an INI config and check it against its kind's schema."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"no such config file: {path}")
    text = path.read_text(encoding="utf-8")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text)
        sections = {name: dict(parser.items(name)) for name in parser.sections()}
        exp = _read_section("experiment", sections.get("experiment", {}),
                            _EXPERIMENT)
        cfg = ExperimentConfig(sections=sections, path=str(path), **exp)
        cfg.values   # the schema pass, here so that errors carry their line
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from exc
    except ConfigError as exc:
        raise ConfigError(exc.message, exc.section, exc.key,
                          _find_line(text, exc.section, exc.key)) from None
    return cfg


def resolve_workers(flag_value=None) -> int:
    """The --workers flag, checked to be an integer >= 1, else the CPUs this
    process may run on (its affinity mask where the platform has one)."""
    if flag_value is None:
        return _affinity_count()
    return _read_section("--workers", {"workers": str(flag_value)},
                         {"workers": (INT, REQUIRED, AT_LEAST_1)})["workers"]


def _affinity_count() -> int:
    """CPUs this process may run on (its affinity mask where the platform
    has one)."""
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
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


def emit_results(records, path, field_order=None) -> Path:
    """Write homogeneous records as CSV (17 significant digits, UTF-8, LF)."""
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
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(field_order)
        for rec in records:
            writer.writerow([format_cell(rec[k]) for k in field_order])
    return path


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    h.update(path.read_bytes())
    return h.hexdigest()


def _record_count(path: Path) -> int:
    with open(path, "r", encoding="utf-8") as fh:
        return max(0, sum(1 for _ in fh) - 1)


# ---------------------------------------------------------------------------
# worker pool
# ---------------------------------------------------------------------------

def _run_task(payload):
    fn, index, kwargs = payload
    try:
        return index, fn(**kwargs), None
    except Exception as exc:   # pragma: no cover - exercised via failure test
        return index, None, f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}"


def run_tasks(fn, task_kwargs: list, workers: int):
    """Deterministic parallel map of fn, a module-level function (it pickles
    by reference), over keyword sets: results returned in task order."""
    payloads = [(fn, i, kw) for i, kw in enumerate(task_kwargs)]
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

def _grid_spec(grid: dict) -> GridSpec:
    return GridSpec(nx=grid["nx"], nt=grid["nt"], spatial_period=TWO_PI,
                    time_period=TWO_PI)


def _ledger_point(r, s):
    interval = feasible_b(r, s - 1)
    return {"r": r, "s": s, "feasible": not interval.empty,
            "b_lo": interval.lo, "b_hi": interval.hi}


def _run_ledger(cfg: ExperimentConfig, workers: int, out: Path):
    p = cfg.values["params"]
    step = (p["r_max"] - p["r_min"]) / p["r_count"]
    tasks = [dict(r=r, s=VOLUME_EXPONENTS[HLH_HARD]["N1"] / r + 1 + off)
             for r in (p["r_min"] + step * (i + 1) for i in range(p["r_count"]))
             for off in p["s_offsets"]]
    results, errors = run_tasks(_ledger_point, tasks, workers)
    records = [r for r in results if r is not None]
    files = [emit_results(records, out / "ledger.csv",
                          ["r", "s", "feasible", "b_lo", "b_hi"])]
    return files, errors


def _fit_sweep(label: str, axis: str, sweep: list, measured: str,
               errors: list) -> dict | None:
    """Axis and power-law fit of one sweep's measured values against its
    axis values, from its task results in order.  None when a task failed,
    whose error errors already holds, or when the fit fails, which is added
    to errors as sweep.<label>: <message>."""
    if None in sweep:
        return None
    try:
        f = fit_power_law([rec[axis] for rec in sweep],
                          [rec[measured] for rec in sweep])
    except ValueError as exc:
        errors.append(f"sweep.{label}: {exc}")
        return None
    return {"axis": axis, "exponent": f.exponent, "intercept": f.intercept,
            "r_squared": f.r_squared}


def _volume_point(case: str, point: dict, samples: int, seed: int) -> dict:
    """volumes.csv row of `case` at one parameter point: every derived
    parameter, the Monte Carlo volume, its standard error, the bound shape
    and the sample count."""
    cfg = volume_case_config(case, **point)
    est = region_volume_mc(cfg["region"], cfg["box"], samples, seed)
    return dict(cfg["params"], case=case, volume=est.mean,
                std_error=est.std_error, bound=cfg["bound"], samples=samples)


def _run_volumes(cfg: ExperimentConfig, workers: int, out: Path):
    p = cfg.values["params"]
    sweeps = _parse_sweeps(cfg.values, _VOLUME_AXIS_NAMES)
    tasks = [dict(case=p["case"], point=dict(base, **{axis: value}),
                  samples=p["samples"], seed=_volume_seed(cfg.seed, i, vi))
             for i, (_, axis, values, base) in enumerate(sweeps)
             for vi, value in enumerate(values)]
    results, errors = run_tasks(_volume_point, tasks, workers)
    series, fits = [], []
    gathered = iter(results)
    for sweep_name, axis, values, _ in sweeps:
        sweep = list(islice(gathered, len(values)))
        series.extend(dict(rec, axis=axis) for rec in sweep if rec is not None)
        fit = _fit_sweep(sweep_name, axis, sweep, "volume", errors)
        if fit:
            fits.append(dict(fit, case=p["case"]))
    keys = sorted({k for rec in series for k in rec})
    files = [emit_results(series, out / "volumes.csv", keys)]
    if fits:
        files.append(emit_results(fits, out / "volume_fits.csv",
                                  ["case", "axis", "exponent", "intercept",
                                   "r_squared"]))
    return files, errors


def _constant_point(nx, nt, N0, N1, N2, L1, L2, signs, r, restarts, max_iters,
                    tol, seed, sweep, axis):
    grid = GridSpec(nx=nx, nt=nt, spatial_period=TWO_PI, time_period=TWO_PI)
    sign_values = tuple(+1 if s == "+" else -1 for s in signs)
    regions = BallConeRegions(N=(N0, N1, N2), L=(L1, L2), signs=sign_values)
    cfg = AscentConfig(restarts=restarts, max_iters=max_iters, tol=tol, seed=seed)
    m = best_constant(grid, regions.A0, regions.A1, regions.A2, r, cfg)
    return {"sweep": sweep, "axis": axis, "N0": N0, "N1": N1, "N2": N2,
            "L1": L1, "L2": L2, "signs": "".join(signs),
            "r": r, "measured_C": m.measured_C,
            "iterations": m.iterations, "converged": m.converged,
            "restarts": restarts, "seed": seed, "degenerate": m.degenerate,
            "trace": m.trace}


def _run_constants(cfg: ExperimentConfig, workers: int, out: Path):
    regions = cfg.values["regions"]
    patterns = [(label, signs) for label, signs in (
        ("base", regions["signs"]), ("alt", regions["compare_signs"])) if signs]
    tasks = []
    for sweep_name, axis, values, base in _parse_sweeps(cfg.values,
                                                         _CONSTANT_AXIS_NAMES):
        for val in values:
            for sgn_label, sgn in patterns:
                tasks.append(dict(cfg.values["grid"], **cfg.values["ascent"],
                                  seed=cfg.seed + 101 * len(tasks),
                                  sweep=f"{sweep_name}:{sgn_label}", axis=axis,
                                  signs=sgn, **dict(base, **{axis: val})))
    results, errors = run_tasks(_constant_point, tasks, workers)
    records = [r_ for r_ in results if r_ is not None]
    key = ["sweep", "N0", "N1", "N2", "L1", "L2", "signs"]
    trace_rows = []
    for rec in records:
        point = {k: rec[k] for k in key}
        trace_rows.extend(dict(point, iteration=i, value=v)
                          for i, v in enumerate(rec.pop("trace"), start=1))
    cols = ["sweep", "axis", "N0", "N1", "N2", "L1", "L2", "signs", "r",
            "measured_C", "iterations", "converged", "restarts", "seed",
            "degenerate"]
    files = [emit_results(records, out / "constants.csv", cols),
             emit_results(trace_rows, out / "ascent_trace.csv",
                          key + ["iteration", "value"])]
    fits = []
    axes = {task["sweep"]: task["axis"] for task in tasks}
    for label in sorted(axes):
        sweep = [res for task, res in zip(tasks, results) if task["sweep"] == label]
        fit = _fit_sweep(label, axes[label], sweep, "measured_C", errors)
        if fit:
            fits.append(dict(fit, sweep=label))
    if fits:
        files.append(emit_results(fits, out / "constant_fits.csv",
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


def _trajectory_records(traj, oracle) -> list:
    """trajectory.csv rows: L2 norms and energies of the Picard trajectory
    and the RK4 oracle at each time, and the L2 norm of their difference in
    u, one vectorised pass per column over the spectral stacks (Plancherel)."""
    grid = traj.grid
    picard_u, picard_ut = plancherel_l2(grid, traj.hats)
    columns = {
        "t": traj.times,
        "picard_l2_u": picard_u,
        "picard_l2_ut": picard_ut,
        "picard_energy": plancherel_energy(grid, *traj.hats),
        "rk4_l2_u": plancherel_l2(grid, oracle.hats[0]),
        "rk4_energy": plancherel_energy(grid, *oracle.hats),
        "abs_diff_l2": plancherel_l2(grid, traj.hats[0] - oracle.hats[0]),
    }
    rows = zip(*(np.asarray(col, dtype=float).tolist() for col in columns.values()))
    return [dict(zip(columns, row)) for row in rows]


def _run_solve(cfg: ExperimentConfig, workers: int, out: Path):
    del workers
    grid = _grid_spec(cfg.values["grid"])
    p = cfg.values["params"]
    kind = Nonlinearity(p["nonlinearity"], p["direction"])
    solver_cfg = SolverConfig(T=p["t_final"], n_steps=p["n_steps"],
                              picard_tol=p["picard_tol"],
                              picard_max=p["picard_max"])
    data = _single_mode_data(grid, p["mode"], p["amplitude"])
    traj, report = picard_solve(data, kind, solver_cfg)
    oracle = rk4_solve(data, kind, solver_cfg)
    records = _trajectory_records(traj, oracle)
    files = [emit_results(records, out / "trajectory.csv")]
    summary = [{
        "converged": report.converged,
        "iterations": len(report.residuals),
        "final_residual": report.residuals[-1] if report.residuals else 0.0,
        "rk4_unstable": oracle.meta.get("unstable", False),
    }]
    files.append(emit_results(summary, out / "summary.csv"))
    history = [{"iteration": i, "residual": r}
               for i, r in enumerate(report.residuals, start=1)]
    files.append(emit_results(history, out / "residuals.csv",
                              field_order=["iteration", "residual"]))
    return files, []


def _run_scaling(cfg: ExperimentConfig, workers: int, out: Path):
    del workers
    grid = _grid_spec(cfg.values["grid"])
    p = cfg.values["params"]
    records = []
    for s, r in zip(p["s"], p["r"]):
        data = random_data(grid, float(s), r, cfg.seed, p["band_limit"])
        for lam in p["lambda"]:
            rep = scaling_law_check(data.f, float(s), float(r), lam)
            records.append({"s": s, "r": r, "lambda": lam, "ratio": rep.ratio,
                            "predicted": rep.predicted,
                            "rel_error": rep.rel_error, "aliased": rep.aliased})
    files = [emit_results(records, out / "scaling.csv")]
    return files, []


def _strichartz_point(resolution, seed, q_t, nt, band_modes):
    """Dispersive ratio of one ensemble member: random data of this seed,
    band-limited to band_modes lattice steps, on the resolution x resolution
    grid."""
    s = 1.75
    grid = GridSpec(nx=resolution, nt=nt, spatial_period=TWO_PI, time_period=1.0)
    data = random_data(grid, s=s, r=2, seed=seed,
                       band_limit=grid.d_xi * band_modes)
    return strichartz_ratio(data, q_t, s=s)


def _run_strichartz(cfg: ExperimentConfig, workers: int, out: Path):
    p = cfg.values["params"]
    # The random data band is pinned at the coarsest grid's capacity and only
    # the lattice refines, so a flat trend certifies that the discrete
    # dispersive-to-data quotient is stable under resolution.
    band = 0.4 * min(p["resolutions"])
    tasks = [dict(resolution=m, seed=cfg.seed + 7919 * m + j, q_t=p["q_t"],
                  nt=p["nt"], band_modes=band)
             for m in p["resolutions"] for j in range(p["ensemble"])]
    ratios, errors = run_tasks(_strichartz_point, tasks, workers)
    records = [{"resolution": task["resolution"], "seed": task["seed"],
                "ratio": ratio}
               for task, ratio in zip(tasks, ratios) if ratio is not None]
    groups = {}
    for rec in records:
        groups.setdefault(rec["resolution"], []).append(rec["ratio"])
    medians = [{"resolution": m, "median_ratio": float(np.median(groups[m]))}
               for m in sorted(groups)]
    slope = (fit_power_law([row["resolution"] for row in medians],
                           [row["median_ratio"] for row in medians]).exponent
             if len(medians) >= 2 else 0.0)
    files = [emit_results(records, out / "ratios.csv",
                          ["resolution", "seed", "ratio"]),
             emit_results(medians, out / "medians.csv",
                          ["resolution", "median_ratio"]),
             emit_results([{"slope": slope}], out / "slope.csv")]
    return files, errors


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

    Writes one CSV per result table plus manifest.json in out_dir
    (default results).  Worker failures preserve partial results and mark
    the manifest incomplete.
    """
    if not isinstance(config, ExperimentConfig):
        config = load_config(config)
    if seed is not None:     # checked as [experiment] seed is
        table = {"seed": _EXPERIMENT["seed"]}
        config = replace(config, seed=_read_section(
            "experiment", {"seed": str(seed)}, table)["seed"])
    config.values     # the schema pass, before any work
    workers = resolve_workers(workers)
    out = Path(out_dir if out_dir is not None else "results")
    out.mkdir(parents=True, exist_ok=True)
    started = datetime.datetime.now(datetime.timezone.utc).isoformat()
    errors = []
    files = []
    try:
        files, errors = _RUNNERS[config.kind](config, workers, out)
    except Exception as exc:
        errors = [f"{type(exc).__name__}: {exc}"]
    finished = datetime.datetime.now(datetime.timezone.utc).isoformat()
    manifest = {
        "kind": config.kind,
        "seed": config.seed,
        "version": __version__,
        "config": {name: {key: [_json_cell(x) for x in v]
                          if isinstance(v, tuple) else _json_cell(v)
                          for key, v in section.items()}
                   for name, section in config.values.items()},
        "config_path": config.path,
        "workers": workers,
        "environment": {"python": platform.python_version(),
                        "numpy": np.__version__,
                        "cpu_affinity": _affinity_count()},
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
