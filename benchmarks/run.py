"""conewave benchmark: workloads, end-to-end timing and a traced run.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a conewave checkout; the package is imported from
``src/`` (no install step).  Workloads are defined in ``workloads.py`` and
described in BENCHMARK.json.  Each pass runs the workload's operations one
after another from this one process (a closed loop with one client), with
``WORKERS`` pool workers for the experiments that use the pool.

``--trace 0`` reports the end-to-end metrics: the median wall time of a pass
over as many passes as fit in ``--seconds`` (at least one), the median set-up
time of fresh interpreters, and the peak RSS of this process and its
children.  ``--trace 1`` runs one untraced pass at WORKERS and at one worker,
one traced pass at one worker (so that every span is recorded in this
process) and the microbenchmarks, and reports the per-layer metrics.

The last line of stdout is the JSON result; the line before it is the
environment block.  Problems go to stderr.  Spans and the full result are
written under ``.bench_out/``.  Exit status 2 means the checkout lacks the
package or its configs, and nothing was measured.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP threads before numpy loads, so that the worker pool is
# the only parallelism.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("CONEWAVE_WORKERS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKERS = 2
SETUP_REPEATS = 9

SETUP_CODE = """\
import sys, time
t = time.perf_counter()
import conewave
from conewave.experiments import load_config
for path in sys.argv[1:]:
    load_config(path)
print(time.perf_counter() - t)
"""

LAYER_METRICS = (
    ("spectral_grid.transform", ("calls", "self_s", "points")),
    ("spectral_grid.region_mask", ("calls", "self_s")),
    ("trilinear_forms.best_constant", ("calls", "self_s", "iterations")),
    ("nlw_solver.picard_solve", ("calls", "self_s", "iterations")),
    ("nlw_solver.duhamel_apply", ("calls", "self_s")),
    ("nlw_solver.nonlinearity_eval", ("calls", "self_s")),
    ("nlw_solver.rk4_solve", ("self_s",)),
    ("nlw_solver.free_solution", ("calls", "self_s")),
    ("nlw_solver.gradient_magnitude_trajectory", ("calls", "self_s")),
    ("nlw_solver.random_data", ("self_s",)),
    ("norms.mixed_norm", ("self_s",)),
    ("norms.fl_norm", ("self_s",)),
    ("frequency_geometry.region_volume_mc", ("calls", "self_s", "samples")),
    ("dyadic_ledger.feasible_b", ("calls", "self_s")),
    ("norms.scaling_law_check", ("self_s",)),
    ("experiments.emit_results", ("calls", "self_s", "bytes")),
    ("experiments.run_experiment", ("self_s",)),
)
UNITS = {"calls": "count", "self_s": "s", "points": "count", "iterations": "count",
         "samples": "count", "bytes": "B"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def environment(args):
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "workers": WORKERS, "seed": args.seed, "workload": args.workload,
            "trace": args.trace, "threads": {v: os.environ[v] for v in THREAD_VARS}}


def measure_setup(paths):
    """Median seconds for a fresh interpreter to import conewave and load the
    workload's configs, after one unmeasured start that fills the caches."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", SETUP_CODE] + [str(p) for p in paths]
    times = []
    for _ in range(SETUP_REPEATS + 1):
        done = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, check=True, timeout=60)
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times[1:])


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0          # ru_maxrss is in KiB on Linux


def run_pass(ops, seed, workers, workdir):
    """One closed-loop pass; returns (seconds, problems per operation)."""
    shutil.rmtree(workdir, ignore_errors=True)
    outcomes = []
    start = time.perf_counter()
    for op in ops:
        try:
            outcomes.append(op.execute(workdir / op.name, seed, workers))
        except Exception as exc:                 # a failed operation, not a crash
            outcomes.append(exc)
    elapsed = time.perf_counter() - start
    problems = []
    for op, outcome in zip(ops, outcomes):
        if isinstance(outcome, Exception):
            found = ["raised " + "".join(traceback.format_exception(outcome))]
        else:
            try:
                found = op.check(outcome, workdir / op.name, seed)
            except Exception as exc:             # unreadable or corrupt output
                found = [f"check raised {type(exc).__name__}: {exc}"]
        problems.append([f"{op.name}: {p}" for p in found])
    return elapsed, problems


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, problems):
        self.attempted += len(problems)
        self.failed += sum(1 for found in problems if found)
        for found in problems:
            self.problems.extend(found)


def end_to_end(args, ops, tally, workdir):
    import workloads
    setup_s = measure_setup(workloads.config_paths(args.workload, ROOT))
    samples = []
    start = time.perf_counter()
    while True:
        elapsed, problems = run_pass(ops, args.seed, WORKERS, workdir)
        tally.add(problems)
        samples.append(elapsed)
        if time.perf_counter() - start + elapsed > args.seconds:
            break
    metrics = {
        "wall_s": (statistics.median(samples), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return metrics, {"wall_s_samples": samples}


def per_layer(args, ops, tally, workdir):
    import micro
    import tracing
    wall_par, problems = run_pass(ops, args.seed, WORKERS, workdir)
    tally.add(problems)
    wall_serial, problems = run_pass(ops, args.seed, 1, workdir)
    tally.add(problems)
    tracer = tracing.Tracer()
    with tracer.instrument():
        wall_traced, problems = run_pass(ops, args.seed, 1, workdir)
    tally.add(problems)
    tracer.write(OUT / f"spans_{args.workload}.json")

    layers = tracer.summary()
    metrics = {}
    for name, stats in LAYER_METRICS:
        entry = layers.get(name, {})
        for stat in stats:
            metrics[f"{name}.{stat}"] = (entry.get(stat, 0), UNITS[stat])
    points = metrics["spectral_grid.transform.points"][0]
    metrics["spectral_grid.transform.computed_bytes"] = (32 * points, "B")
    serial_tasks = layers.get("experiments.run_tasks", {}).get("total_s", 0.0)
    metrics["experiments.parallel_efficiency"] = (
        serial_tasks / (WORKERS * wall_par), "ratio")
    for name, value in micro.micro_benchmarks(args.seed).items():
        metrics[name] = (value, "s")
    metrics["trace_overhead_frac"] = (wall_traced / wall_serial - 1.0, "ratio")
    detail = {"wall_s_workers": wall_par, "wall_s_serial": wall_serial,
              "wall_s_traced": wall_traced, "spans": len(tracer.spans),
              "layers": layers}
    return metrics, detail


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "conewave" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"benchmark: no conewave package or configs under {ROOT}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import conewave
    if Path(conewave.__file__).resolve().parent != SRC / "conewave":
        print(f"benchmark: imported conewave from {conewave.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = OUT / args.workload
    ops = workloads.operations(args.workload, ROOT)
    tally = Tally()
    measure = per_layer if args.trace else end_to_end
    metrics, detail = measure(args, ops, tally, workdir)
    shutil.rmtree(workdir, ignore_errors=True)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != expected:
        print(f"benchmark: metrics {sorted(set(metrics) ^ expected)} disagree with "
              f"BENCHMARK.json", file=sys.stderr)
        return 1

    env = environment(args)
    failed_frac = tally.failed / tally.attempted
    full = {"environment": env, "attempted": tally.attempted,
            "failed": tally.failed, "failed_frac": failed_frac,
            "problems": tally.problems, "detail": detail,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    (OUT / f"result_{args.workload}_trace{args.trace}.json").write_text(
        json.dumps(full, indent=2, sort_keys=True) + "\n")
    for problem in tally.problems:
        print(f"benchmark: {problem}", file=sys.stderr)
    print(json.dumps({"environment": env, "failed_frac": failed_frac,
                      "samples": len(detail.get("wall_s_samples", ()))},
                     sort_keys=True))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": full["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
