"""Benchmark-side span tracing of conewave's public layer functions.

The traced run replaces each function named in LAYERS by a wrapper in every
``conewave`` module that bound the original (``experiments.picard_solve`` and
``nlw_solver.picard_solve`` are the same function imported twice), so calls
between layers are recorded without touching the package.  Spans
``[name, start, end, parent]`` stay in memory and are written out once at the
end; a span's self time is its duration minus the time its direct children
cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from collections import defaultdict

# (module, function) -> extra per-call stats taken from the return value.
# run_tasks is traced only to give the serial task time for parallel
# efficiency.
LAYERS = {
    ("spectral_grid", "transform"): {"points": lambda r: r.values.size},
    ("spectral_grid", "region_mask"): {},
    ("trilinear_forms", "best_constant"): {"iterations": lambda r: r.iterations},
    ("nlw_solver", "picard_solve"): {"iterations": lambda r: len(r[1].residuals)},
    ("nlw_solver", "duhamel_apply"): {},
    ("nlw_solver", "nonlinearity_eval"): {},
    ("nlw_solver", "rk4_solve"): {},
    ("nlw_solver", "free_solution"): {},
    ("nlw_solver", "gradient_magnitude_trajectory"): {},
    ("nlw_solver", "random_data"): {},
    ("norms", "mixed_norm"): {},
    ("norms", "fl_norm"): {},
    ("norms", "scaling_law_check"): {},
    ("frequency_geometry", "region_volume_mc"): {"samples": lambda r: r.samples},
    ("dyadic_ledger", "feasible_b"): {},
    ("experiments", "emit_results"): {"bytes": lambda r: r.stat().st_size},
    ("experiments", "run_experiment"): {},
    ("experiments", "run_tasks"): {},
}


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans = []                       # [name, start, end, parent index]
        self.counts = defaultdict(lambda: defaultdict(int))
        self._stack = []

    def wrap(self, name, fn, stats):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            for stat, measure in stats.items():
                self.counts[name][stat] += measure(result)
            return result
        return traced

    @contextlib.contextmanager
    def instrument(self, layers=LAYERS):
        """Rebind a wrapper for each layer function while the block runs."""
        restore = []
        try:
            for (module, func), stats in layers.items():
                original = getattr(importlib.import_module(f"conewave.{module}"), func)
                wrapper = self.wrap(f"{module}.{func}", original, stats)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name != "conewave" and not mod_name.startswith("conewave."):
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            restore.append((mod, attr, original))
            yield self
        finally:
            for mod, attr, original in reversed(restore):
                setattr(mod, attr, original)

    def summary(self):
        """name -> {"calls", "self_s", "total_s", plus the layer's stats}."""
        out = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        for (name, start, end, _), own in zip(self.spans, self_times(self.spans)):
            entry = out[name]
            entry["calls"] += 1
            entry["self_s"] += own
            entry["total_s"] += end - start
        for name, stats in self.counts.items():
            out[name].update(stats)
        return dict(out)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh, separators=(",", ":"))


def covered_length(intervals, lo, hi):
    """Length of the union of [start, end] intervals clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans):
    """Per span: duration minus the time covered by its direct children."""
    children = defaultdict(list)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [end - start - covered_length(children[i], start, end)
            for i, (_, start, end, _) in enumerate(spans)]
