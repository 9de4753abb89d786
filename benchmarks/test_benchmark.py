"""Tests of the benchmark itself:  python3 -m pytest benchmarks -q"""

import dataclasses
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_self_times_subtract_union_of_direct_children():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["c", 2.0, 3.0, 1],       # grandchild: counts against a, not root
        ["b", 5.0, 9.0, 0],
        ["d", 5.0, 7.0, 3],
        ["e", 6.0, 8.0, 3],       # overlaps d: their union covers 3 s of b
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 1.0, 2.0, 2.0])


def test_covered_length_clips_to_the_parent():
    assert tracing.covered_length([(-1.0, 1.0), (0.5, 2.0), (3.0, 9.0)], 0.0, 4.0) \
        == pytest.approx(3.0)


def test_instrument_rebinds_every_importer_and_restores():
    from conewave import GridSpec, nlw_solver, spectral_grid
    import conewave
    original = spectral_grid.transform
    grid = GridSpec(nx=16, nt=8, spatial_period=2 * math.pi, time_period=2 * math.pi)
    data = nlw_solver.random_data(grid, s=1.75, r=2, seed=1, band_limit=4.0)
    tracer = tracing.Tracer()
    layers = {("spectral_grid", "transform"): tracing.LAYERS[("spectral_grid", "transform")],
              ("nlw_solver", "free_solution"): {}}
    with tracer.instrument(layers):
        assert conewave.transform is spectral_grid.transform is not original
        nlw_solver.free_solution(data, 0.25)
    assert conewave.transform is spectral_grid.transform is original
    summary = tracer.summary()
    # random data is spectral already: only u and u_t are transformed back
    assert summary["spectral_grid.transform"]["calls"] == 2
    assert summary["spectral_grid.transform"]["points"] == 2 * 16 * 16
    assert summary["nlw_solver.free_solution"]["calls"] == 1
    root = [s for s in tracer.spans if s[0] == "nlw_solver.free_solution"][0]
    assert all(s[3] == tracer.spans.index(root) for s in tracer.spans if s is not root)


def _ledger_op(corrupt=None):
    op = next(op for op in workloads.operations("volumes", ROOT) if op.name == "ledger")
    if corrupt is None:
        return op

    def execute(out, seed, workers):
        manifest = op.execute(out, seed, workers)
        path = out / "ledger.csv"
        path.write_text(corrupt(path.read_text()))
        return manifest

    return dataclasses.replace(op, name="corrupted_ledger", execute=execute)


def _tally(ops, tmp_path):
    tally = run.Tally()
    _, problems = run.run_pass(ops, 0, 1, tmp_path / "work")
    tally.add(problems)
    return tally


def test_clean_operation_passes(tmp_path):
    tally = _tally([_ledger_op()], tmp_path)
    assert (tally.attempted, tally.failed, tally.problems) == (1, 0, [])


def flip_first_verdict(text):
    return text.replace("false", "true", 1)


def truncate(text):
    return text.splitlines()[0] + "\n151/100,oops\n"


@pytest.mark.parametrize("corrupt", [flip_first_verdict, truncate])
def test_corrupted_output_counts_as_failed_operation(tmp_path, corrupt):
    tally = _tally([_ledger_op(), _ledger_op(corrupt)], tmp_path)
    assert (tally.attempted, tally.failed) == (2, 1)
    assert tally.problems
    assert all(p.startswith("corrupted_ledger:") for p in tally.problems)


def test_raising_operation_counts_as_failed(tmp_path):
    def execute(out, seed, workers):
        raise RuntimeError("boom")
    op = dataclasses.replace(_ledger_op(), execute=execute)
    tally = _tally([op], tmp_path)
    assert (tally.attempted, tally.failed) == (1, 1)
    assert "RuntimeError: boom" in tally.problems[0]


def test_reference_mismatch_is_reported():
    rows = [{"a": "1", "x": "1.0"}]
    assert workloads.compare_rows(rows, rows, {"x": (1e-9, 0.0)}) == []
    moved = [{"a": "1", "x": "1.1"}]
    assert workloads.compare_rows(moved, rows, {"x": (1e-9, 0.0)})
    assert workloads.compare_rows(moved, rows, {"x": (0.2, 0.0)}) == []
    assert workloads.compare_rows([{"a": "2", "x": "1.0"}], rows, {})
