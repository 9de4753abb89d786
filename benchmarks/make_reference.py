"""Regenerate the reference tables in ``reference/`` at seed offset 0.

    python3 benchmarks/make_reference.py

Run from the root of a checkout, and only when a change is meant to alter
the experiments' outputs; say so in the change that commits the new tables.
"""

import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def main():
    work = ROOT / ".bench_out" / "reference"
    shutil.rmtree(work, ignore_errors=True)
    for name in workloads.WORKLOADS:
        for op in workloads.operations(name, ROOT):
            outcome = op.execute(work / op.name, 0, 2)
            target = workloads.REFERENCE_DIR / op.name
            if op.name == workloads.PROBE:
                rows = workloads.probe_rows(outcome)
                target.with_suffix(".json").write_text(json.dumps(rows, indent=2) + "\n")
                continue
            if not outcome["complete"]:
                raise SystemExit(f"{op.name}: {outcome['errors']}")
            target.mkdir(parents=True, exist_ok=True)
            for entry in outcome["files"]:
                shutil.copyfile(work / op.name / entry["name"], target / entry["name"])
    shutil.rmtree(work)


if __name__ == "__main__":
    main()
