"""Untraced end-to-end time of each CLI kind at its shipped config.

    python3 benchmarks/cli_times.py [repeats]

Run from the root of a checkout.  Each command is ``python3 -m conewave.cli
<kind> --config configs/<name>.ini --workers 2``, timed from process start to
exit; the median over ``repeats`` (default 3) is printed as JSON.  This is
the cross-check of the per-kind table in ROADMAP.md, kept in baseline.json.
"""

import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ("ledger", "volumes_hard", "volumes_easy", "constants", "solve",
           "scaling", "strichartz")


def main(repeats=3):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("CONEWAVE_WORKERS", None)
    out = ROOT / ".bench_out" / "cli"
    times = {}
    for name in CONFIGS:
        kind = "volumes" if name.startswith("volumes") else name
        cmd = [sys.executable, "-m", "conewave.cli", kind, "--config",
               f"configs/{name}.ini", "--workers", "2", "--out", str(out / name)]
        samples = []
        for _ in range(repeats):
            start = time.perf_counter()
            subprocess.run(cmd, cwd=ROOT, env=env, check=True, capture_output=True)
            samples.append(time.perf_counter() - start)
        times[name] = round(statistics.median(samples), 3)
    shutil.rmtree(out)
    print(json.dumps(times, indent=2))


if __name__ == "__main__":
    main(*(int(a) for a in sys.argv[1:]))
