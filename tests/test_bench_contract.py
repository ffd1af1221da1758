"""The benchmark's calls into skyhaul still work.

bench/run.py reaches the package through its module-level names (for
example `apply_config_overrides` with the workload's radio keys and the
planner signatures). Running one small cell here makes a rename that
breaks one of those calls fail the test suite rather than the benchmark.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"

# run.py pins the BLAS thread pools on import, so it runs in its own process
_CELL = f"""
import json, sys
sys.path.insert(0, {str(BENCH_DIR)!r})
import run
sk = run.load_skyhaul()
workload = dict(run.WORKLOADS["tight-link"], sensors=120, seeds=[0])
[scenario] = run.generate(sk, workload)
cell = run.run_cell(sk, scenario, run.Speedometer())
print(json.dumps({{algo: [quality is not None, cause, invalid]
                  for algo, (_, (quality, cause, invalid)) in cell["ops"].items()}}))
"""


def test_bench_cell_solves_every_planner():
    out = subprocess.run([sys.executable, "-c", _CELL], capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    ops = json.loads(out.stdout.strip().splitlines()[-1])
    assert ops == {algo: [True, None, False] for algo in ("pmtp", "ttp", "cstp")}
