"""The benchmark's calls into skyhaul still work.

bench/run.py reaches the package through its module-level names (for
example `apply_config_overrides` with the workload's radio keys and the
planner signatures). Running one small cell here makes a rename that
breaks one of those calls fail the test suite rather than the benchmark.
bench/spans.py also counts calls made through some of those names, so the
package must keep making them.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np

from skyhaul import clustering
from skyhaul.channel import coverage_radii
from skyhaul.model import generate_scenario

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


def test_k_search_calls_kmeans_through_the_module_name(monkeypatch):
    # spans.py wraps `clustering.kmeans_cluster` and reads k from its second
    # positional argument: `clustering.kmeans_cluster.calls` counts one call
    # per (k, attempt) and `clustering.k_tried` the distinct k. A k search
    # that ran Lloyd another way would zero both, and bench/check_repeat.py,
    # which only checks that counts repeat, would still pass.
    real = clustering.kmeans_cluster
    calls = []

    def spy(*args, **kwargs):
        result = real(*args, **kwargs)
        calls.append((args, result))
        return result

    monkeypatch.setattr(clustering, "kmeans_cluster", spy)
    for seed, accepted_attempt in ((1, 0), (3, 1)):
        calls.clear()
        sc = generate_scenario(8000.0, 8000.0, 200, seed=seed)
        radii = coverage_radii(sc.params, sc.bs_height_m)
        clusters = clustering.cluster_sensors(sc, radii)
        ks = [args[1] for args, _ in calls]
        assert all(type(k) is int for k in ks)
        tried = list(range(ks[0], clusters.k + 1))
        assert len(tried) > 1
        attempts = [(k, a) for k in tried[:-1]
                    for a in range(clustering._SEED_ATTEMPTS)]
        attempts += [(clusters.k, a) for a in range(accepted_attempt + 1)]
        assert ks == [k for k, _ in attempts]
        # call i is attempt a at k: the run that seeding [rng_seed, k, a] gives
        for (args, (labels, cents)), (k, a) in zip(calls, attempts):
            init = clustering._kmeanspp_seeds(
                args[0], k, [np.random.default_rng([seed, k, a])])[0]
            ref_labels, ref_cents = real(args[0], k, init)
            assert np.array_equal(labels, ref_labels)
            assert np.array_equal(cents, ref_cents)
        assert np.array_equal(calls[-1][1][0], clusters.labels)
