"""The benchmark's calls into skyhaul still work.

bench/run.py reaches the package through its module-level names (for
example `apply_config_overrides` with the workload's radio keys and the
planner signatures). Running one small cell here makes a rename that
breaks one of those calls fail the test suite rather than the benchmark.
bench/spans.py also counts calls made through some of those names, so the
package must keep making them. Three such sites are stale, and
`installed()` skips each: spans.py wraps `pointmatch.solve_tsp` and
`mission.solve_tsp`, but the ring tours come from `partition.build_topology`
and neither module imports the solver, so `tsp.solve_tsp` counts ttp's
global tour alone; and it wraps `clustering.min_hover_time`, but the k
search takes every cluster's hover from one `channel.upload_times` pass, so
`channel.min_hover_time.calls` and `.s` read 0. A benchmark change renames
them (ROADMAP item 5).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np

from skyhaul import clustering, pointmatch
from skyhaul.channel import coverage_radii
from skyhaul.cli import prepare
from skyhaul.model import (ChannelParams, apply_config_overrides,
                           generate_scenario)

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
    # per run and `clustering.k_tried` the distinct k. The search makes one
    # call per k, so the two are equal. A k search that ran Lloyd another way
    # would zero both, and bench/check_repeat.py, which only checks that
    # counts repeat, would still pass.
    real = clustering.kmeans_cluster
    calls = []

    def spy(*args, **kwargs):
        result = real(*args, **kwargs)
        calls.append((args, kwargs, result))
        return result

    monkeypatch.setattr(clustering, "kmeans_cluster", spy)
    for seed in (1, 3):
        calls.clear()
        sc = generate_scenario(8000.0, 8000.0, 200, seed=seed)
        radii = coverage_radii(sc.params, sc.bs_height_m)
        clusters = clustering.cluster_sensors(sc, radii)
        points = sc.sensor_positions
        ks = [args[1] for args, _, _ in calls]
        assert all(type(k) is int for k in ks)
        floor = max(-(-sc.n_sensors // sc.n_th),
                    len(clustering._packing_set(points, radii.r_g2u_m)))
        assert ks == list(range(floor, floor + len(calls)))
        assert len(ks) > 1
        # the first run starts from the seeding [rng_seed, k, 0] at the floor,
        # each later one from the run before's centroids plus one sensor
        inits = [kwargs["init"] for _, kwargs, _ in calls]
        assert np.array_equal(inits[0], clustering._kmeanspp_seeds(
            points, floor, np.random.default_rng([seed, floor, 0])))
        for (_, _, (_, cents)), init in zip(calls, inits[1:]):
            assert np.array_equal(init[:-1], cents)
            assert (points == init[-1]).all(axis=1).any()
        last_labels = calls[-1][2][0]
        assert np.array_equal(np.unique(last_labels, return_inverse=True)[1],
                              clusters.labels)


def test_pmtp_calls_its_solvers_through_the_module_names(monkeypatch):
    # spans.py wraps `pointmatch.p3_waypoint`, `advance_point` and
    # `nearest_chain_point` and counts the calls made through those names.
    # A planner that reached its solvers another way would zero the counts,
    # and bench/check_repeat.py, which only checks that counts repeat, would
    # still pass. One `wide` cell calls all three.
    counts = {}
    for name in ("p3_waypoint", "advance_point", "nearest_chain_point"):
        real = getattr(pointmatch, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        counts[name] = 0
        monkeypatch.setattr(pointmatch, name, counted)
    workload = json.loads((BENCH_DIR / "workloads.json").read_text())[
        "workloads"]["wide"]
    params = apply_config_overrides(ChannelParams(), workload["radio"])
    scenario = generate_scenario(workload["size_m"], workload["size_m"],
                                 workload["sensors"], params=params,
                                 seed=workload["seeds"][0])
    radii, cluster_set, topology = prepare(scenario)
    pointmatch.plan(scenario, cluster_set, topology, radii)
    assert all(n > 0 for n in counts.values()), counts
