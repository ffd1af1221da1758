"""Exact counts repeat, and tracing is transparent.

    python3 bench/check_repeat.py

Runs the first cell of each workload twice with tracing on. The call counts
below and every quality value must be identical between the two runs, and an
untraced run of the same cell must produce the same outcomes bit for bit.
Exits 1 and names the difference otherwise.
"""

from __future__ import annotations

import sys

import run
from spans import Tracer, layer_metrics

EXACT = ("clustering.kmeans_cluster.calls", "clustering.k_tried",
         "tsp.solve_tsp.calls", "tsp.solve_tsp.points",
         "pointmatch.advance_point.calls", "pointmatch.p3_waypoint.calls",
         "pointmatch.nearest_chain_point.calls", "pointmatch.match_pairs.calls",
         "pointmatch.plan.raised")


def traced_cell(sk: dict, speed: run.Speedometer,
                scenario) -> tuple[dict, dict]:
    tracer = Tracer()
    tracer.cell = (0, scenario.rng_seed)
    with tracer.installed(sk):
        cell = run.run_cell(sk, scenario, speed)
    counts = layer_metrics(tracer.spans, tracer.spans)
    return ({k: counts[k] for k in EXACT},
            run.outcomes({scenario.rng_seed: cell}))


def main() -> int:
    sk = run.load_skyhaul()
    speed = run.Speedometer()
    problems = []
    for name, wl in run.WORKLOADS.items():
        scenario = run.generate(sk, dict(wl, seeds=wl["seeds"][:1]))[0]
        counts_a, outcomes_a = traced_cell(sk, speed, scenario)
        counts_b, outcomes_b = traced_cell(sk, speed, scenario)
        untraced = run.outcomes(
            {scenario.rng_seed: run.run_cell(sk, scenario, speed)})
        for key in EXACT:
            if counts_a[key] != counts_b[key]:
                problems.append(f"{name}: {key} {counts_a[key]} then {counts_b[key]}")
        if outcomes_a != outcomes_b:
            problems.append(f"{name}: quality differs between traced runs")
        if outcomes_a != untraced:
            problems.append(f"{name}: traced and untraced outcomes differ")
        print(f"{name} cell {scenario.rng_seed}: " +
              ", ".join(f"{k}={counts_a[k]}" for k in EXACT))
    for p in problems:
        print(f"MISMATCH {p}")
    print("counts and quality repeat exactly" if not problems else
          f"{len(problems)} mismatches")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
