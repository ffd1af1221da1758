"""Command-line front end: scenario generation, planning, parameter sweeps.

Commands:
  generate   write a random scenario JSON file
  plan       cluster, place the relay chain, plan a mission, validate, report
  sweep      completion-time curves over sensor count or G2U threshold

Exit codes: 0 success, 1 a mission validity check failed, 2 usage error,
3 infeasible input (any model.InfeasibleError: radio ranges, clustering or
chain geometry). A sweep writes the rows of every feasible (cell, planner)
and exits 1 if some plan failed a check, else 3 if some were infeasible.
Outputs are deterministic given the flags; the SKYHAUL_WORKERS environment
variable caps the sweep worker pool, whose workers run BLAS on one thread each
unless OMP_NUM_THREADS, OPENBLAS_NUM_THREADS or MKL_NUM_THREADS says otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import pointmatch
from .baselines import plan_cstp, plan_ttp
from .channel import InfeasibleConfigError, coverage_radii
from .clustering import cluster_sensors
from .mission import DIST_TOL_M, evaluate, step_times
from .model import (ChannelParams, InfeasibleError, ScenarioError,
                    ScenarioParseError, apply_config_overrides,
                    generate_scenario, load_json_object, load_scenario,
                    save_scenario)
from .partition import build_topology

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3

_WORKERS_ENV = "SKYHAUL_WORKERS"
_BLAS_THREADS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
_PLANNERS = {"pmtp": pointmatch.plan, "ttp": plan_ttp, "cstp": plan_cstp}
_AXES = ("sensors", "snr-g2u-db")
_SWEEP_HEADER = "axis_value,seed,algo,completion_s,lower_bound_s,flight_s,hover_s\n"


def prepare(scenario):
    """Everything a planner needs: coverage radii, CP clusters, ring topology.

    Raises InfeasibleConfigError when a fleet of two or more UAVs must keep
    adjacent UAVs both within r_u2u and d_safe apart, which no plan can."""
    radii = coverage_radii(scenario.params, scenario.bs_height_m)
    cluster_set = cluster_sensors(scenario, radii)
    topology = build_topology(cluster_set.cps, scenario.bs_position_m, radii)
    if (topology.m_uavs >= 2
            and scenario.d_safe_m - DIST_TOL_M > radii.r_u2u_m + DIST_TOL_M):
        raise InfeasibleConfigError(
            f"d_safe_m {scenario.d_safe_m:g} exceeds the U2U link range "
            f"r_u2u_m {radii.r_u2u_m:g}: adjacent UAVs cannot stay linked")
    return radii, cluster_set, topology


def _radio(args) -> ChannelParams:
    """The default radio model with the --config file's overrides, if any."""
    params = ChannelParams()
    if args.config:
        params = apply_config_overrides(params,
                                        load_json_object(args.config, "config"))
    return params


def cmd_generate(args) -> int:
    scenario = generate_scenario(args.size, args.size, args.sensors,
                                 params=_radio(args), seed=args.seed)
    save_scenario(scenario, args.output)
    print(f"wrote {args.output}: {scenario.n_sensors} sensors over "
          f"{args.size:g} m x {args.size:g} m, seed {args.seed}")
    return EXIT_OK


def _write_outputs(prefix, scenario, radii, cluster_set, topology, plan,
                   report):
    """Writes <prefix>.plan.csv, .report.json, .assignments.csv, .cps.csv."""
    # Python floats throughout: numpy 2 writes a float64's repr as
    # np.float64(...)
    hovers, flights = step_times(plan, cluster_set.hover_s, scenario.v_max_mps)
    with open(f"{prefix}.plan.csv", "w") as f:
        f.write("step,uav,x_m,y_m,duty,hover_s,flight_s\n")
        for i, (waypoints, duties, hover, flight) in enumerate(zip(
                plan.waypoints.tolist(), plan.duties.tolist(),
                hovers.tolist(), flights.tolist())):
            for m, ((x, y), d) in enumerate(zip(waypoints, duties)):
                duty = "escort" if d == -1 else f"collect:{d}"
                f.write(f"{i},{m},{x!r},{y!r},{duty},{hover!r},{flight!r}\n")
    report_json = {
        "completion_s": report.completion_s,
        "flight_s": report.flight_s,
        "hover_s": report.hover_s,
        "lower_bound_s": report.lower_bound_s,
        "gap_ratio": report.gap_ratio,
        "bound_violated": report.bound_violated,
        "all_passed": report.all_passed,
        "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail}
                   for c in report.checks],
        "m_uavs": topology.m_uavs,
        "rings_m": [[r.inner_m, r.outer_m] for r in topology.rings],
        "association": topology.association.tolist(),
        "radii_m": {"r_g2u": radii.r_g2u_m, "r_u2u": radii.r_u2u_m,
                    "r_u2b": radii.r_u2b_m},
        "k_clusters": cluster_set.k,
        "planner": report.planner,
    }
    with open(f"{prefix}.report.json", "w") as f:
        f.write(json.dumps(report_json, indent=1) + "\n")
    with open(f"{prefix}.assignments.csv", "w") as f:
        f.write("sensor_id,cluster_id\n")
        for sensor_id, k in zip(scenario.sensor_ids.tolist(),
                                cluster_set.labels.tolist()):
            f.write(f"{sensor_id},{k}\n")
    sizes = np.bincount(cluster_set.labels, minlength=cluster_set.k)
    with open(f"{prefix}.cps.csv", "w") as f:
        f.write("cluster_id,cp_x_m,cp_y_m,n_members,min_hover_s\n")
        for k, ((x, y), n, hover) in enumerate(zip(
                cluster_set.cps.tolist(), sizes.tolist(),
                cluster_set.hover_s.tolist())):
            f.write(f"{k},{x!r},{y!r},{n},{hover!r}\n")


def cmd_plan(args) -> int:
    scenario = load_scenario(args.scenario)
    if args.config:
        scenario = dataclasses.replace(
            scenario,
            params=apply_config_overrides(scenario.params,
                                          load_json_object(args.config, "config")))
    radii, cluster_set, topology = prepare(scenario)
    plan = _PLANNERS[args.algo](scenario, cluster_set, topology, radii)
    report = evaluate(plan, scenario, topology, radii, cluster_set)
    if args.output:
        _write_outputs(args.output, scenario, radii, cluster_set, topology,
                       plan, report)
    print(f"algo={args.algo} sensors={scenario.n_sensors} "
          f"k={cluster_set.k} m={topology.m_uavs} steps={len(plan.waypoints)}")
    print(f"completion_s={report.completion_s:.3f} "
          f"lower_bound_s={report.lower_bound_s:.3f} "
          f"gap={report.gap_ratio:.2%} flight_s={report.flight_s:.3f} "
          f"hover_s={report.hover_s:.3f}")
    if report.all_passed:
        print(f"checks passed ({len(report.checks)}/{len(report.checks)})")
        return EXIT_OK
    failed = [c.name for c in report.checks if not c.passed]
    print(f"checks FAILED: {', '.join(failed)}", file=sys.stderr)
    for c in report.checks:
        if not c.passed:
            print(f"  {c.name}: {c.detail}", file=sys.stderr)
    return EXIT_VALIDATION


def _parse_values(tokens, axis: str) -> list[float]:
    values = []
    for token in tokens:
        for part in token.split(","):
            if not part:
                continue
            try:
                values.append(float(part))
            except ValueError:
                raise ScenarioParseError(f"bad --values entry {part!r}") from None
    if not values:
        raise ScenarioParseError("--values is empty")
    if axis == "sensors":
        for v in values:
            if not (v.is_integer() and v >= 1):
                raise ScenarioParseError(
                    f"sensor counts must be positive integers, got {v!r}")
    return values


def _sweep_cell(cell):
    """One sweep cell, `(params, n_sensors, size, seed)`, through every
    planner; pure and picklable.

    Returns `(algo, outcome)` per planner in `_PLANNERS` order, the outcome
    being the planner's `EvalReport` or the `InfeasibleError` it raised.
    When `prepare` raises one, every planner's outcome is that error."""
    params, n_sensors, size, seed = cell
    scenario = generate_scenario(size, size, n_sensors, params=params, seed=seed)
    try:
        radii, cluster_set, topology = prepare(scenario)
    except InfeasibleError as e:
        return [(algo, e) for algo in _PLANNERS]
    outcomes = []
    for algo, planner in _PLANNERS.items():
        try:
            plan = planner(scenario, cluster_set, topology, radii)
            outcomes.append(
                (algo, evaluate(plan, scenario, topology, radii, cluster_set)))
        except InfeasibleError as e:
            outcomes.append((algo, e))
    return outcomes


def _sensor_count(text: str) -> int:
    """argparse type of --sensors; argparse reports int()'s ValueError itself."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"sensor count must be at least 1, got {n}")
    return n


def _worker_count() -> int:
    raw = os.environ.get(_WORKERS_ENV, "")
    if not raw:
        usable = getattr(os, "sched_getaffinity", None)
        return len(usable(0)) if usable else os.cpu_count() or 1
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n < 1:
        raise ScenarioParseError(
            f"{_WORKERS_ENV} must be a positive integer, got {raw!r}")
    return n


@contextlib.contextmanager
def _one_blas_thread_each():
    """Sets each BLAS thread count the user has not set to 1 for processes
    started inside the block; the environment is restored on exit."""
    unset = [var for var in _BLAS_THREADS_ENV if var not in os.environ]
    os.environ.update(dict.fromkeys(unset, "1"))
    try:
        yield
    finally:
        for var in unset:
            os.environ.pop(var, None)


def cmd_sweep(args) -> int:
    if args.seeds < 1:
        raise ScenarioParseError("--seeds must be at least 1")
    values = _parse_values(args.values, args.axis)
    # every cell's inputs are checked here, before any worker starts
    params = _radio(args)
    if args.axis == "sensors":
        points = [(params, int(v)) for v in values]
    else:
        points = [(apply_config_overrides(params, {"snr_th_g2u_db": v}),
                   args.sensors) for v in values]
    cells = [(p, n, args.size, seed) for p, n in points
             for seed in range(args.seeds)]
    workers = min(_worker_count(), len(cells))
    if workers > 1:
        # The workers already share the cores, so each runs BLAS on one
        # thread; spawned, they read that from the environment when they
        # start. map() keeps submission order, so the CSV is deterministic.
        with _one_blas_thread_each(), ProcessPoolExecutor(
                max_workers=workers,
                mp_context=multiprocessing.get_context("spawn")) as pool:
            results = list(pool.map(_sweep_cell, cells))
    else:
        results = [_sweep_cell(cell) for cell in cells]
    fmt = (lambda v: str(int(v))) if args.axis == "sensors" else repr
    keys = [(fmt(value), seed) for value in values for seed in range(args.seeds)]
    outcomes = [(*key, algo, outcome) for key, cell in zip(keys, results)
                for algo, outcome in cell]
    reports = [o for o in outcomes if not isinstance(o[-1], InfeasibleError)]
    with open(args.output, "w") as f:
        f.write(_SWEEP_HEADER)
        for value, seed, algo, r in reports:
            f.write(f"{value},{seed},{algo},{r.completion_s!r},"
                    f"{r.lower_bound_s!r},{r.flight_s!r},{r.hover_s!r}\n")
    print(f"wrote {len(reports)} rows to {args.output}")
    for value, seed, algo, e in outcomes:
        if isinstance(e, InfeasibleError):
            print(f"{args.axis}={value} seed={seed} {algo}: infeasible: {e}",
                  file=sys.stderr)
    failed = [o for o in reports if not o[-1].all_passed]
    if failed:
        print("some sweep cells failed validation", file=sys.stderr)
        for value, seed, algo, r in failed:
            checks = ", ".join(c.name for c in r.checks if not c.passed)
            print(f"  {args.axis}={value} seed={seed} {algo}: {checks}",
                  file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_INFEASIBLE if len(reports) < len(outcomes) else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skyhaul",
        description="Multi-UAV relay-chain data collection planning")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a random scenario JSON file")
    gen.add_argument("--sensors", type=_sensor_count, required=True,
                     help="number of sensor nodes")
    gen.add_argument("--size", type=float, default=8000.0,
                     help="square region side in meters (default 8000)")
    gen.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    gen.add_argument("--config", help="JSON file overriding radio defaults")
    gen.add_argument("-o", "--output", required=True,
                     help="scenario file to write")
    gen.set_defaults(func=cmd_generate)

    pln = sub.add_parser("plan",
                         help="cluster, place the chain, plan, validate, report")
    pln.add_argument("scenario", help="scenario JSON file")
    pln.add_argument("--algo", choices=sorted(_PLANNERS), default="pmtp",
                     help="planner to run (default pmtp)")
    pln.add_argument("--config", help="JSON file overriding radio defaults")
    pln.add_argument("-o", "--output",
                     help="output prefix; writes <prefix>.plan.csv, "
                          "<prefix>.report.json, <prefix>.assignments.csv, "
                          "<prefix>.cps.csv")
    pln.set_defaults(func=cmd_plan)

    swp = sub.add_parser("sweep",
                         help="completion-time curves over a parameter axis")
    swp.add_argument("--axis", choices=_AXES, required=True,
                     help="sweep parameter")
    swp.add_argument("--values", nargs="+", required=True,
                     help="axis values (space or comma separated)")
    swp.add_argument("--seeds", type=int, default=10,
                     help="scenario seeds 0..N-1 per value (default 10)")
    swp.add_argument("--sensors", type=_sensor_count, default=1000,
                     help="sensor count for non-sensor axes (default 1000)")
    swp.add_argument("--size", type=float, default=8000.0,
                     help="square region side in meters (default 8000)")
    swp.add_argument("--config", help="JSON file overriding radio defaults")
    swp.add_argument("-o", "--output", required=True, help="CSV file to write")
    swp.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InfeasibleError as e:
        print(f"infeasible: {e}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ScenarioError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
