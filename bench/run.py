"""skyhaul benchmark: sweep-cell throughput, plan latency and plan quality.

    python3 bench/run.py --workload paper --seed 0 --seconds 30 --trace 0

A cell is one generated scenario, driven the way a `skyhaul sweep` cell runs
it, in this process on one thread: `coverage_radii` -> `cluster_sensors` ->
`build_topology`, then for each of pmtp, ttp and cstp the planner followed by
`mission.evaluate`. One operation is one (cell, planner) run. A run makes
passes over the workload's cells until --seconds have elapsed; every cell
runs at least once.

The workload's scenario seeds are fixed in workloads.json; --seed only
shuffles the order in which the cells run. Every operation goes through a
correctness gate outside the timed region: it fails if it raises, if one of
the six validity checks fails, if the completion time falls below the lower
bound, or if `check_cluster_set` finds a problem with its cell. `attempted`
and `failed` count each (cell, planner) operation once, however many passes
re-time it, so they are the same on every run of a workload. An output
that is invalid (as opposed to an exception), or an outcome that differs
from the first pass, makes the run incorrect.

Timings are corrected for the host's speed. On a shared machine the same
code runs up to a third faster or slower from one minute to the next, and
no run length averages that out. A fixed calibration kernel (numpy plus a
Python loop, like the pipeline, and independent of skyhaul) is timed between
the timed segments of every cell and around every set-up probe; each
measured time is multiplied by `Speedometer.REF_S` over the mean kernel time
on either side of it. The times reported are therefore those of a host on
which the kernel takes REF_S; the uncorrected ones go to bench/results/ and
to a stdout line. Per-layer times are not corrected.

--trace 0 prints the end-to-end metrics. --trace 1 makes one untraced pass,
then whole traced passes, and prints the per-layer metrics of spans.py for
one pass (median over the traced passes) plus the tracing overhead: the
untraced pass's cells per minute over the traced passes', minus one. The
traced outcomes must equal the untraced ones bit for bit.

The last stdout line is the JSON result; bench/results/ receives the full
record (environment, failure causes, per-cell quality, spans). The `skyhaul`
CLI (argparse, CSV writing, the sweep process pool) is not measured.
"""

from __future__ import annotations

import os

# pin BLAS/OpenMP pools before numpy is imported, here and in setup probes
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import math
import platform
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
RESULTS = BENCH_DIR / "results"
SPEC = json.loads((BENCH_DIR / "workloads.json").read_text())
WORKLOADS = SPEC["workloads"]
MODULES = ("baselines", "channel", "clustering", "mission", "model",
           "partition", "pointmatch")
PLANNERS = (("pmtp", "pointmatch", "plan"),
            ("ttp", "baselines", "plan_ttp"),
            ("cstp", "baselines", "plan_cstp"))
SETUP_PROBES = 10       # fresh processes timing the set-up


def load_skyhaul() -> dict:
    """Import skyhaul from this checkout's src/, never from an installed copy."""
    if not (SRC / "skyhaul" / "__init__.py").is_file():
        raise SystemExit(f"bench: no skyhaul package under {SRC}")
    sys.path.insert(0, str(SRC))
    return {name: importlib.import_module(f"skyhaul.{name}") for name in MODULES}


def generate(sk: dict, wl: dict) -> list:
    model = sk["model"]
    params = model.ChannelParams()
    if wl["radio"]:
        params = model.apply_config_overrides(params, wl["radio"])
    return [model.generate_scenario(wl["size_m"], wl["size_m"], wl["sensors"],
                                    params=params, seed=s)
            for s in wl["seeds"]]


class Speedometer:
    """Times a fixed kernel whose speed tracks the host's momentary speed."""

    REF_S = 0.0065      # kernel time on the host the benchmark reports for

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self._points = rng.uniform(0.0, 1.0, (600, 2))
        self._centres = rng.uniform(0.0, 1.0, (20, 2))

    def sample(self) -> float:
        t0 = perf_counter()
        for _ in range(12):
            d2 = ((self._points[:, None, :] - self._centres[None, :, :]) ** 2
                  ).sum(axis=2)
            labels = d2.argmin(axis=1)
            for j in range(len(self._centres)):
                self._points[labels == j].sum()
        return perf_counter() - t0

    def correction(self, k_before: float, k_after: float) -> float:
        """Factor taking a time measured between two kernel samples to REF_S."""
        return 2.0 * self.REF_S / (k_before + k_after)


def setup_probe(workload: str) -> float:
    """Seconds to import skyhaul and generate the workload, in a fresh process."""
    t0 = perf_counter()
    generate(load_skyhaul(), WORKLOADS[workload])
    return perf_counter() - t0


def _run_probe(code: str) -> float:
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


def probe_setup(workload: str, speed: Speedometer) -> tuple[float, float]:
    """Median set-up seconds over fresh processes: speed-corrected, raw."""
    code = (f"import sys; sys.path.insert(0, {str(BENCH_DIR)!r}); import run; "
            f"print(run.setup_probe({workload!r}))")
    corrected, raw = [], []
    for _ in range(SETUP_PROBES):
        k_before = speed.sample()
        setup_s = _run_probe(code)
        corrected.append(setup_s * speed.correction(k_before, speed.sample()))
        raw.append(setup_s)
    return statistics.median(corrected), statistics.median(raw)


def _cause(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def run_cell(sk: dict, scenario, speed: Speedometer) -> dict:
    """One timed cell, then its correctness gate.

    The speed kernel runs between the timed segments (preamble, then each
    planner with its evaluate), so each segment is corrected by the mean of
    the kernel times on either side of it. Returns the preamble's (raw,
    corrected) seconds and per planner its (raw, corrected) seconds and an
    outcome: (completion, flight, hover, lower bound, gap) or None, the
    failure cause or None, and whether the output was invalid.
    """
    channel, clustering, partition, mission = (
        sk["channel"], sk["clustering"], sk["partition"], sk["mission"])
    k_before = speed.sample()

    def lap(t0: float) -> tuple[float, float]:
        nonlocal k_before
        elapsed = perf_counter() - t0
        k_after = speed.sample()
        corrected = elapsed * speed.correction(k_before, k_after)
        k_before = k_after
        return elapsed, corrected

    t0 = perf_counter()
    try:
        radii = channel.coverage_radii(scenario.params, scenario.bs_height_m)
        clusters = clustering.cluster_sensors(scenario, radii)
        topology = partition.build_topology(clusters.cp_array(),
                                            scenario.bs_position_m, radii)
    except Exception as e:
        return {"pre": lap(t0),
                "ops": {algo: ((0.0, 0.0), (None, _cause(e), False))
                        for algo, _, _ in PLANNERS}}
    pre = lap(t0)
    runs = {}
    for algo, mod, fn in PLANNERS:
        t0 = perf_counter()
        try:
            plan = getattr(sk[mod], fn)(scenario, clusters, topology, radii)
            report = mission.evaluate(plan, scenario, topology, radii, clusters)
        except Exception as e:
            report = e
        runs[algo] = (lap(t0), report)

    cluster_problems = clustering.check_cluster_set(scenario, clusters, radii)
    ops = {}
    for algo, (times, rep) in runs.items():
        if isinstance(rep, Exception):
            ops[algo] = (times, (None, _cause(rep), False))
            continue
        quality = (rep.completion_s, rep.flight_s, rep.hover_s,
                   rep.lower_bound_s, rep.gap_ratio)
        failed = [c.name for c in rep.checks if not c.passed]
        if rep.bound_violated:
            failed.append("bound_violated")
        failed += [f"cluster set: {p}" for p in cluster_problems]
        ops[algo] = (times, (quality, ", ".join(failed) or None, bool(failed)))
    return {"pre": pre, "ops": ops}


def run_passes(sk: dict, speed: Speedometer, scenarios: list,
               order: list[int], seconds: float, tracer=None,
               whole: bool = False) -> list[dict]:
    """Passes over the cells in `order` until `seconds` have elapsed. The
    first pass is always complete; a later one stops at the deadline unless
    `whole` is set."""
    passes = []
    deadline = perf_counter() + seconds
    while not passes or perf_counter() < deadline:
        cells = {}
        for i in order:
            if passes and not whole and perf_counter() >= deadline:
                break
            seed = scenarios[i].rng_seed
            if tracer is not None:
                tracer.cell = (len(passes), seed)
            cells[seed] = run_cell(sk, scenarios[i], speed)
        if cells:
            passes.append(cells)
    return passes


def _cell_samples(passes: list[dict], seed: int, algo: str | None = None,
                  raw: bool = False):
    """Timed seconds of one cell in each pass that ran it: the whole cell,
    or the preamble plus one planner; speed-corrected unless `raw`."""
    i = 0 if raw else 1
    for p in passes:
        if seed in p:
            c = p[seed]
            yield c["pre"][i] + (sum(op[0][i] for op in c["ops"].values())
                                 if algo is None else c["ops"][algo][0][i])


def cells_per_min(passes: list[dict], raw: bool = False) -> float:
    """Throughput of one pass, from each cell's median time over the passes."""
    cell_s = [statistics.median(_cell_samples(passes, seed, raw=raw))
              for seed in passes[0]]
    return 60.0 * len(cell_s) / sum(cell_s)


def end_to_end(passes: list[dict], wl: dict,
               raw: bool = False) -> dict[str, float]:
    """Latency p50 and quality means over each planner's comparison cells.

    The p50 is taken over the cells' median latencies. A comparison cell
    that fails counts as slower than any success (+inf), which also makes
    that planner's quality means infinite.
    """
    first = outcomes(passes[0])
    # over distinct operations, so a partial last pass cannot tilt it
    out = {"cells_per_min": cells_per_min(passes, raw),
           "solved_share": (sum(cause is None for _, cause, _ in first.values())
                            / len(first))}
    for algo, _, _ in PLANNERS:
        lat, completion, gap = [], [], []
        for seed in wl["comparison_cells"][algo]:
            quality, cause, _ = first[seed, algo]
            if cause is None:
                lat.append(statistics.median(
                    _cell_samples(passes, seed, algo, raw)))
                completion.append(quality[0])
                gap.append(quality[4])
            else:
                lat.append(math.inf)
                completion.append(math.inf)
                gap.append(math.inf)
        out[f"{algo}_plan_s_p50"] = statistics.median(lat)
        out[f"{algo}_completion_s_mean"] = statistics.fmean(completion)
        if algo == "pmtp":
            out["pmtp_gap_ratio_mean"] = statistics.fmean(gap)
    return out


def outcomes(cells: dict) -> dict:
    return {(seed, algo): op[1] for seed, c in cells.items()
            for algo, op in c["ops"].items()}


def check_passes(passes: list[dict]) -> tuple[int, int, list[str], bool]:
    """Attempted and failed operations, failure causes, and whether every
    output was valid and every pass repeated the first pass's outcomes.

    The counts are over distinct operations, those of the first (complete)
    pass: later passes only re-time them and must repeat their outcomes, so
    the counts depend on the workload alone, not on how many passes fit.
    """
    ref = outcomes(passes[0])
    repeat = all(o == ref[key] for p in passes[1:]
                 for key, o in outcomes(p).items())
    attempted = len(ref)
    failed = sum(cause is not None for _, cause, _ in ref.values())
    invalid = any(bad for _, _, bad in ref.values())
    causes = [f"cell {seed} {algo}: {cause}"
              for (seed, algo), (_, cause, _) in sorted(ref.items())
              if cause is not None]
    if not repeat:
        causes.append("outcomes differ between passes")
    return attempted, failed, causes, repeat and not invalid


def environment(wl: dict, order: list[int]) -> dict:
    import numpy
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "blas_threads": os.environ["OMP_NUM_THREADS"],
            "seeds": wl["seeds"], "cell_order": order}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True,
                    help="shuffles the order of the workload's cells")
    ap.add_argument("--seconds", type=float, required=True,
                    help="measure for this many seconds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]

    sk = load_skyhaul()
    speed = Speedometer()
    if args.trace:
        from spans import Tracer, layer_metrics, median_metrics
        tracer = Tracer()
        with tracer.installed(sk):
            scenarios = generate(sk, wl)
    else:
        scenarios = generate(sk, wl)

    order = list(range(len(scenarios)))
    random.Random(args.seed).shuffle(order)
    t0 = perf_counter()
    if args.trace:
        passes = run_passes(sk, speed, scenarios, order, 0.0)
        with tracer.installed(sk):
            traced = run_passes(sk, speed, scenarios, order,
                                args.seconds - (perf_counter() - t0), tracer,
                                whole=True)
        per_pass = [layer_metrics([s for s in tracer.spans
                                   if s.cell is not None and s.cell[0] == i],
                                  tracer.spans)
                    for i in range(len(traced))]
        metrics = median_metrics(per_pass)
        metrics["model.generate_scenario.s"] = sum(
            s.dur for s in tracer.spans if s.cell is None)
        metrics["trace.cells_per_min"] = cells_per_min(traced)
        metrics["trace.overhead_share"] = (
            cells_per_min(passes) / metrics["trace.cells_per_min"] - 1.0)
        uncorrected = {"trace.cells_per_min": cells_per_min(traced, raw=True)}
        passes += traced
    else:
        passes = run_passes(sk, speed, scenarios, order, args.seconds)
        metrics = end_to_end(passes, wl)
        raw = end_to_end(passes, wl, raw=True)
        uncorrected = {k: raw[k] for k in ("cells_per_min", "pmtp_plan_s_p50",
                                           "ttp_plan_s_p50", "cstp_plan_s_p50")}
        metrics["setup_s"], uncorrected["setup_s"] = probe_setup(args.workload,
                                                                speed)
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)

    attempted, failed, causes, correct = check_passes(passes)

    units = {m["name"]: m["unit"] for m in _benchmark_metrics(args.trace)}
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    env = environment(wl, order)
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "passes": len(passes), "env": env,
              "failures": causes,
              "quality": {f"{seed}/{algo}": list(o[0]) if o[0] else None
                          for (seed, algo), o in outcomes(passes[0]).items()},
              "uncorrected": uncorrected, "result": result}
    if args.trace:
        tracer.write_jsonl(stem.with_suffix(".spans.jsonl"))
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"env {json.dumps(env)}")
    print(f"uncorrected {json.dumps(uncorrected)}")
    for line in causes:
        print(f"failed {line}")
    print(json.dumps(result))
    return 0


def _benchmark_metrics(trace: int) -> list[dict]:
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


if __name__ == "__main__":
    sys.exit(main())
