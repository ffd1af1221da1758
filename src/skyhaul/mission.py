"""Synchronized multi-UAV mission plans: validity checks, timing, lower bound.

A plan is a cyclic sequence of steps. Every UAV owns one waypoint per step;
all UAVs fly leg i-1 -> i together (the slowest sets the pace), then hold for
the step's shared hover. Step 0 doubles as the start/finish configuration, so
steps[0].flight_s is the closing leg flown from the last step back home.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .channel import CoverageRadii
from .clustering import ClusterSet
from .model import Scenario
from .partition import Topology

DIST_TOL_M = 1e-6
TIME_TOL_S = 1e-6
HOVER_TOL_S = 1e-9


@dataclass(frozen=True)
class MissionStep:
    waypoints: tuple[tuple[float, float], ...]   # one per UAV
    duties: tuple[int | None, ...]               # cluster id collected, or None
    hover_s: float
    flight_s: float                              # travel time into this step


@dataclass(frozen=True)
class MissionPlan:
    steps: tuple[MissionStep, ...]
    v_max_mps: float
    meta: dict = field(default_factory=dict, compare=False)

    @property
    def m_uavs(self) -> int:
        return len(self.steps[0].waypoints)

    def waypoint_array(self) -> np.ndarray:
        """(S, M, 2) waypoint tensor."""
        return np.array([s.waypoints for s in self.steps], dtype=float)


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class EvalReport:
    completion_s: float
    flight_s: float
    hover_s: float
    lower_bound_s: float
    gap_ratio: float
    bound_violated: bool
    checks: tuple[CheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def segment_connectivity_ok(segment_i, segment_j, r_u2u: float) -> bool:
    """Two synchronized straight flights stay within range the whole way
    iff they are within range at both ends (inter-UAV gap is convex in time)."""
    (s_i, e_i), (s_j, e_j) = segment_i, segment_j
    d_start = float(np.hypot(*(np.asarray(s_i, float) - np.asarray(s_j, float))))
    d_end = float(np.hypot(*(np.asarray(e_i, float) - np.asarray(e_j, float))))
    return max(d_start, d_end) <= r_u2u


class Timing(NamedTuple):
    completion_s: float
    flight_s: float
    hover_s: float


def completion_time(plan: MissionPlan) -> Timing:
    """Mission duration: synchronized flight legs plus shared hovers."""
    w = plan.waypoint_array()                    # (S, M, 2)
    legs = np.hypot(*np.moveaxis(w - np.roll(w, 1, axis=0), 2, 0))
    flight = float(legs.max(axis=1).sum()) / plan.v_max_mps
    hover = float(sum(s.hover_s for s in plan.steps))
    return Timing(flight + hover, flight, hover)


def ring_serial_s(cluster_set: ClusterSet, topology: Topology,
                  v_max_mps: float) -> list[float]:
    """Per ring: its UAV's serial workload, the ring tour at full speed plus
    every hover of the ring's CPs."""
    hovers = cluster_set.hover_array()
    return [tour.length_m / v_max_mps
            + float(hovers[topology.cps_of_ring(r)].sum())
            for r, tour in enumerate(topology.tours)]


def lower_bound(cluster_set: ClusterSet, topology: Topology,
                v_max_mps: float) -> float:
    """Best case per UAV: its own ring tour at full speed plus its own hovers,
    everything else perfectly overlapped."""
    return max(ring_serial_s(cluster_set, topology, v_max_mps))


def _plan_shape_or_raise(plan: MissionPlan, topology: Topology):
    if not plan.steps:
        raise ValueError("plan has no steps")
    m = topology.m_uavs
    for i, s in enumerate(plan.steps):
        if len(s.waypoints) != m:
            raise ValueError(f"step {i} has {len(s.waypoints)} waypoints, expected {m}")
        if len(s.duties) != m:
            raise ValueError(f"step {i} has {len(s.duties)} duties, expected {m}")


def _check_connectivity(w: np.ndarray, bs: np.ndarray, radii: CoverageRadii) -> CheckResult:
    problems = []
    m = w.shape[1]
    d_bs = np.hypot(*np.moveaxis(w[:, 0, :] - bs, 1, 0))
    bad = np.flatnonzero(d_bs > radii.r_u2b_m + DIST_TOL_M)
    if bad.size:
        problems.append(f"UAV 0 beyond BS range at step {bad[0]} "
                        f"({d_bs[bad[0]]:.1f} m)")
    # per-segment relay condition between adjacent UAVs: the gap is convex
    # in time, so the endpoints decide, and every waypoint ends some leg
    prev = np.roll(w, 1, axis=0)
    for i in range(1, m):
        s = np.hypot(*np.moveaxis(prev[:, i, :] - prev[:, i - 1, :], 1, 0))
        e = np.hypot(*np.moveaxis(w[:, i, :] - w[:, i - 1, :], 1, 0))
        bad = np.flatnonzero(np.maximum(s, e) > radii.r_u2u_m + DIST_TOL_M)
        if bad.size:
            problems.append(f"UAVs {i - 1}/{i} out of range on the leg into "
                            f"step {bad[0]} ({max(s[bad[0]], e[bad[0]]):.1f} m)")
    ok = not problems
    return CheckResult("connectivity", ok, "; ".join(problems) or
                       "chain intact at every waypoint and along every leg")


def _check_collision(w: np.ndarray, d_safe: float) -> CheckResult:
    """Exact pairwise separation along every leg. The relative offset moves
    linearly from a to b, so its closest approach is at
    t* = clamp(-a.d / |d|^2, 0, 1) with d = b - a."""
    m = w.shape[1]
    if m == 1:
        return CheckResult("collision", True, "single UAV")
    prev = np.roll(w, 1, axis=0)
    problems = []
    for i in range(m):
        for j in range(i + 1, m):
            a = prev[:, i, :] - prev[:, j, :]
            d = w[:, i, :] - w[:, j, :] - a
            dd = (d * d).sum(axis=1)
            t = np.clip(-(a * d).sum(axis=1) / np.where(dd > 0, dd, 1.0),
                        0.0, 1.0)
            closest = np.hypot(*(a + t[:, None] * d).T)
            bad = np.flatnonzero(closest < d_safe - DIST_TOL_M)
            if bad.size:
                problems.append(f"UAVs {i}/{j} close to {closest[bad[0]]:.1f} m "
                                f"on the leg into step {bad[0]}")
    ok = not problems
    return CheckResult("collision", ok, "; ".join(problems) or
                       f"all pairs keep {d_safe:.0f} m separation")


def _leg_lengths(w: np.ndarray) -> np.ndarray:
    prev = np.roll(w, 1, axis=0)
    return np.hypot(*np.moveaxis(w - prev, 2, 0))    # (S, M)


def _check_speed(plan: MissionPlan, w: np.ndarray) -> CheckResult:
    legs = _leg_lengths(w)
    flight = np.array([s.flight_s for s in plan.steps])
    problems = []
    need = legs / plan.v_max_mps
    short = np.flatnonzero(need.max(axis=1) > flight + TIME_TOL_S)
    if short.size:
        i = short[0]
        problems.append(f"step {i} schedules {flight[i]:.3f} s but the longest "
                        f"leg needs {need[i].max():.3f} s at v_max")
    ok = not problems
    return CheckResult("speed", ok, "; ".join(problems) or
                       "every leg fits its scheduled duration at v_max")


def _check_coverage(plan: MissionPlan, cluster_set: ClusterSet) -> CheckResult:
    problems = []
    seen: dict[int, int] = {}
    for i, s in enumerate(plan.steps):
        collected = [d for d in s.duties if d is not None]
        if not collected:
            problems.append(f"step {i} collects nothing")
        for cp in collected:
            if not 0 <= cp < cluster_set.k:
                problems.append(f"step {i} references unknown CP {cp}")
            elif cp in seen:
                problems.append(f"CP {cp} collected at steps {seen[cp]} and {i}")
            else:
                seen[cp] = i
    missing = [k for k in range(cluster_set.k) if k not in seen]
    if missing:
        problems.append(f"CP {missing[0]} never collected"
                        + (f" (+{len(missing) - 1} more)" if len(missing) > 1 else ""))
    ok = not problems
    return CheckResult("coverage", ok, "; ".join(problems) or
                       f"all {cluster_set.k} CPs collected exactly once")


def _check_hover(plan: MissionPlan, cluster_set: ClusterSet) -> CheckResult:
    hovers = cluster_set.hover_array()
    problems = []
    for i, s in enumerate(plan.steps):
        ids = [d for d in s.duties if d is not None and 0 <= d < cluster_set.k]
        if not ids:
            continue
        need = float(hovers[ids].max())
        if s.hover_s < need - HOVER_TOL_S:
            problems.append(f"step {i} hovers {s.hover_s:.3f} s but CP "
                            f"{ids[int(np.argmax(hovers[ids]))]} needs {need:.3f} s")
    ok = not problems
    return CheckResult("hover-sufficiency", ok, "; ".join(problems) or
                       "every step hovers at least its demand")


def _check_closure(plan: MissionPlan, w: np.ndarray) -> CheckResult:
    legs = _leg_lengths(w)
    flight = np.array([s.flight_s for s in plan.steps])
    expect = legs.max(axis=1) / plan.v_max_mps
    problems = []
    bad = np.flatnonzero(np.abs(flight - expect) > TIME_TOL_S)
    if bad.size:
        i = bad[0]
        which = "closing leg" if i == 0 else f"leg into step {i}"
        problems.append(f"{which} takes {expect[i]:.3f} s but the plan "
                        f"records {flight[i]:.3f} s")
    ok = not problems
    return CheckResult("return-to-start", ok, "; ".join(problems) or
                       "cyclic schedule consistent, tours close on step 0")


def validate(plan: MissionPlan, scenario: Scenario, topology: Topology,
             radii: CoverageRadii, cluster_set: ClusterSet) -> list[CheckResult]:
    """Run every mission validity check; failures are reported, never raised."""
    _plan_shape_or_raise(plan, topology)
    w = plan.waypoint_array()
    return [
        _check_connectivity(w, scenario.bs_xy, radii),
        _check_collision(w, scenario.d_safe_m),
        _check_speed(plan, w),
        _check_coverage(plan, cluster_set),
        _check_hover(plan, cluster_set),
        _check_closure(plan, w),
    ]


def evaluate(plan: MissionPlan, scenario: Scenario, topology: Topology,
             radii: CoverageRadii, cluster_set: ClusterSet) -> EvalReport:
    timing = completion_time(plan)
    bound = lower_bound(cluster_set, topology, scenario.v_max_mps)
    gap = (timing.completion_s - bound) / bound if bound > 0 else 0.0
    return EvalReport(
        completion_s=timing.completion_s,
        flight_s=timing.flight_s,
        hover_s=timing.hover_s,
        lower_bound_s=bound,
        gap_ratio=gap,
        bound_violated=timing.completion_s < bound - TIME_TOL_S,
        checks=tuple(validate(plan, scenario, topology, radii, cluster_set)),
    )


def write_plan_csv(plan: MissionPlan, path):
    with open(path, "w") as f:
        f.write("step,uav,x_m,y_m,duty,hover_s,flight_s\n")
        for i, s in enumerate(plan.steps):
            for m, (x, y) in enumerate(s.waypoints):
                duty = "escort" if s.duties[m] is None else f"collect:{s.duties[m]}"
                f.write(f"{i},{m},{x!r},{y!r},{duty},{s.hover_s!r},{s.flight_s!r}\n")


def report_to_dict(report: EvalReport, topology: Topology | None = None,
                   radii: CoverageRadii | None = None,
                   cluster_set: ClusterSet | None = None) -> dict:
    out = {
        "completion_s": report.completion_s,
        "flight_s": report.flight_s,
        "hover_s": report.hover_s,
        "lower_bound_s": report.lower_bound_s,
        "gap_ratio": report.gap_ratio,
        "bound_violated": report.bound_violated,
        "all_passed": report.all_passed,
        "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail}
                   for c in report.checks],
    }
    if topology is not None:
        out["m_uavs"] = topology.m_uavs
        out["rings_m"] = [[r.inner_m, r.outer_m] for r in topology.rings]
        out["association"] = list(topology.association)
    if radii is not None:
        out["radii_m"] = {"r_g2u": radii.r_g2u_m, "r_u2u": radii.r_u2u_m,
                          "r_u2b": radii.r_u2b_m}
    if cluster_set is not None:
        out["k_clusters"] = cluster_set.k
    return out


def write_report_json(report: EvalReport, path, **context):
    Path(path).write_text(json.dumps(report_to_dict(report, **context), indent=1) + "\n")
