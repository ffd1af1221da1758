"""Synchronized multi-UAV mission plans: validity checks, timing, lower bound.

A plan is a cyclic sequence of steps. Every UAV owns one waypoint per step;
all UAVs fly leg i-1 -> i together (the slowest sets the pace), then hold for
the step's shared hover. Step 0 doubles as the start/finish configuration, so
flight_s[0] is the closing leg flown from the last step back home.

Each check tests that a value is within its bound, never that it is beyond
it, so a NaN fails every check that reads it; infinite times fail too.
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


@dataclass(frozen=True, eq=False)
class MissionPlan:
    waypoints: np.ndarray                        # (S, M, 2)
    duties: tuple[tuple[int | None, ...], ...]   # (S, M) CP collected, or None
    hover_s: np.ndarray                          # (S,) shared hover per step
    flight_s: np.ndarray                         # (S,) travel time into step
    v_max_mps: float
    meta: dict = field(default_factory=dict)

    @property
    def m_uavs(self) -> int:
        return self.waypoints.shape[1]


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


class Timing(NamedTuple):
    completion_s: float
    flight_s: float
    hover_s: float


def _leg_lengths(w: np.ndarray) -> np.ndarray:
    prev = np.roll(w, 1, axis=0)
    return np.hypot(*np.moveaxis(w - prev, 2, 0))    # (S, M)


def assemble_plan(positions: np.ndarray, duties, cp_hovers: np.ndarray,
                  v: float, meta: dict) -> MissionPlan:
    """Time per-step geometry (S, M, 2) and duties cyclically: each step
    hovers the largest demand among the CPs it collects (0.0 if none) and
    flies its longest leg at v."""
    duties = tuple(tuple(d) for d in duties)
    hover = np.array([max((cp_hovers[c] for c in d if c is not None),
                          default=0.0) for d in duties], dtype=float)
    flight = _leg_lengths(positions).max(axis=1) / v
    return MissionPlan(positions, duties, hover, flight, v, meta)


def completion_time(plan: MissionPlan) -> Timing:
    """Mission duration: synchronized flight legs plus shared hovers."""
    legs = _leg_lengths(plan.waypoints)
    flight = float(legs.max(axis=1).sum()) / plan.v_max_mps
    # a sequential sum: numpy's pairwise sum rounds differently past 8 steps
    hover = float(sum(plan.hover_s.tolist()))
    return Timing(flight + hover, flight, hover)


def ring_serial_s(cluster_set: ClusterSet, topology: Topology,
                  v_max_mps: float) -> list[float]:
    """Per ring: its UAV's serial workload, the ring tour at full speed plus
    every hover of the ring's CPs."""
    # numpy's pairwise sum per ring: np.bincount(weights=) sums sequentially
    # and rounds differently past 8 CPs
    return [tour.length_m / v_max_mps
            + float(cluster_set.hover_s[topology.association == r].sum())
            for r, tour in enumerate(topology.tours)]


def lower_bound(cluster_set: ClusterSet, topology: Topology,
                v_max_mps: float) -> float:
    """Best case per UAV: its own ring tour at full speed plus its own hovers,
    everything else perfectly overlapped."""
    return max(ring_serial_s(cluster_set, topology, v_max_mps))


def _plan_shape_or_raise(plan: MissionPlan, topology: Topology):
    w, m = plan.waypoints, topology.m_uavs
    if not len(w):
        raise ValueError("plan has no steps")
    if w.shape[1:] != (m, 2) or any(len(d) != m for d in plan.duties):
        raise ValueError(f"plan waypoints {w.shape} or duties do not fit "
                         f"{m} UAVs, expected (S, {m}, 2)")
    if not len(plan.duties) == len(plan.hover_s) == len(plan.flight_s) == len(w):
        raise ValueError("plan arrays disagree on the step count")


def _result(name: str, problems: list[str], ok_detail: str) -> CheckResult:
    """A check passes when it found no problem; its detail lists them."""
    return CheckResult(name, not problems, "; ".join(problems) or ok_detail)


def _check_connectivity(w: np.ndarray, bs: np.ndarray, radii: CoverageRadii) -> CheckResult:
    problems = []
    m = w.shape[1]
    d_bs = np.hypot(*np.moveaxis(w[:, 0, :] - bs, 1, 0))
    bad = np.flatnonzero(~(d_bs <= radii.r_u2b_m + DIST_TOL_M))
    if bad.size:
        problems.append(f"UAV 0 beyond BS range at step {bad[0]} "
                        f"({d_bs[bad[0]]:.1f} m)")
    # per-segment relay condition between adjacent UAVs: the gap is convex
    # in time, so the endpoints decide, and every waypoint ends some leg
    prev = np.roll(w, 1, axis=0)
    for i in range(1, m):
        s = np.hypot(*np.moveaxis(prev[:, i, :] - prev[:, i - 1, :], 1, 0))
        e = np.hypot(*np.moveaxis(w[:, i, :] - w[:, i - 1, :], 1, 0))
        bad = np.flatnonzero(~(np.maximum(s, e) <= radii.r_u2u_m + DIST_TOL_M))
        if bad.size:
            problems.append(f"UAVs {i - 1}/{i} out of range on the leg into "
                            f"step {bad[0]} ({max(s[bad[0]], e[bad[0]]):.1f} m)")
    return _result("connectivity", problems,
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
            bad = np.flatnonzero(~(closest >= d_safe - DIST_TOL_M))
            if bad.size:
                problems.append(f"UAVs {i}/{j} close to {closest[bad[0]]:.1f} m "
                                f"on the leg into step {bad[0]}")
    return _result("collision", problems,
                   f"all pairs keep {d_safe:.0f} m separation")


def _check_speed(plan: MissionPlan) -> CheckResult:
    need = _leg_lengths(plan.waypoints) / plan.v_max_mps
    flight = plan.flight_s
    problems = []
    short = np.flatnonzero(~(np.isfinite(flight)
                             & (need.max(axis=1) <= flight + TIME_TOL_S)))
    if short.size:
        i = short[0]
        problems.append(f"step {i} schedules {flight[i]:.3f} s but the longest "
                        f"leg needs {need[i].max():.3f} s at v_max")
    return _result("speed", problems,
                   "every leg fits its scheduled duration at v_max")


def _check_coverage(plan: MissionPlan, cluster_set: ClusterSet) -> CheckResult:
    problems = []
    seen: dict[int, int] = {}
    for i, duties in enumerate(plan.duties):
        collected = [d for d in duties if d is not None]
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
    return _result("coverage", problems,
                   f"all {cluster_set.k} CPs collected exactly once")


def _check_hover(plan: MissionPlan, cluster_set: ClusterSet) -> CheckResult:
    hovers = cluster_set.hover_s
    problems = []
    for i, (duties, hover) in enumerate(zip(plan.duties, plan.hover_s)):
        ids = [d for d in duties if d is not None and 0 <= d < cluster_set.k]
        if not ids:
            continue
        need = float(hovers[ids].max())
        if not (np.isfinite(hover) and hover >= need - HOVER_TOL_S):
            problems.append(f"step {i} hovers {hover:.3f} s but CP "
                            f"{ids[int(np.argmax(hovers[ids]))]} needs {need:.3f} s")
    return _result("hover-sufficiency", problems,
                   "every step hovers at least its demand")


def _check_closure(plan: MissionPlan) -> CheckResult:
    expect = _leg_lengths(plan.waypoints).max(axis=1) / plan.v_max_mps
    flight = plan.flight_s
    problems = []
    bad = np.flatnonzero(~(np.abs(flight - expect) <= TIME_TOL_S))
    if bad.size:
        i = bad[0]
        which = "closing leg" if i == 0 else f"leg into step {i}"
        problems.append(f"{which} takes {expect[i]:.3f} s but the plan "
                        f"records {flight[i]:.3f} s")
    return _result("return-to-start", problems,
                   "cyclic schedule consistent, tours close on step 0")


def validate(plan: MissionPlan, scenario: Scenario, topology: Topology,
             radii: CoverageRadii, cluster_set: ClusterSet) -> list[CheckResult]:
    """Run every mission validity check; failures are reported, never raised."""
    _plan_shape_or_raise(plan, topology)
    # an infinite waypoint turns distances into NaN, which fails its checks
    with np.errstate(invalid="ignore"):
        return [
            _check_connectivity(plan.waypoints, scenario.bs_xy, radii),
            _check_collision(plan.waypoints, scenario.d_safe_m),
            _check_speed(plan),
            _check_coverage(plan, cluster_set),
            _check_hover(plan, cluster_set),
            _check_closure(plan),
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
    # Python floats: numpy 2 writes a float64's repr as np.float64(...)
    rows = zip(plan.waypoints.tolist(), plan.duties, plan.hover_s.tolist(),
               plan.flight_s.tolist())
    with open(path, "w") as f:
        f.write("step,uav,x_m,y_m,duty,hover_s,flight_s\n")
        for i, (waypoints, duties, hover, flight) in enumerate(rows):
            for m, ((x, y), d) in enumerate(zip(waypoints, duties)):
                duty = "escort" if d is None else f"collect:{d}"
                f.write(f"{i},{m},{x!r},{y!r},{duty},{hover!r},{flight!r}\n")


def report_to_dict(report: EvalReport, topology: Topology,
                   radii: CoverageRadii, cluster_set: ClusterSet) -> dict:
    return {
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
    }


def write_report_json(report: EvalReport, path, topology: Topology,
                      radii: CoverageRadii, cluster_set: ClusterSet):
    out = report_to_dict(report, topology, radii, cluster_set)
    Path(path).write_text(json.dumps(out, indent=1) + "\n")
