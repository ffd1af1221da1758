"""Synchronized multi-UAV mission plans: validity checks, timing, lower bound.

A plan is a cyclic sequence of steps. Every UAV owns one waypoint per step;
all UAVs fly leg i-1 -> i together (the slowest sets the pace), then hold for
the step's shared hover. Step 0 doubles as the start/finish configuration, so
its leg is the closing leg flown from the last step back home. A plan holds
only waypoints and duties; `step_times` derives its schedule.

Each check tests that a value is within its bound, never that it is beyond
it, so a NaN or an infinite waypoint fails every check that reads it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .channel import CoverageRadii
from .clustering import ClusterSet
from .model import Scenario
from .partition import Topology

DIST_TOL_M = 1e-6
TIME_TOL_S = 1e-6


@dataclass(frozen=True, eq=False)
class MissionPlan:
    waypoints: np.ndarray     # (S, M, 2)
    duties: np.ndarray        # (S, M) int: the CP collected, -1 to escort
    meta: dict = field(default_factory=dict)


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
    planner: dict                      # the meta of the plan evaluated

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


class Timing(NamedTuple):
    completion_s: float
    flight_s: float
    hover_s: float


def _longest_legs(w: np.ndarray) -> np.ndarray:
    """(S,) the longest leg into each step, the closing leg at step 0."""
    prev = np.roll(w, 1, axis=0)
    return np.hypot(*np.moveaxis(w - prev, 2, 0)).max(axis=1)


def _step_hovers(plan: MissionPlan, cp_hover_s: np.ndarray) -> np.ndarray:
    """(S,) each step's hover: the largest demand among the known CPs it
    collects, 0.0 if none."""
    duty = plan.duties
    known = (duty >= 0) & (duty < len(cp_hover_s))
    demand = np.zeros(duty.shape)
    demand[known] = cp_hover_s[duty[known]]
    return demand.max(axis=1)


def step_times(plan: MissionPlan, cp_hover_s: np.ndarray,
               v: float) -> tuple[np.ndarray, np.ndarray]:
    """The least schedule of the plan, as (S,) hover and (S,) flight: each
    step hovers the largest demand among the known CPs it collects (0.0 if
    none) and flies its longest leg at v."""
    return _step_hovers(plan, cp_hover_s), _longest_legs(plan.waypoints) / v


def completion_time(plan: MissionPlan, cp_hover_s: np.ndarray,
                    v: float) -> Timing:
    """Mission duration: synchronized flight legs plus shared hovers."""
    hovers = _step_hovers(plan, cp_hover_s)
    # the legs are summed before the division, which rounds differently
    # from summing each step's seconds
    flight = float(_longest_legs(plan.waypoints).sum()) / v
    # left to right, one step at a time: numpy's pairwise sum rounds
    # differently past 8 steps, and so does Python's sum() from 3.12 on
    hover = 0.0
    for h in hovers.tolist():
        hover += h
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
    if w.shape[1:] != (m, 2) or plan.duties.shape != (len(w), m):
        raise ValueError(f"plan waypoints {w.shape} or duties {plan.duties.shape}"
                         f" do not fit {m} UAVs, expected (S, {m}, 2) and (S, {m})")


def _result(name: str, problems: list[str], ok_detail: str) -> CheckResult:
    """A check passes when it found no problem; its detail lists them."""
    return CheckResult(name, not problems, "; ".join(problems) or ok_detail)


def _check_connectivity(w: np.ndarray, bs: np.ndarray, radii: CoverageRadii) -> CheckResult:
    problems = []
    d_bs = np.hypot(*np.moveaxis(w[:, 0, :] - bs, 1, 0))
    bad = np.flatnonzero(~(d_bs <= radii.r_u2b_m + DIST_TOL_M))
    if bad.size:
        problems.append(f"UAV 0 beyond BS range at step {bad[0]} "
                        f"({d_bs[bad[0]]:.1f} m)")
    # per-segment relay condition between adjacent UAVs: the gap is convex
    # in time, so the endpoints decide, and every waypoint ends some leg.
    # (S, m - 1) gaps at each leg's end and start, pair i - 1/i in column
    # i - 1; a leg starts where the one before it ended
    e = np.hypot(*np.moveaxis(w[:, 1:] - w[:, :-1], 2, 0))
    s = np.roll(e, 1, axis=0)
    bad = ~(np.maximum(s, e) <= radii.r_u2u_m + DIST_TOL_M)
    # max() names the start gap where only the end one is NaN
    problems += [f"UAVs {p}/{p + 1} out of range on the leg into step {t} "
                 f"({max(s[t, p], e[t, p]):.1f} m)"
                 for p in np.flatnonzero(bad.any(axis=0))
                 for t in [int(bad[:, p].argmax())]]
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
    # every pair (i, j), i < j, in row-major order, as (S, pairs, 2) arrays
    i, j = np.triu_indices(m, 1)
    a = prev[:, i, :] - prev[:, j, :]
    d = w[:, i, :] - w[:, j, :] - a
    dd = (d * d).sum(axis=2)
    t = np.clip(-(a * d).sum(axis=2) / np.where(dd > 0, dd, 1.0), 0.0, 1.0)
    closest = np.hypot(*np.moveaxis(a + t[..., None] * d, 2, 0))
    bad = ~(closest >= d_safe - DIST_TOL_M)
    problems = [f"UAVs {i[p]}/{j[p]} close to {closest[s, p]:.1f} m "
                f"on the leg into step {s}"
                for p in np.flatnonzero(bad.any(axis=0))
                for s in [int(bad[:, p].argmax())]]
    return _result("collision", problems,
                   f"all pairs keep {d_safe:.0f} m separation")


def _check_coverage(plan: MissionPlan, cluster_set: ClusterSet) -> CheckResult:
    """Every CP collected exactly once, by a UAV hovering on it."""
    duty, k = plan.duties, cluster_set.k
    problems = [f"step {i} collects nothing"
                for i in np.flatnonzero((duty == -1).all(axis=1))]
    steps, uavs = np.nonzero(duty != -1)       # step order, then UAV order
    ids = duty[steps, uavs]
    known = (ids >= 0) & (ids < k)
    problems += [f"step {i} references unknown CP {c}"
                 for i, c in zip(steps[~known], ids[~known])]
    steps, uavs, ids = steps[known], uavs[known], ids[known]
    _, first, which = np.unique(ids, return_index=True, return_inverse=True)
    first = first[which]                # each collect's first occurrence
    again = first != np.arange(len(ids))
    problems += [f"CP {c} collected at steps {a} and {i}"
                 for c, a, i in zip(ids[again], steps[first[again]], steps[again])]
    missing = np.flatnonzero(np.bincount(ids, minlength=k) == 0)
    if missing.size:
        problems.append(f"CP {missing[0]} never collected" + (
            f" (+{missing.size - 1} more)" if missing.size > 1 else ""))
    off = np.hypot(*(plan.waypoints[steps, uavs] - cluster_set.cps[ids]).T)
    far = np.flatnonzero(~(off <= DIST_TOL_M))
    if far.size:
        j = far[0]
        problems.append(f"UAV {uavs[j]} collects CP {ids[j]} at step {steps[j]} "
                        f"{off[j]:.1f} m off the CP" + (
                            f" (+{far.size - 1} more)" if far.size > 1 else ""))
    return _result("coverage", problems,
                   f"all {k} CPs collected exactly once, from the CP")


def validate(plan: MissionPlan, scenario: Scenario, topology: Topology,
             radii: CoverageRadii, cluster_set: ClusterSet) -> list[CheckResult]:
    """Run every mission validity check; failures are reported, never raised."""
    _plan_shape_or_raise(plan, topology)
    # an infinite waypoint turns distances into NaN, which fails its checks
    with np.errstate(invalid="ignore"):
        return [
            _check_connectivity(plan.waypoints, scenario.bs_xy, radii),
            _check_collision(plan.waypoints, scenario.d_safe_m),
            _check_coverage(plan, cluster_set),
        ]


def evaluate(plan: MissionPlan, scenario: Scenario, topology: Topology,
             radii: CoverageRadii, cluster_set: ClusterSet) -> EvalReport:
    timing = completion_time(plan, cluster_set.hover_s, scenario.v_max_mps)
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
        planner=plan.meta,
    )

