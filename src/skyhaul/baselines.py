"""Reference planners the point-matching algorithm is judged against.

Both keep the relay chain intact at every instant and collect every CP
exactly once, but neither overlaps hover time across rings, so they pay the
full serial hover bill plus their own flight overhead.
"""

from __future__ import annotations

import numpy as np

from .channel import CoverageRadii
from .clustering import ClusterSet
from .mission import MissionPlan
from .model import InfeasibleError, Scenario
from .partition import Topology
from .tsp import solve_tsp

_CHAIN_PAD = 1.5        # collision margin factor on d_safe for chained UAVs
_OFFSET_GAIN = 1.05


class InfeasiblePlanError(InfeasibleError):
    """The baseline geometry cannot keep the relay chain connected."""


def plan_ttp(scenario: Scenario, cluster_set: ClusterSet, topology: Topology,
             radii: CoverageRadii) -> MissionPlan:
    """Single collector on a global CP tour, straight-line relay chain.

    UAV m-1 visits every CP along one TSP tour and hovers the full demand at
    each; UAVs 0..m-2 hold evenly spaced points on the BS-to-collector line.
    Works only while the farthest CP divided by m fits both link budgets.
    """
    cps = cluster_set.cps
    m = topology.m_uavs
    bs = scenario.bs_xy
    d_safe = scenario.d_safe_m

    d_bs = np.hypot(*(cps - bs).T)
    # a lone UAV talks straight to the BS; only larger fleets add U2U hops
    link = radii.r_u2b_m if m == 1 else min(radii.r_u2u_m, radii.r_u2b_m)
    if float(d_bs.max()) / m > link:
        raise InfeasiblePlanError(
            f"farthest CP at {d_bs.max():.0f} m needs chain hops of "
            f"{d_bs.max() / m:.0f} m, above the {link:.0f} m link range")

    tour = solve_tsp(cps)
    s_count = len(tour.order)
    positions = np.empty((s_count, m, 2))
    duties = np.full((s_count, m), -1)
    duties[:, m - 1] = tour.order
    for i, cp in enumerate(tour.order):
        c = cps[cp]
        vec = c - bs
        d = float(np.hypot(*vec))
        u = vec / d if d > 0 else np.array([1.0, 0.0])
        perp = np.array([-u[1], u[0]])
        spacing = d / m
        for j in range(m - 1):
            p = bs + u * (d * (j + 1) / m)
            if spacing < _CHAIN_PAD * d_safe:
                # CP close to the BS: the line collapses, fan the relays out
                sign = 1.0 if j % 2 == 0 else -1.0
                p = p + perp * (sign * _OFFSET_GAIN * d_safe * (1 + j // 2))
            positions[i, j] = p
        positions[i, m - 1] = c

    meta = {"algo": "ttp", "tour_length_m": tour.length_m}
    return MissionPlan(positions, duties, meta)


def scan_order(cps: np.ndarray, bs: np.ndarray) -> list[int]:
    """CP visit order for the circular scan: ascending angle about the BS,
    ties broken by distance."""
    vec = np.asarray(cps, dtype=float) - np.asarray(bs, dtype=float)
    ang = np.arctan2(vec[:, 1], vec[:, 0])
    dist = np.hypot(*vec.T)
    return sorted(range(len(cps)), key=lambda i: (ang[i], dist[i], i))


def plan_cstp(scenario: Scenario, cluster_set: ClusterSet, topology: Topology,
              radii: CoverageRadii) -> MissionPlan:
    """Circular scan: the fleet sweeps the CPs in angular order.

    Each step puts the serving ring's UAV on the CP and every other UAV at
    the same bearing near its ring midline, radially clamped so adjacent
    UAVs stay within link range yet comfortably separated.
    """
    cps = cluster_set.cps
    m = topology.m_uavs
    bs = scenario.bs_xy
    d_safe = scenario.d_safe_m
    r_u2u = radii.r_u2u_m
    mids = [0.5 * (r.inner_m + r.outer_m) for r in topology.rings]

    order = scan_order(cps, bs)
    s_count = len(order)
    positions = np.empty((s_count, m, 2))
    duties = np.full((s_count, m), -1)
    pad = _CHAIN_PAD * d_safe
    for i, cp in enumerate(order):
        c = cps[cp]
        vec = c - bs
        d = float(np.hypot(*vec))
        u = vec / d if d > 0 else np.array([1.0, 0.0])
        g = topology.association[cp]
        rad = np.empty(m)
        rad[g] = d
        for j in range(g - 1, -1, -1):
            rad[j] = min(max(mids[j], rad[j + 1] - r_u2u), rad[j + 1] - pad)
        for j in range(g + 1, m):
            rad[j] = min(max(mids[j], rad[j - 1] + pad), rad[j - 1] + r_u2u)
        if rad[0] > radii.r_u2b_m + 1e-9:
            raise InfeasiblePlanError(
                f"CP {cp} forces the innermost UAV to {rad[0]:.0f} m, "
                f"outside BS range {radii.r_u2b_m:.0f} m")
        positions[i] = bs + rad[:, None] * u[None, :]
        positions[i, g] = c
        duties[i, g] = cp

    return MissionPlan(positions, duties, {"algo": "cstp"})
