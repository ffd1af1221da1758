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
    c = cps[np.array(tour.order)]
    d, u = _bearings(c, bs)
    perp = np.stack([-u[:, 1], u[:, 0]], axis=1)
    # CP close to the BS: the line collapses, fan the relays out
    fan = (d / m < _CHAIN_PAD * d_safe)[:, None]
    for j in range(m - 1):
        p = bs + u * (d * (j + 1) / m)[:, None]
        sign = 1.0 if j % 2 == 0 else -1.0
        offset = sign * _OFFSET_GAIN * d_safe * (1 + j // 2)
        positions[:, j] = np.where(fan, p + perp * offset, p)
    positions[:, m - 1] = c

    meta = {"algo": "ttp", "tour_length_m": tour.length_m}
    return MissionPlan(positions, duties, meta)


def _bearings(c: np.ndarray, bs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(S,) distance and (S, 2) unit direction of each point `c` from the
    BS; a point on the BS gets the direction (1, 0)."""
    vec = c - bs
    d = np.hypot(*vec.T)
    u = np.divide(vec, d[:, None], out=np.tile([1.0, 0.0], (len(c), 1)),
                  where=d[:, None] > 0)
    return d, u


def scan_order(cps: np.ndarray, bs: np.ndarray) -> list[int]:
    """CP visit order for the circular scan: ascending angle about the BS,
    ties broken by distance."""
    vec = np.asarray(cps, dtype=float) - np.asarray(bs, dtype=float)
    ang = np.arctan2(vec[:, 1], vec[:, 0])
    dist = np.hypot(*vec.T)
    # a stable sort: equal angle and distance keep the index order
    return np.lexsort((dist, ang)).tolist()


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
    r_u2u = radii.r_u2u_m
    pad = _CHAIN_PAD * scenario.d_safe_m
    mids = [0.5 * (r.inner_m + r.outer_m) for r in topology.rings]

    order = np.array(scan_order(cps, bs))
    steps = np.arange(len(order))
    c = cps[order]
    d, u = _bearings(c, bs)
    g = topology.association[order]
    # each UAV's distance from the BS: d on the serving ring g, clamped ring
    # by ring inward from g (UAV j on the steps with j < g), then outward
    rad = np.repeat(d[:, None], m, axis=1)
    for j in range(m - 2, -1, -1):
        out = rad[:, j + 1]
        inward = np.minimum(np.maximum(mids[j], out - r_u2u), out - pad)
        rad[:, j] = np.where(j < g, inward, rad[:, j])
    for j in range(1, m):
        inn = rad[:, j - 1]
        outward = np.minimum(np.maximum(mids[j], inn + pad), inn + r_u2u)
        rad[:, j] = np.where(j > g, outward, rad[:, j])
    forced = np.flatnonzero(rad[:, 0] > radii.r_u2b_m + 1e-9)
    if forced.size:
        i = forced[0]
        raise InfeasiblePlanError(
            f"CP {order[i]} forces the innermost UAV to {rad[i, 0]:.0f} m, "
            f"outside BS range {radii.r_u2b_m:.0f} m")
    positions = bs + rad[:, :, None] * u[:, None, :]
    positions[steps, g] = c
    duties = np.full((len(order), m), -1)
    duties[steps, g] = order
    return MissionPlan(positions, duties, {"algo": "cstp"})
