"""Concentric ring partition of the service area and CP-to-UAV association.

Ring 0 is the disk the BS backhaul can reach directly; every further ring is
an annulus one relay hop (r_u2u) wide. One UAV serves each ring and the chain
BS - UAV0 - ... - UAV(M-1) stays connected by construction. Each ring's
visit tour is solved here, once, for every planner and bound that needs it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import CoverageRadii
from .tsp import Tour, solve_tsp


class InfeasibleTopologyError(ValueError):
    """A collection point falls outside every ring of the topology."""


@dataclass(frozen=True)
class Ring:
    inner_m: float
    outer_m: float


@dataclass(frozen=True)
class Topology:
    m_uavs: int
    rings: tuple[Ring, ...]
    association: tuple[int, ...]    # ring index per CP
    tours: tuple[Tour, ...]         # per ring, order over global CP ids

    def cps_of_ring(self, ring_idx: int) -> list[int]:
        return [k for k, r in enumerate(self.association) if r == ring_idx]


def required_uav_count(cps, bs, radii: CoverageRadii) -> int:
    """Fewest chained UAVs that can reach the farthest collection point."""
    cps = np.asarray(cps, dtype=float).reshape(-1, 2)
    if len(cps) == 0:
        raise ValueError("need at least one collection point")
    d_max = float(np.hypot(*(cps - np.asarray(bs, dtype=float)).T).max())
    if d_max <= radii.r_u2b_m:
        return 1
    return math.ceil((d_max - radii.r_u2b_m) / radii.r_u2u_m) + 1


def build_rings(m: int, radii: CoverageRadii) -> tuple[Ring, ...]:
    rings = [Ring(0.0, radii.r_u2b_m)]
    for i in range(1, m):
        rings.append(Ring(radii.r_u2b_m + (i - 1) * radii.r_u2u_m,
                          radii.r_u2b_m + i * radii.r_u2u_m))
    return tuple(rings)


def ring_index(dist: float, radii: CoverageRadii) -> int:
    """Ring holding a CP at BS distance `dist`; boundary ties go inward."""
    if dist <= radii.r_u2b_m:
        return 0
    return math.ceil((dist - radii.r_u2b_m) / radii.r_u2u_m)


def associate(cps, bs, m: int, radii: CoverageRadii) -> tuple[int, ...]:
    cps = np.asarray(cps, dtype=float).reshape(-1, 2)
    dists = np.hypot(*(cps - np.asarray(bs, dtype=float)).T)
    assoc = []
    for k, d in enumerate(dists):
        idx = ring_index(float(d), radii)
        if idx >= m:
            raise InfeasibleTopologyError(
                f"CP {k} at {d:.1f} m lies beyond ring {m - 1}")
        assoc.append(idx)
    return tuple(assoc)


def build_topology(cps, bs, radii: CoverageRadii) -> Topology:
    """Fleet size, rings, CP association, and each ring's CP tour."""
    cps = np.asarray(cps, dtype=float).reshape(-1, 2)
    m = required_uav_count(cps, bs, radii)
    association = associate(cps, bs, m, radii)
    tours = []
    for ring_idx in range(m):
        ids = [k for k, r in enumerate(association) if r == ring_idx]
        tour = solve_tsp(cps[ids])
        tours.append(Tour(tuple(ids[j] for j in tour.order), tour.length_m))
    return Topology(
        m_uavs=m,
        rings=build_rings(m, radii),
        association=association,
        tours=tuple(tours),
    )
