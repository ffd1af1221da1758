"""Concentric ring partition of the service area and CP-to-UAV association.

Ring 0 is the disk the BS backhaul can reach directly; every further ring is
an annulus one relay hop (r_u2u) wide. One UAV serves each ring and the chain
BS - UAV0 - ... - UAV(M-1) stays connected by construction. The rings' visit
tours are solved here, all in one `solve_tours` call, once for every planner
and bound that needs them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import CoverageRadii
from .tsp import Tour, solve_tours


@dataclass(frozen=True)
class Ring:
    inner_m: float
    outer_m: float


@dataclass(frozen=True, eq=False)
class Topology:
    m_uavs: int
    rings: tuple[Ring, ...]
    association: np.ndarray         # (k,) ring index per CP
    tours: tuple[Tour, ...]         # per ring, order over global CP ids


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


def build_topology(cps, bs, radii: CoverageRadii) -> Topology:
    """Fleet size, rings, CP association, and each ring's CP tour."""
    cps = np.asarray(cps, dtype=float).reshape(-1, 2)
    if len(cps) == 0:
        raise ValueError("need at least one collection point")
    dists = np.hypot(*(cps - np.asarray(bs, dtype=float)).T)
    association = np.array([ring_index(float(d), radii) for d in dists])
    # the farthest CP's ring is the outermost, so the chain reaches every CP
    m = int(association.max()) + 1
    ids = [np.flatnonzero(association == ring_idx) for ring_idx in range(m)]
    tours = tuple(Tour(tuple(i[list(tour.order)].tolist()), tour.length_m)
                  for i, tour in zip(ids, solve_tours([cps[i] for i in ids])))
    return Topology(
        m_uavs=m,
        rings=build_rings(m, radii),
        association=association,
        tours=tours,
    )
