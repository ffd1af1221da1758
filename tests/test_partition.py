"""Ring partition of the service area and CP association."""

import numpy as np
import pytest
from conftest import build_instance

from skyhaul import pointmatch, tsp
from skyhaul.baselines import plan_cstp, plan_ttp
from skyhaul.mission import evaluate
from skyhaul.partition import build_rings, build_topology, ring_index

BS = (0.0, 0.0)


def _uav_count(cps, radii) -> int:
    return build_topology(cps, BS, radii).m_uavs


def test_single_uav_inside_backhaul_disk(default_radii):
    cps = [[1000.0, 500.0], [0.0, default_radii.r_u2b_m]]
    assert _uav_count(cps, default_radii) == 1


def test_uav_count_steps_at_hop_boundaries(default_radii):
    r_b, r_u = default_radii.r_u2b_m, default_radii.r_u2u_m
    assert _uav_count([[r_b - 1.0, 0.0]], default_radii) == 1
    assert _uav_count([[r_b + 1.0, 0.0]], default_radii) == 2
    assert _uav_count([[r_b + r_u, 0.0]], default_radii) == 2
    assert _uav_count([[r_b + r_u + 1.0, 0.0]], default_radii) == 3
    assert _uav_count([[r_b + 2 * r_u, 0.0]], default_radii) == 3
    assert _uav_count([[r_b + 2 * r_u + 1.0, 0.0]], default_radii) == 4


def test_count_uses_farthest_cp(default_radii):
    cps = [[100.0, 0.0], [0.0, default_radii.r_u2b_m + 10.0]]
    assert _uav_count(cps, default_radii) == 2


def test_count_requires_a_cp(default_radii):
    with pytest.raises(ValueError):
        build_topology(np.zeros((0, 2)), BS, default_radii)


def test_ring_bounds(default_radii):
    r_b, r_u = default_radii.r_u2b_m, default_radii.r_u2u_m
    rings = build_rings(3, default_radii)
    assert rings[0].inner_m == 0.0 and rings[0].outer_m == r_b
    assert rings[1].inner_m == r_b and rings[1].outer_m == pytest.approx(r_b + r_u)
    assert rings[2].inner_m == pytest.approx(r_b + r_u)
    assert rings[2].outer_m == pytest.approx(r_b + 2 * r_u)


def test_ring_index_boundaries_go_inward(default_radii):
    r_b, r_u = default_radii.r_u2b_m, default_radii.r_u2u_m
    assert ring_index(0.0, default_radii) == 0
    assert ring_index(r_b, default_radii) == 0
    assert ring_index(r_b + 0.5 * r_u, default_radii) == 1
    assert ring_index(r_b + r_u, default_radii) == 1
    assert ring_index(r_b + r_u + 1.0, default_radii) == 2


def test_association_and_lookup(default_radii):
    r_b, r_u = default_radii.r_u2b_m, default_radii.r_u2u_m
    cps = [[500.0, 0.0], [0.0, r_b + 0.3 * r_u], [r_b + 1.2 * r_u, 0.0]]
    topo = build_topology(cps, BS, default_radii)
    assert topo.m_uavs == 3
    assert topo.association.tolist() == [0, 1, 2]
    assert [t.order for t in topo.tours] == [(0,), (1,), (2,)]


def test_ring_tours_are_solved_once(monkeypatch):
    # every TSP solve builds one distance matrix, over all its point sets
    solved = []
    pairwise = tsp._pairwise

    def counted(p, q):
        solved.append(len(p))
        return pairwise(p, q)
    monkeypatch.setattr(tsp, "_pairwise", counted)
    scenario, radii, cluster_set, topology = build_instance(300, 8000.0, 1)
    assert topology.m_uavs == 3
    # all ring tours in one solve
    assert solved == [cluster_set.k]
    for planner, expect in ((pointmatch.plan, []), (plan_ttp, [cluster_set.k]),
                            (plan_cstp, [])):
        solved.clear()
        plan = planner(scenario, cluster_set, topology, radii)
        evaluate(plan, scenario, topology, radii, cluster_set)
        assert solved == expect, planner.__name__
