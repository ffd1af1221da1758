"""Point-matching planner: pairing rules, waypoint solvers, full plans."""
from __future__ import annotations

import numpy as np
import pytest
from conftest import build_instance

from skyhaul import pointmatch
from skyhaul.mission import evaluate, lower_bound
from skyhaul.partition import Ring
from skyhaul.pointmatch import (InfeasibleWaypointError, advance_point,
                                connectable_sets, match_pairs,
                                nearest_chain_point, p3_waypoint)
from skyhaul.tsp import solve_tsp


def test_connectable_sets_by_distance():
    outer = [(0.0, 0.0), (10.0, 0.0)]
    inner = [(0.0, 5.0), (8.0, 0.0)]
    sets = connectable_sets(outer, inner, 5.0)
    assert sets == [{0}, {1}]           # 5.0 m boundary is inclusive


def test_connectable_sets_empty_inner():
    assert connectable_sets([(0.0, 0.0)], np.zeros((0, 2)), 100.0) == [set()]


def _path_dist(points, order):
    """Forward distance along the tour `order` from one point to another."""
    p = np.asarray(points, dtype=float)[list(order)]
    legs = np.hypot(*(np.roll(p, -1, axis=0) - p).T)
    cum = np.concatenate([[0.0], np.cumsum(legs)])
    pos = {c: i for i, c in enumerate(order)}

    def dist(a, b):
        i, j = pos[a], pos[b]
        return float(cum[j] - cum[i] if j >= i else cum[-1] - cum[i] + cum[j])
    return dist


def test_match_pairs_simple_walk():
    outer = np.array([[0.0, 100.0], [50.0, 100.0]])
    inner = np.array([[0.0, 0.0], [50.0, 0.0]])
    conn = connectable_sets(outer, inner, 150.0)
    m = match_pairs(outer, inner, [0, 1], [0, 1],
                    hover_outer=[1.0, 1.0], hover_inner=[5.0, 5.0],
                    connectable=conn, inner_path_dist=_path_dist(inner, [0, 1]))
    assert m.pairs == ((0, 0), (1, 1))
    assert m.unmatched_outer == () and m.unmatched_inner == ()


def test_match_pairs_respects_hover_order():
    # the inner CP finishes before the outer one; sharing would slow the ring
    outer = np.array([[0.0, 100.0]])
    inner = np.array([[0.0, 0.0]])
    conn = connectable_sets(outer, inner, 150.0)
    m = match_pairs(outer, inner, [0], [0], hover_outer=[5.0],
                    hover_inner=[1.0], connectable=conn,
                    inner_path_dist=_path_dist(inner, [0]))
    assert m.pairs == ()
    assert m.unmatched_outer == (0,) and m.unmatched_inner == (0,)


def test_match_pairs_respects_safety_gap():
    outer = np.array([[0.0, 3.0]])
    inner = np.array([[0.0, 0.0]])
    conn = connectable_sets(outer, inner, 150.0)
    m = match_pairs(outer, inner, [0], [0], hover_outer=[1.0],
                    hover_inner=[5.0], connectable=conn,
                    inner_path_dist=_path_dist(inner, [0]), d_safe=4.0)
    assert m.pairs == ()


def test_match_pairs_hop_cannot_outrun_inner_path():
    # outer CPs 1000 m apart, inner CPs 10 m apart: the second share would
    # force the outer UAV to fly 1000 m while the inner one flies 10 m
    outer = np.array([[0.0, 100.0], [1000.0, 100.0]])
    inner = np.array([[0.0, 0.0], [10.0, 0.0]])
    conn = [{0, 1}, {0, 1}]
    m = match_pairs(outer, inner, [0, 1], [0, 1], hover_outer=[1.0, 1.0],
                    hover_inner=[5.0, 5.0], connectable=conn,
                    inner_path_dist=_path_dist(inner, [0, 1]))
    assert m.pairs == ((0, 0),)
    assert m.unmatched_outer == (1,)


def test_match_pairs_cursor_never_revisits():
    # both outer CPs can only reach inner 0; after the first match the
    # cursor has moved past it
    outer = np.array([[0.0, 50.0], [5.0, 50.0]])
    inner = np.array([[0.0, 0.0], [500.0, 0.0]])
    conn = connectable_sets(outer, inner, 100.0)
    assert conn == [{0}, {0}]
    m = match_pairs(outer, inner, [0, 1], [0, 1], hover_outer=[1.0, 1.0],
                    hover_inner=[9.0, 9.0], connectable=conn,
                    inner_path_dist=_path_dist(inner, [0, 1]))
    assert m.pairs == ((0, 0),)
    assert m.unmatched_outer == (1,)
    assert m.unmatched_inner == (1,)


def test_match_pairs_contract_on_random_instances():
    rng = np.random.default_rng(7)
    d_safe = 30.0
    for _ in range(30):
        n_out = int(rng.integers(2, 10))
        n_in = int(rng.integers(2, 10))
        outer = rng.uniform(0, 2000, size=(n_out, 2))
        inner = rng.uniform(0, 2000, size=(n_in, 2))
        r_u2u = float(rng.uniform(300, 2500))
        hover_out = rng.uniform(1, 10, size=n_out)
        hover_in = rng.uniform(1, 10, size=n_in)
        tour_out = list(solve_tsp(outer).order)
        tour_in = list(solve_tsp(inner).order)
        conn = connectable_sets(outer, inner, r_u2u)
        dist = _path_dist(inner, tour_in)
        m = match_pairs(outer, inner, tour_out, tour_in, hover_out, hover_in,
                        conn, dist, d_safe=d_safe)
        # disjoint, and unmatched lists complete the partition
        outs = [a for a, _ in m.pairs]
        ins = [c for _, c in m.pairs]
        assert len(set(outs)) == len(outs) and len(set(ins)) == len(ins)
        assert sorted(outs + list(m.unmatched_outer)) == sorted(range(n_out))
        assert sorted(ins + list(m.unmatched_inner)) == sorted(range(n_in))
        # both sides follow their tours monotonically
        assert [tour_out.index(a) for a in outs] == sorted(
            tour_out.index(a) for a in outs)
        in_pos = [tour_in.index(c) for c in ins]
        assert in_pos == sorted(in_pos) and len(set(in_pos)) == len(in_pos)
        # every pair satisfies all four matching conditions
        prev = None
        for a, c in m.pairs:
            gap = float(np.hypot(*(outer[a] - inner[c])))
            assert c in conn[a] and gap <= r_u2u
            assert gap >= d_safe
            assert hover_out[a] <= hover_in[c] + 1e-12
            if prev is not None:
                hop = float(np.hypot(*(outer[prev[0]] - outer[a])))
                assert hop <= dist(prev[1], c) + 1e-9
            prev = (a, c)


def test_p3_zero_detour_when_edge_crosses_annulus():
    res = p3_waypoint((0.0, 0.0), [(-1000.0, 50.0), (1000.0, 50.0)],
                      r_u2u=500.0, d_safe=30.0, ring=None)
    assert res.detour_m == 0.0
    x, y = res.point
    assert y == pytest.approx(50.0, abs=1e-9)          # on the segment
    assert -1000.0 <= x <= 1000.0
    assert 30.0 <= np.hypot(x, y) <= 500.0 + 1e-9


def test_p3_far_point_sits_on_range_circle():
    res = p3_waypoint((0.0, 5000.0), [(-100.0, 0.0), (100.0, 0.0)],
                      r_u2u=500.0, d_safe=0.0, ring=None)
    d = float(np.hypot(res.point[0], res.point[1] - 5000.0))
    assert d == pytest.approx(500.0, rel=1e-6)
    # best insertion heads toward the segment, so roughly (0, 4500)
    assert abs(res.point[0]) < 15.0
    assert res.point[1] == pytest.approx(4500.0, abs=15.0)


def test_p3_random_postconditions():
    rng = np.random.default_rng(11)
    ring = Ring(inner_m=2000.0, outer_m=6000.0)
    for _ in range(15):
        ang = rng.uniform(0, 2 * np.pi)
        r = rng.uniform(2300, 5700)
        p_k = np.array([r * np.cos(ang), r * np.sin(ang)])
        path = p_k + rng.uniform(-3000, 3000, size=(4, 2))
        # keep the chain inside the ring so some candidates survive
        rad = np.hypot(*path.T)
        path = path * (np.clip(rad, 2100.0, 5900.0) / rad)[:, None]
        res = p3_waypoint(p_k, path, r_u2u=3000.0, d_safe=30.0, ring=ring)
        q = np.array(res.point)
        assert res.detour_m >= 0.0
        assert 0 <= res.edge_index < len(path) - 1
        assert 30.0 - 1e-6 <= float(np.hypot(*(q - p_k))) <= 3000.0 + 1e-6
        assert ring.inner_m - 1e-6 <= float(np.hypot(*q)) <= ring.outer_m + 1e-6
        e1, e2 = path[res.edge_index], path[res.edge_index + 1]
        direct = float(np.hypot(*(e2 - e1)))
        det = float(np.hypot(*(q - e1)) + np.hypot(*(q - e2))) - direct
        assert det == pytest.approx(res.detour_m, abs=1e-9)


def test_p3_needs_an_edge():
    with pytest.raises(ValueError, match="edge"):
        p3_waypoint((0.0, 0.0), [(1.0, 1.0)], 100.0, 0.0, None)


def test_p3_infeasible_when_ring_out_of_reach():
    ring = Ring(inner_m=10000.0, outer_m=10100.0)
    with pytest.raises(InfeasibleWaypointError, match="no point of the ring"):
        p3_waypoint((0.0, 0.0), [(9999.0, 0.0), (10050.0, 100.0)],
                    r_u2u=500.0, d_safe=30.0, ring=ring)


def test_nearest_chain_point_keeps_feasible_prev():
    q = nearest_chain_point((100.0, 50.0), (0.0, 0.0), r_link=200.0,
                            d_safe=30.0, ring=None)
    assert tuple(q) == (100.0, 50.0)


def test_nearest_chain_point_clips_to_link_radius():
    q = nearest_chain_point((1000.0, 0.0), (0.0, 0.0), r_link=200.0,
                            d_safe=30.0, ring=None)
    assert float(np.hypot(*q)) == pytest.approx(200.0, abs=1e-9)
    assert q[1] == pytest.approx(0.0, abs=1e-9)


def test_nearest_chain_point_respects_ring_band():
    ring = Ring(inner_m=500.0, outer_m=900.0)
    anchor = (700.0, 0.0)
    q = nearest_chain_point((1200.0, 0.0), anchor, r_link=600.0,
                            d_safe=30.0, ring=ring)
    assert 500.0 - 1e-6 <= float(np.hypot(*q)) <= 900.0 + 1e-6
    assert 30.0 - 1e-6 <= float(np.hypot(*(q - np.array(anchor)))) <= 600.0 + 1e-6


def test_advance_point_moves_toward_target_within_budget():
    prev = np.array([0.0, 100.0])
    target = np.array([1000.0, 100.0])
    q = advance_point(prev, anchor=(500.0, 0.0), target=target,
                      budget_m=200.0, r_link=600.0, d_safe=30.0, ring=None)
    leg = float(np.hypot(*(q - prev)))
    assert leg <= 200.0 + 1e-6
    assert float(np.hypot(*(q - target))) < float(np.hypot(*(prev - target)))
    d_anchor = float(np.hypot(*(q - np.array([500.0, 0.0]))))
    assert 30.0 - 1e-6 <= d_anchor <= 600.0 + 1e-6


def test_advance_point_restores_chain_when_budget_too_small():
    # prev is 1000 m outside the link radius; budget 1 m cannot fix that,
    # so the smallest chain-restoring move wins
    prev = np.array([1600.0, 0.0])
    q = advance_point(prev, anchor=(0.0, 0.0), target=(0.0, 500.0),
                      budget_m=1.0, r_link=600.0, d_safe=30.0, ring=None)
    d_anchor = float(np.hypot(*q))
    assert 30.0 - 1e-6 <= d_anchor <= 600.0 + 1e-6


def test_plan_single_ring_hits_lower_bound():
    scenario, radii, cluster_set, topology = build_instance(80, 2500.0, 1)
    assert topology.m_uavs == 1
    plan = pointmatch.plan(scenario, cluster_set, topology, radii)
    report = evaluate(plan, scenario, topology, radii, cluster_set)
    bound = lower_bound(cluster_set, topology, scenario.v_max_mps)
    assert report.all_passed
    assert report.completion_s == pytest.approx(bound, rel=1e-12)
    duties = [d for s in plan.steps for d in s.duties if d is not None]
    assert sorted(duties) == list(range(cluster_set.k))
    assert plan.meta["pair_processings"] == 0


def test_plan_two_rings_pacing_invariant():
    scenario, radii, cluster_set, topology = build_instance(150, 4000.0, 3)
    assert topology.m_uavs == 2
    plan = pointmatch.plan(scenario, cluster_set, topology, radii)
    report = evaluate(plan, scenario, topology, radii, cluster_set)
    assert report.all_passed
    assert plan.meta["pair_processings"] == 1
    # the pacing ring flies exactly its tour plus the recorded detours
    pacing = plan.meta["pacing_ring"]
    w = plan.waypoint_array()
    legs = np.hypot(*np.moveaxis(w - np.roll(w, 1, axis=0), 2, 0))
    flown = float(legs[:, pacing].sum())
    ids = topology.cps_of_ring(pacing)
    tour = solve_tsp(cluster_set.cp_array()[ids])
    assert flown == pytest.approx(tour.length_m + plan.meta["detour_m"],
                                  rel=1e-9)


def test_plan_three_rings_valid():
    scenario, radii, cluster_set, topology = build_instance(300, 8000.0, 1)
    assert topology.m_uavs == 3
    plan = pointmatch.plan(scenario, cluster_set, topology, radii)
    report = evaluate(plan, scenario, topology, radii, cluster_set)
    assert report.all_passed, [c for c in report.checks if not c.passed]
    assert plan.meta["pair_processings"] == 2
    assert not report.bound_violated
