"""Point-matching planner: pairing rules, waypoint solvers, full plans."""
from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from conftest import build_instance

from skyhaul import pointmatch
from skyhaul.baselines import plan_cstp, plan_ttp
from skyhaul.cli import prepare
from skyhaul.mission import evaluate, lower_bound
from skyhaul.model import Scenario
from skyhaul.partition import Ring
from skyhaul.pointmatch import (InfeasibleWaypointError, RingPair,
                                _annuli, _arc_minima, _crossings, _minimise,
                                _relaxed_pairs, advance_point, match_pairs,
                                nearest_chain_point, p3_waypoint)
from skyhaul.tsp import solve_tsp


def _pair(outer, inner, hover_out, hover_in, r_u2u, d_safe=0.0, path_m=None):
    """RingPair whose events are `inner` in index order; by default the fixed
    UAV flies straight from one event to the next."""
    inner = np.asarray(inner, dtype=float).reshape(-1, 2)
    if path_m is None:
        legs = np.hypot(*np.diff(inner, axis=0).T)
        path_m = np.concatenate([[0.0], np.cumsum(legs)])[:len(inner)]
    return RingPair(outer, inner, hover_out, hover_in, path_m, r_u2u, d_safe)


def test_link_boundary_is_inclusive():
    pair = _pair([(0.0, 0.0), (10.0, 0.0)], [(0.0, 5.0), (8.0, 0.0)],
                 [1.0, 1.0], [1.0, 1.0], r_u2u=5.0)
    assert pair.link.tolist() == [[True, False], [False, True]]


def test_empty_inner_ring_matches_nothing():
    pair = _pair([(0.0, 0.0)], np.zeros((0, 2)), [1.0], [], r_u2u=100.0)
    assert pair.link.shape == (1, 0)
    assert match_pairs(pair, [0]) == {}
    assert _relaxed_pairs(pair, [0], {}) == {}


def test_fits_checks_link_separation_and_both_hops():
    def pair(r_u2u):
        # attach CPs 0 and 2 at the ends, 1 in between; the fixed path is
        # twice as long as the straight line through the events
        return _pair([(100.0, 50.0), (340.0, 50.0), (600.0, 50.0)],
                     [(100.0 * e, 0.0) for e in range(8)], [1.0] * 3,
                     [1.0] * 8, r_u2u, d_safe=30.0,
                     path_m=[200.0 * e for e in range(8)])

    tight = pair(75.0)
    assert tight.fits(1, 3) and not tight.fits(1, 4)      # gaps 64 m, 78 m
    assert not _pair([(0.0, 10.0)], [(0.0, 0.0)], [1.0], [1.0],
                     r_u2u=75.0, d_safe=30.0).fits(0, 0)  # 10 m apart
    wide = pair(1000.0)
    # hop 240 m from CP 0 at event 1: 200 m of path to event 2, 400 m to 3
    assert wide.fits(1, 2) and not wide.fits(1, 2, last=(0, 1))
    assert wide.fits(1, 3, last=(0, 1))
    # hop 260 m to CP 2 at event 6: 200 m of path from event 5, 400 m from 4
    assert wide.fits(1, 5) and not wide.fits(1, 5, nxt=(2, 6))
    assert wide.fits(1, 4, last=(0, 1), nxt=(2, 6))


def test_match_pairs_simple_walk():
    pair = _pair([[0.0, 100.0], [50.0, 100.0]], [[0.0, 0.0], [50.0, 0.0]],
                 [1.0, 1.0], [5.0, 5.0], r_u2u=150.0)
    assert match_pairs(pair, [0, 1]) == {0: 0, 1: 1}


def test_match_pairs_respects_hover_order():
    # the inner CP finishes before the outer one; sharing would slow the ring
    pair = _pair([[0.0, 100.0]], [[0.0, 0.0]], [5.0], [1.0], r_u2u=150.0)
    assert match_pairs(pair, [0]) == {}


def test_match_pairs_respects_safety_gap():
    pair = _pair([[0.0, 3.0]], [[0.0, 0.0]], [1.0], [5.0], r_u2u=150.0,
                 d_safe=4.0)
    assert match_pairs(pair, [0]) == {}


def test_match_pairs_hop_cannot_outrun_inner_path():
    # outer CPs 1000 m apart, inner CPs 10 m apart: the second share would
    # force the outer UAV to fly 1000 m while the inner one flies 10 m
    pair = _pair([[0.0, 100.0], [1000.0, 100.0]], [[0.0, 0.0], [10.0, 0.0]],
                 [1.0, 1.0], [5.0, 5.0], r_u2u=2000.0)
    assert pair.link.all()
    assert match_pairs(pair, [0, 1]) == {0: 0}


def test_match_pairs_cursor_never_revisits():
    # both outer CPs can only reach inner 0; after the first match the
    # cursor has moved past it
    pair = _pair([[0.0, 50.0], [5.0, 50.0]], [[0.0, 0.0], [500.0, 0.0]],
                 [1.0, 1.0], [9.0, 9.0], r_u2u=100.0)
    assert pair.link.tolist() == [[True, False], [True, False]]
    assert match_pairs(pair, [0, 1]) == {0: 0}


def _relaxed_instance(hover_out_1=5.0, hover_in=(1.0,) * 8):
    """Attach CPs 0 and 3 are matched to events 1 and 6; CPs 1 and 2 sit at
    the same spot between them. The fixed path is twice the straight line."""
    pair = _pair([(100.0, 50.0), (340.0, 50.0), (340.0, 50.0), (600.0, 50.0)],
                 [(100.0 * e, 0.0) for e in range(8)],
                 [1.0, hover_out_1, hover_out_1, 1.0], hover_in,
                 r_u2u=1000.0, d_safe=30.0,
                 path_m=[200.0 * e for e in range(8)])
    return pair, {0: 1, 3: 6}


def test_relaxed_pass_slots_leftovers_inside_their_window():
    pair, pairs = _relaxed_instance()
    extra = _relaxed_pairs(pair, [0, 1, 2, 3], pairs)
    # CP 1 takes event 3, the nearest that fits; CP 2's window then starts
    # after it, although event 3 would fit CP 2 with a smaller gap
    assert extra == {1: 3, 2: 4}
    assert pair.fits(2, 3, last=(1, 3), nxt=(3, 6))
    assert pair.gap[2, 3] < pair.gap[2, 4]


def test_relaxed_pass_picks_least_excess_then_gap():
    pair, pairs = _relaxed_instance()
    assert _relaxed_pairs(pair, [0, 1, 3], pairs) == {1: 3}   # equal excess
    hover_in = (1.0, 1.0, 1.0, 1.0, 3.0, 1.0, 1.0, 1.0)
    pair, pairs = _relaxed_instance(hover_in=hover_in)
    # event 4 leaves 2 s of excess against event 3's 4 s
    assert _relaxed_pairs(pair, [0, 1, 3], pairs) == {1: 4}


def test_relaxed_pass_refuses_hops_that_outrun_the_path():
    # events 2 and 5 would cost no excess, but the hop from CP 0 (240 m) or
    # to CP 3 (260 m) outruns the 200 m of fixed path to them
    hover_in = (1.0, 1.0, 9.0, 1.0, 1.0, 9.0, 1.0, 1.0)
    pair, pairs = _relaxed_instance(hover_in=hover_in)
    assert _relaxed_pairs(pair, [0, 1, 3], pairs) == {1: 3}
    assert not pair.fits(1, 2, last=(0, 1)) and pair.fits(1, 2, nxt=(3, 6))
    assert not pair.fits(1, 5, nxt=(3, 6)) and pair.fits(1, 5, last=(0, 1))
    # with every slot outrun, CP 1 stays unassigned
    pair, _ = _relaxed_instance()
    assert _relaxed_pairs(pair, [0, 1, 3], {0: 1, 3: 4}) == {}


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
        order = list(solve_tsp(outer).order)
        tour_in = list(solve_tsp(inner).order)
        pair = _pair(outer, inner[tour_in], hover_out, hover_in[tour_in],
                     r_u2u, d_safe)
        pairs = match_pairs(pair, order)
        extra = _relaxed_pairs(pair, order, pairs)
        both = pairs | extra
        assert len(both) == len(pairs) + len(extra)
        for matched in (pairs, both):
            # disjoint events that follow both tours monotonically
            events = [matched[a] for a in order if a in matched]
            assert events == sorted(set(events))
        prev = None
        for a in (a for a in order if a in pairs):
            e = pairs[a]
            gap = float(np.hypot(*(outer[a] - inner[tour_in[e]])))
            assert d_safe <= gap <= r_u2u
            assert hover_out[a] <= hover_in[tour_in[e]] + 1e-12
            if prev is not None:
                hop = float(np.hypot(*(outer[prev[0]] - outer[a])))
                assert hop <= pair.path_m[e] - pair.path_m[prev[1]] + 1e-9
            assert pair.fits(a, e, prev)
            prev = (a, e)
        # relaxed slots fit both neighbours of the combined matching
        seq = [(a, both[a]) for a in order if a in both]
        for i, (a, e) in enumerate(seq):
            if a in extra:
                nxt = next(((b, f) for b, f in seq[i + 1:] if b in pairs), None)
                assert pair.fits(a, e, seq[i - 1] if i else None, nxt)


def test_p3_zero_detour_when_edge_crosses_annulus():
    res = p3_waypoint((0.0, 0.0), (-1000.0, 50.0), (1000.0, 50.0),
                      r_u2u=500.0, d_safe=30.0, ring=None)
    assert res.detour_m == 0.0
    x, y = res.point
    assert y == pytest.approx(50.0, abs=1e-9)          # on the segment
    assert -1000.0 <= x <= 1000.0
    assert 30.0 <= np.hypot(x, y) <= 500.0 + 1e-9


def test_p3_far_point_sits_on_range_circle():
    res = p3_waypoint((0.0, 5000.0), (-100.0, 0.0), (100.0, 0.0),
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
        for e1, e2 in zip(path[:-1], path[1:]):
            res = p3_waypoint(p_k, e1, e2, r_u2u=3000.0, d_safe=30.0, ring=ring)
            q = np.array(res.point)
            assert res.detour_m >= 0.0
            assert 30.0 - 1e-6 <= float(np.hypot(*(q - p_k))) <= 3000.0 + 1e-6
            assert (ring.inner_m - 1e-6 <= float(np.hypot(*q))
                    <= ring.outer_m + 1e-6)
            direct = float(np.hypot(*(e2 - e1)))
            det = float(np.hypot(*(q - e1)) + np.hypot(*(q - e2))) - direct
            assert det == pytest.approx(res.detour_m, abs=1e-9)


def test_p3_infeasible_when_ring_out_of_reach():
    ring = Ring(inner_m=10000.0, outer_m=10100.0)
    assert p3_waypoint((0.0, 0.0), (9999.0, 0.0), (10050.0, 100.0),
                       r_u2u=500.0, d_safe=30.0, ring=ring) is None


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


def test_nearest_chain_point_finds_tangent_point():
    # the chain disk around the anchor touches the ring disk at one point
    u = np.array([np.cos(0.3), np.sin(0.3)])
    q = nearest_chain_point((5000.0, 5000.0), 12000.0 * u, r_link=4000.0,
                            d_safe=30.0, ring=Ring(0.0, 8000.0))
    assert np.allclose(q, 8000.0 * u, rtol=0.0, atol=1e-6)


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
    duties = plan.duties[plan.duties != -1]
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
    w = plan.waypoints
    legs = np.hypot(*np.moveaxis(w - np.roll(w, 1, axis=0), 2, 0))
    flown = float(legs[:, pacing].sum())
    tour = solve_tsp(cluster_set.cps[topology.association == pacing])
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


def test_plan_escorts_through_an_empty_middle_ring(default_params,
                                                   default_radii):
    """Two clumps, one near the BS and one past the second ring, leave the
    middle ring without a CP: attaching it matches nothing, its UAV only
    escorts, and the outer CP gets a step of its own."""
    rng = np.random.default_rng(0)
    d = default_radii.r_u2b_m + 1.5 * default_radii.r_u2u_m
    xy = np.vstack([rng.uniform(200.0, 500.0, size=(30, 2)),
                    d / math.sqrt(2) + rng.uniform(0.0, 300.0, size=(30, 2))])
    side = float(xy.max()) + 100.0
    scenario = Scenario(
        region_width_m=side, region_height_m=side, bs_position_m=(0.0, 0.0),
        bs_height_m=20.0, sensor_ids=np.arange(60), sensor_positions=xy,
        sensor_data_bits=np.full(60, 1e7), params=default_params, n_th=60,
        v_max_mps=30.0, d_safe_m=30.0, rng_seed=0)
    radii, cluster_set, topology = prepare(scenario)
    assert [len(tour.order) for tour in topology.tours] == [1, 0, 1]
    for planner in (plan_ttp, plan_cstp, pointmatch.plan):
        plan = planner(scenario, cluster_set, topology, radii)
        report = evaluate(plan, scenario, topology, radii, cluster_set)
        assert report.all_passed, [c for c in report.checks if not c.passed]
    # the loop ends on pmtp's plan
    assert {k: plan.meta[k] for k in (
        "pair_processings", "pairs_matched", "pairs_relaxed",
        "generated_waypoints", "p3_calls", "escorts")} == {
        "pair_processings": 2, "pairs_matched": 0, "pairs_relaxed": 0,
        "generated_waypoints": 1, "p3_calls": 0, "escorts": 2}


def _annulus_grid(center, r_lo, r_hi):
    """Oracle: a 1 degree by (r_hi - r_lo) / 199 polar grid over an annulus."""
    ang = np.linspace(0.0, 2.0 * np.pi, 360, endpoint=False)
    rad = np.linspace(r_lo, r_hi, 200)
    return np.asarray(center, dtype=float) + np.stack([
        np.outer(rad, np.cos(ang)).ravel(),
        np.outer(rad, np.sin(ang)).ravel(),
    ], axis=1)


def _dist(pts, p):
    return np.hypot(*(np.asarray(pts, dtype=float) - np.asarray(p)).T)


def _oracle_instances(count):
    """Ring band plus a chain annulus whose anchor sits near the band, with
    a random previous position, target, leg budget and path edge."""
    rng = np.random.default_rng(2024)
    for _ in range(count):
        inner = float(rng.choice([0.0, rng.uniform(500.0, 6000.0)]))
        ring = Ring(inner, inner + float(rng.uniform(200.0, 4000.0)))
        ang = rng.uniform(0.0, 2.0 * np.pi)
        rad = rng.uniform(max(ring.inner_m - 1500.0, 0.0), ring.outer_m + 1500.0)
        anchor = rad * np.array([np.cos(ang), np.sin(ang)])
        r_link = float(rng.uniform(300.0, 3000.0))
        prev, target, e1, e2 = anchor + rng.uniform(-4000.0, 4000.0, (4, 2))
        yield (ring, anchor, r_link, prev, target, float(rng.uniform(0.0, 2000.0)),
               e1, e2)


def test_waypoint_solvers_never_lose_to_the_grid():
    d_safe = 30.0
    tol = 1e-6
    solved = 0
    for ring, anchor, r_link, prev, target, budget, e1, e2 in _oracle_instances(150):
        grid = _annulus_grid(anchor, d_safe, r_link)
        bsd = _dist(grid, (0.0, 0.0))
        grid = grid[(bsd >= ring.inner_m) & (bsd <= ring.outer_m)]

        def feasible(q):
            return (d_safe - tol <= float(_dist(q, anchor)) <= r_link + tol
                    and ring.inner_m - tol <= float(np.hypot(*q))
                    <= ring.outer_m + tol)

        try:
            q_chain = nearest_chain_point(prev, anchor, r_link, d_safe, ring)
        except InfeasibleWaypointError:
            assert len(grid) == 0
            continue
        solved += 1
        assert feasible(q_chain)
        if len(grid):
            assert float(_dist(q_chain, prev)) <= _dist(grid, prev).min() + tol

        res = p3_waypoint(anchor, e1, e2, r_link, d_safe, ring)
        q = np.array(res.point)
        assert feasible(q)
        if len(grid):
            detour = _dist(grid, e1) + _dist(grid, e2) - float(_dist(e2, e1))
            assert res.detour_m <= detour.min() + tol

        q = advance_point(prev, anchor, target, budget, r_link, d_safe, ring)
        assert feasible(q)
        in_budget = grid[_dist(grid, prev) <= budget]
        if float(_dist(q, prev)) <= budget + tol:
            if len(in_budget):
                assert (float(_dist(q, target))
                        <= _dist(in_budget, target).min() + tol)
        else:
            # no chained point fits the budget: the least move restores it
            assert len(in_budget) == 0
            assert np.allclose(q, q_chain, rtol=0.0, atol=tol)
    assert solved >= 100


def _cost(pts, foci) -> np.ndarray:
    """Summed distance from each point (..., 2) to every focus."""
    pts = np.asarray(pts, dtype=float)
    return np.hypot(*np.moveaxis(pts[..., None, :] - foci, -1, 0)).sum(axis=-1)


def _on_circle(cen: np.ndarray, rad: np.ndarray, theta) -> np.ndarray:
    return cen + rad[..., None] * np.stack([np.cos(theta), np.sin(theta)],
                                           axis=-1)


# The sampled arc solver that the closed form replaced, kept as an oracle:
# 360 samples per circle, each sampled local minimum refined by golden section.
_ARC_SAMPLES = 360          # cost samples per boundary circle (1 degree)
_REFINE_ROUNDS = 40         # golden-section rounds per sampled local minimum
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _sampled_arc_minima(foci: np.ndarray, cen: np.ndarray,
                        rad: np.ndarray) -> np.ndarray:
    """Local minima of the summed distance to `foci` along each circle.

    One focus: its radial projection, in closed form. Several: every sampled
    local minimum is bracketed by its neighbouring samples, then all brackets
    shrink together by golden section.
    """
    if len(foci) == 1:
        v = foci[0] - cen
        return _on_circle(cen, rad, np.arctan2(v[:, 1], v[:, 0]))
    step = 2.0 * np.pi / _ARC_SAMPLES
    theta = np.arange(_ARC_SAMPLES) * step
    f = _cost(_on_circle(cen[:, None], rad[:, None], theta), foci)
    ci, ti = np.nonzero((f <= np.roll(f, 1, axis=1))
                        & (f <= np.roll(f, -1, axis=1)))
    cen, rad = cen[ci], rad[ci]
    lo, hi = theta[ti] - step, theta[ti] + step
    for _ in range(_REFINE_ROUNDS):
        x1 = hi - _GOLDEN * (hi - lo)
        x2 = lo + _GOLDEN * (hi - lo)
        left = (_cost(_on_circle(cen, rad, x1), foci)
                < _cost(_on_circle(cen, rad, x2), foci))
        lo, hi = np.where(left, lo, x1), np.where(left, x2, hi)
    return _on_circle(cen, rad, 0.5 * (lo + hi))


def _feasible(pts, annuli, tol):
    """Which of the points (..., 2) lie in every annulus, give or take tol."""
    ok = True
    for c, lo, hi in annuli:
        d = np.hypot(*np.moveaxis(pts - c, -1, 0))
        ok = ok & (d >= lo - tol) & (d <= hi + tol)
    return ok


def _two_focus_instances(count):
    """A disk or annulus, half the time crossed with a second one, and two
    foci drawn near, inside, outside or astride its outer circle."""
    rng = np.random.default_rng(31)
    spans = {"near": [(0.95, 1.05)] * 2, "inside": [(0.0, 1.0)] * 2,
             "outside": [(1.0, 3.0)] * 2, "astride": [(0.0, 1.0), (1.0, 3.0)]}
    for i in range(count):
        kind = list(spans)[i % 4]
        c = rng.uniform(-2000.0, 2000.0, 2)
        r = float(rng.uniform(100.0, 5000.0))
        annuli = [(c, float(rng.choice([0.0, rng.uniform(0.0, r)])), r)]
        if rng.random() < 0.5:
            annuli.append((c + rng.uniform(-4000.0, 4000.0, 2),
                           float(rng.uniform(0.0, 1000.0)),
                           float(rng.uniform(1000.0, 6000.0))))
        ang = rng.uniform(0.0, 2.0 * np.pi, 2)
        dist = r * np.array([rng.uniform(*s) for s in spans[kind]])
        foci = c + dist[:, None] * np.stack([np.cos(ang), np.sin(ang)], axis=1)
        yield kind, foci, annuli


def test_two_focus_minimum_never_loses_to_sampling_or_a_grid(monkeypatch):
    tol = 1e-6
    angles = np.linspace(0.0, 2.0 * np.pi, 7200, endpoint=False)
    kinds = set()
    for kind, foci, annuli in _two_focus_instances(300):
        q = _minimise(foci, [], annuli)
        with monkeypatch.context() as patched:
            patched.setattr(pointmatch, "_arc_minima", _sampled_arc_minima)
            q_sampled = _minimise(foci, [], annuli)
        circles = [(c, r) for c, lo, hi in annuli
                   for r in ((lo, hi) if lo > 0.0 else (hi,))]
        grid = np.vstack([_on_circle(c, np.array(r), angles)
                          for c, r in circles])
        grid = grid[_feasible(grid, annuli, 1e-9)]
        if q is None:
            assert q_sampled is None and len(grid) == 0
            continue
        kinds.add(kind)
        assert _feasible(q, annuli, tol)
        cost = float(_cost(q, foci))
        if q_sampled is not None:
            assert cost <= float(_cost(q_sampled, foci)) + tol
        if len(grid):
            assert cost <= _cost(grid, foci).min() + tol
    assert kinds == {"near", "inside", "outside", "astride"}


_DEGENERATE = {
    # the band of a UAV whose anchor sits on the BS, reachable and not
    "zero-radius band": ((0.0, 300.0), (-100.0, 600.0), (100.0, 600.0),
                         Ring(0.0, 0.0)),
    "zero-radius band out of reach": ((0.0, 20.0), (-100.0, 600.0),
                                      (100.0, 600.0), Ring(0.0, 0.0)),
    # the edge ends on the CP, the chain circles' centre, short of the band
    "endpoint on the CP": ((0.0, 1000.0), (0.0, 1000.0), (200.0, 1000.0),
                           Ring(1030.0, 2000.0)),
    "coincident endpoints": ((0.0, 1000.0), (0.0, 1010.0), (0.0, 1010.0),
                             Ring(1030.0, 2000.0)),
    "both endpoints on the CP": ((0.0, 1000.0), (0.0, 1000.0), (0.0, 1000.0),
                                 Ring(1030.0, 2000.0)),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", list(_DEGENERATE))
def test_p3_degenerate_geometry_matches_the_sampled_solver(case, monkeypatch):
    p_k, e1, e2, ring = _DEGENERATE[case]
    args = (p_k, e1, e2, 500.0, 30.0, ring)
    with np.errstate(all="raise"):
        res = p3_waypoint(*args)
    monkeypatch.setattr(pointmatch, "_arc_minima", _sampled_arc_minima)
    oracle = p3_waypoint(*args)
    if oracle is None:
        assert res is None
        return
    q = np.array(res.point)
    annuli = [(np.array(p_k), 30.0, 500.0), (np.zeros(2), ring.inner_m,
                                              ring.outer_m)]
    assert _feasible(q, annuli, 1e-6)
    assert res.detour_m == pytest.approx(oracle.detour_m, abs=1e-6)


# The waypoint solver as numpy array code, before it moved to Python floats,
# kept as the reference the float solver must reproduce.
def reference_crossings(c1: np.ndarray, r1: float, c2: np.ndarray,
                        r2: float) -> np.ndarray:
    v = c2 - c1
    d = float(np.hypot(*v))
    if d == 0.0:
        return np.zeros((0, 2))
    u = v / d
    a = (d * d + r1 * r1 - r2 * r2) / (2.0 * d)
    h = math.sqrt(max(r1 * r1 - a * a, 0.0))
    return c1 + a * u + np.outer([h, -h], [-u[1], u[0]])


def reference_chord(db, bb, dd, r):
    disc = db * db - bb * (dd - r * r)
    s = np.sqrt(np.maximum(disc, 0.0))
    return disc, (-db - s) / bb, (-db + s) / bb


def reference_arc_minima(foci: np.ndarray, cen: np.ndarray,
                         rad: np.ndarray) -> np.ndarray:
    rel = foci[:, None] - cen
    pts = [_on_circle(cen, rad, np.arctan2(v[:, 1], v[:, 0])) for v in rel]
    if len(foci) == 1:
        return pts[0]
    a, b = (rel[..., 0] + 1j * rel[..., 1]) / np.where(rad > 0.0, rad, 1.0)
    k = np.flatnonzero((rad > 0.0) & (a * b != 0.0))
    s, p = a[k] + b[k], a[k] * b[k]
    comp = np.zeros((len(k), 4, 4), dtype=complex)
    comp[:, 1:, :-1] = np.eye(3)
    comp[:, 0] = (np.stack([s.conj(), np.zeros_like(s), -s, p], axis=1)
                  / p.conj()[:, None])
    theta = np.angle(np.linalg.eigvals(comp))
    pts.append(_on_circle(cen[k, None], rad[k, None], theta).reshape(-1, 2))
    edge = foci[1] - foci[0]
    if (bb := float(edge @ edge)) > 0.0:
        disc, t0, t1 = reference_chord(rel[0] @ edge, bb,
                                       (rel[0] ** 2).sum(1), rad)
        t = np.concatenate([t0, t1])
        t = t[np.tile(disc >= 0.0, 2) & (t >= 0.0) & (t <= 1.0)]
        pts.append(foci[0] + t[:, None] * edge)
    return np.vstack(pts)


def reference_minimise(foci, seeds, annuli) -> np.ndarray | None:
    foci = np.asarray(foci, dtype=float).reshape(-1, 2)
    circles = [(np.asarray(c, dtype=float), r) for c, lo, hi in annuli
               for r in ((lo, hi) if lo > 0.0 else (hi,))]
    cen, rad = (np.array(x, dtype=float) for x in zip(*circles))
    pts = np.vstack(
        [np.asarray(seeds, dtype=float).reshape(-1, 2),
         reference_arc_minima(foci, cen, rad)]
        + [reference_crossings(*a, *b)
           for a, b in itertools.combinations(circles, 2)])
    ok = np.ones(len(pts), dtype=bool)
    for c, lo, hi in annuli:
        d = np.hypot(*(pts - c).T)
        ok &= (d >= lo - pointmatch._TOL_M) & (d <= hi + pointmatch._TOL_M)
    best = int(np.argmin(np.where(ok, _cost(pts, foci), np.inf)))
    return pts[best].copy() if ok[best] else None


_DEGENERATE_SOLVES = {
    # (foci, seeds, annuli): each as the planner poses it
    "outer tangent disks": ([(150.0, 80.0)], [(150.0, 80.0)],
                            [((0.0, 0.0), 0.0, 100.0),
                             ((200.0, 0.0), 0.0, 100.0)]),
    "inner tangent annulus": ([(0.0, 500.0), (40.0, 520.0)], [],
                              [((0.0, 0.0), 100.0, 200.0),
                               ((300.0, 0.0), 0.0, 100.0)]),
    "concentric annuli": ([(30.0, 400.0), (90.0, 350.0)], [],
                          [((10.0, 20.0), 50.0, 150.0),
                           ((10.0, 20.0), 120.0, 300.0)]),
    "zero-radius band": ([(-100.0, 600.0), (100.0, 640.0)], [],
                         [((0.0, 300.0), 30.0, 500.0),
                          ((0.0, 0.0), 0.0, 0.0)]),
    "zero-radius band out of reach": ([(-100.0, 600.0), (100.0, 640.0)], [],
                                      [((0.0, 20.0), 30.0, 500.0),
                                       ((0.0, 0.0), 0.0, 0.0)]),
    "coincident foci": ([(700.0, 90.0), (700.0, 90.0)], [],
                        [((0.0, 0.0), 30.0, 500.0),
                         ((0.0, 0.0), 0.0, 2000.0)]),
    "focus on a centre": ([(0.0, 0.0), (900.0, 300.0)], [],
                          [((0.0, 0.0), 30.0, 500.0),
                           ((400.0, 0.0), 100.0, 2000.0)]),
    "both foci on a centre": ([(900.0, 0.0), (900.0, 0.0)], [],
                              [((900.0, 0.0), 30.0, 500.0),
                               ((0.0, 0.0), 1030.0, 2000.0)]),
    "seed on a centre": ([(0.0, 1000.0)], [(0.0, 1000.0)],
                         [((0.0, 1000.0), 30.0, 500.0),
                          ((0.0, 0.0), 1030.0, 2000.0)]),
}


def _solver_instances():
    """(foci, seeds, annuli) as the planner poses them (chain points,
    escorts and window edges on random rings), the two-focus instances and
    the degenerate cases."""
    for ring, anchor, r_link, prev, target, budget, e1, e2 in \
            _oracle_instances(150):
        chain = _annuli(anchor, 30.0, r_link, ring, np.zeros(2))
        yield [prev], [prev], chain
        yield [target], [target], chain + [(prev, 0.0, budget)]
        yield [e1, e2], [], chain
    for _, foci, annuli in _two_focus_instances(300):
        yield foci, [], annuli
    yield from _DEGENERATE_SOLVES.values()


def _segment_meets(foci, annuli) -> bool:
    """Two foci whose segment crosses the feasible set: every feasible point
    of that crossing costs |AB|, so rounding alone picks the minimiser."""
    return (len(foci) == 2
            and pointmatch._edge_through_point(foci[0], foci[1], annuli)
            is not None)


@pytest.mark.filterwarnings("error")
def test_float_solver_matches_the_array_reference():
    solved = ties = 0
    for foci, seeds, annuli in _solver_instances():
        with np.errstate(all="raise"):
            q = _minimise(foci, seeds, annuli)
        ref = reference_minimise(foci, seeds, annuli)
        if ref is None:
            assert q is None
            continue
        solved += 1
        assert q is not None
        if _segment_meets(foci, annuli):
            ties += 1
            foci = np.asarray(foci, dtype=float)
            assert _feasible(np.asarray(q), annuli, pointmatch._TOL_M)
            assert float(_cost(q, foci)) == pytest.approx(
                float(_cost(ref, foci)), rel=0.0, abs=1e-9)
        else:
            assert math.dist(q, ref) <= 1e-9
    assert solved >= 500 and solved - ties >= 300


def _same_points(got, ref, atol: float) -> bool:
    """Two (P, 2) point lists hold the same points up to order, give or take
    atol (a repeated root's eigenvalues come in either order)."""
    gap = np.hypot(*np.moveaxis(got[:, None] - ref[None], -1, 0))
    return (got.shape == ref.shape and bool(gap.min(axis=0).max() <= atol)
            and bool(gap.min(axis=1).max() <= atol))


def test_float_solver_parts_match_the_array_reference():
    """Crossings in the same order, arc minima up to the order of repeated
    roots, each within 1e-9 m of the reference."""
    for foci, _, annuli in _solver_instances():
        circles = [(np.asarray(c, dtype=float), r) for c, lo, hi in annuli
                   for r in ((lo, hi) if lo > 0.0 else (hi,))]
        for (c1, r1), (c2, r2) in itertools.combinations(circles, 2):
            ref = reference_crossings(c1, r1, c2, r2)
            got = np.reshape(_crossings(c1, r1, c2, r2), (-1, 2))
            assert got.shape == ref.shape
            assert np.allclose(got, ref, rtol=0.0, atol=1e-9)
        args = (np.asarray(foci, dtype=float).reshape(-1, 2),
                *(np.array(x, dtype=float) for x in zip(*circles)))
        assert _same_points(_arc_minima(*args), reference_arc_minima(*args),
                            1e-9)
