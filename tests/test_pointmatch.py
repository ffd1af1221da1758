"""Point-matching planner: pairing rules, waypoint solvers, full plans."""
from __future__ import annotations

import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from conftest import build_instance
from test_acceptance import _STRESS_REGIMES

from skyhaul import pointmatch
from skyhaul.baselines import plan_cstp, plan_ttp
from skyhaul.cli import prepare
from skyhaul.mission import DIST_TOL_M, evaluate, lower_bound
from skyhaul.model import ChannelParams, Scenario, apply_config_overrides
from skyhaul.partition import Ring
from skyhaul.pointmatch import (InfeasibleWaypointError, _arc_minima,
                                _crossings, _detour_floor, _minimise,
                                advance_point, match_pairs,
                                nearest_chain_point, p3_waypoint)
from skyhaul.tsp import _pairwise, solve_tsp


def _pair(outer, inner, hover_out, hover_in, r_u2u, d_safe=0.0, path_m=None):
    """`match_pairs` arguments whose events are `inner` in index order; by
    default the fixed UAV flies straight from one event to the next."""
    inner = np.asarray(inner, dtype=float).reshape(-1, 2)
    if path_m is None:
        legs = np.hypot(*np.diff(inner, axis=0).T)
        path_m = np.concatenate([[0.0], np.cumsum(legs)])[:len(inner)]
    return outer, inner, hover_out, hover_in, path_m, r_u2u, d_safe


def _link(pair):
    """Which attach CPs of `pair` are within U2U range of which events."""
    outer, inner, *_, r_u2u, _ = pair
    return _pairwise(np.asarray(outer, dtype=float).reshape(-1, 2),
                     inner) <= r_u2u


def _allowed(anchor, d_safe, r_link, ring=None, bs=(0.0, 0.0)):
    """The annuli a solver takes: the chain annulus about `anchor`, then
    `ring` about `bs` when given."""
    band = [] if ring is None else [(bs, ring.inner_m, ring.outer_m)]
    return [(anchor, d_safe, r_link)] + band


def test_link_boundary_is_inclusive():
    """A CP exactly r_u2u from its only event shares its step."""
    for r_u2u, expected in ((5.0, ([0], {0: 0})), (4.999999999, ([0], {}))):
        pair = _pair([(0.0, 0.0)], [(3.0, 4.0)], [1.0], [1.0], r_u2u=r_u2u)
        assert match_pairs(*pair) == expected


def test_empty_inner_ring_matches_nothing():
    pair = _pair([(0.0, 0.0)], np.zeros((0, 2)), [1.0], [], r_u2u=100.0)
    assert _link(pair).shape == (1, 0)
    assert match_pairs(*pair) == ([0], {})


def _three_cps(hover_out=(1.0, 1.0, 1.0), hover_in=(1.0,) * 8):
    """Attach CPs 0 and 2 link only events 1 and 6, CP 1 events 2 to 5. The
    fixed path is twice the straight line: 200 m between events, against
    hops of 260 m from CP 0 to CP 1 and 279 m from CP 1 to CP 2."""
    return _pair([(100.0, 150.0), (340.0, 50.0), (600.0, 150.0)],
                 [(100.0 * e, 0.0) for e in range(8)], hover_out, hover_in,
                 r_u2u=170.0, d_safe=30.0,
                 path_m=[200.0 * e for e in range(8)])


def test_match_pairs_checks_link_separation_and_both_hops():
    pair = _three_cps()
    assert [np.flatnonzero(row).tolist() for row in _link(pair)] == [
        [1], [2, 3, 4, 5], [6]]
    # CP 1 takes event 3 or 4, 400 m of path from both neighbours' events
    assert match_pairs(*pair) == ([0, 1, 2], {0: 1, 1: 3, 2: 6})
    close = _pair([(0.0, 10.0)], [(0.0, 0.0)], [1.0], [1.0], r_u2u=75.0,
                  d_safe=30.0)
    assert match_pairs(*close) == ([0], {})          # 10 m apart


def test_match_pairs_refuses_hops_that_outrun_the_path():
    # events 2 and 5 hover as long as CP 1, but the hop from CP 0 at event 1
    # or to CP 2 at event 6 outruns the 200 m of path to them: sharing event
    # 2 or 5 costs one neighbour its step, and saves more than that
    hover_in = (1.0, 1.0, 9.0, 1.0, 1.0, 9.0, 1.0, 1.0)
    pair = _three_cps(hover_out=(1.0, 5.0, 1.0), hover_in=hover_in)
    assert match_pairs(*pair) == ([0, 1, 2], {0: 1, 1: 5})


def test_match_pairs_simple_walk():
    pair = _pair([[0.0, 100.0], [50.0, 100.0]], [[0.0, 0.0], [50.0, 0.0]],
                 [1.0, 1.0], [5.0, 5.0], r_u2u=150.0)
    assert match_pairs(*pair) == ([0, 1], {0: 0, 1: 1})


def test_match_pairs_pays_hover_excess():
    # the inner CP finishes 4 s before the outer one: the shared step waits
    # 4 s, where a step of the outer CP's own would take 5 s
    pair = _pair([[0.0, 100.0]], [[0.0, 0.0]], [5.0], [1.0], r_u2u=150.0)
    assert match_pairs(*pair) == ([0], {0: 0})


def test_match_pairs_respects_safety_gap():
    pair = _pair([[0.0, 3.0]], [[0.0, 0.0]], [1.0], [5.0], r_u2u=150.0,
                 d_safe=4.0)
    assert match_pairs(*pair) == ([0], {})


def test_match_pairs_hop_cannot_outrun_inner_path():
    # outer CPs 1000 m apart, inner CPs 10 m apart: the second share would
    # force the outer UAV to fly 1000 m while the inner one flies 10 m
    pair = _pair([[0.0, 100.0], [1000.0, 100.0]], [[0.0, 0.0], [10.0, 0.0]],
                 [1.0, 1.0], [5.0, 5.0], r_u2u=2000.0)
    assert _link(pair).all()
    assert match_pairs(*pair) == ([0, 1], {0: 0})


def test_match_pairs_shares_each_event_once():
    # both outer CPs can only reach inner 0
    pair = _pair([[0.0, 50.0], [5.0, 50.0]], [[0.0, 0.0], [500.0, 0.0]],
                 [1.0, 1.0], [9.0, 9.0], r_u2u=100.0)
    assert _link(pair).tolist() == [[True, False], [True, False]]
    assert match_pairs(*pair) == ([0, 1], {0: 0})


def _four_cps(hover_in=(1.0,) * 8):
    """CPs 1 and 2 sit at the same spot between CPs 0 and 3 and hover 5 s
    each; every CP links every event. The fixed path is twice the straight
    line, 200 m between events."""
    return _pair([(100.0, 50.0), (340.0, 50.0), (340.0, 50.0), (600.0, 50.0)],
                 [(100.0 * e, 0.0) for e in range(8)], [1.0, 5.0, 5.0, 1.0],
                 hover_in, r_u2u=1000.0, d_safe=30.0,
                 path_m=[200.0 * e for e in range(8)])


def test_match_pairs_matches_every_cp_that_fits():
    order, matched = match_pairs(*_four_cps())
    assert order == [0, 1, 2, 3] and len(matched) == 4


def test_match_pairs_waits_out_the_least_excess():
    # event 4 leaves CP 1 or 2 2 s of excess against 4 s at any other event
    hover_in = (1.0, 1.0, 1.0, 1.0, 3.0, 1.0, 1.0, 1.0)
    order, matched = match_pairs(*_four_cps(hover_in=hover_in))
    assert len(matched) == 4 and 4 in (matched[1], matched[2])


def _attach_orders(n):
    """Every rotation of the attach tour, forward, then backward."""
    for seq in (list(range(n)), list(range(n - 1, -1, -1))):
        for r in range(n):
            yield seq[r:] + seq[:r]


def _brute_force(outer, inner, hover_out, hover_in, path_m, r_u2u, d_safe):
    """Every (order, matching) the planner may choose. An order is a
    rotation of the attach CPs, forward then backward; a matching pairs CPs
    in that order with events in theirs. A matched CP links its event and
    keeps d_safe from it, and the hop between consecutive matched CPs is no
    longer than the fixed path between their events."""
    n, n_ev = len(outer), len(inner)

    def fits(a, e):
        return d_safe <= math.dist(outer[a], inner[e]) <= r_u2u

    def outruns(a1, e1, a2, e2):
        return math.dist(outer[a1], outer[a2]) > path_m[e2] - path_m[e1] + 1e-9

    def grow(order, seq, t0, e0):
        yield seq
        for t, e in itertools.product(range(t0, n), range(e0, n_ev)):
            a = order[t]
            if fits(a, e) and not (seq and outruns(*seq[-1], a, e)):
                yield from grow(order, seq + [(a, e)], t + 1, e + 1)

    for order in _attach_orders(n):
        for seq in grow(order, [], 0, 0):
            yield order, seq


def _score(seq, hover_out, hover_in):
    """Less leftover hover plus waiting of shared steps is better, then more
    matched CPs."""
    matched = {a for a, _ in seq}
    wait = sum(max(0.0, hover_out[a] - hover_in[e]) for a, e in seq)
    leftover = sum(h for a, h in enumerate(hover_out) if a not in matched)
    return -(leftover + wait), len(seq)


def test_match_pairs_equals_the_brute_force_optimum():
    """On small random pairs the matching scores as well as the best of all
    orders and matchings, is one of them, and is found in the first order
    that scores that well. Whole-second hovers keep every score exact, so
    ties are common and must resolve as documented. Rotating or reversing
    the attach tour leaves the score as it is."""
    rng = np.random.default_rng(11)
    for _ in range(500):
        n, n_ev = int(rng.integers(1, 6)), int(rng.integers(0, 7))
        outer = rng.uniform(0.0, 1000.0, (n, 2))
        inner = rng.uniform(0.0, 1000.0, (n_ev, 2))
        hover_out = rng.integers(1, 5, n).astype(float)
        hover_in = rng.integers(1, 5, n_ev).astype(float)
        legs = (np.hypot(*np.diff(inner, axis=0).T)
                * rng.uniform(1.0, 2.0, max(n_ev - 1, 0)))
        path_m = np.concatenate([[0.0], np.cumsum(legs)])[:n_ev]
        r_u2u = float(rng.uniform(200.0, 1600.0))
        d_safe = float(rng.uniform(0.0, 150.0))
        args = (outer.tolist(), inner.tolist(), hover_out.tolist(),
                hover_in.tolist(), path_m.tolist(), r_u2u, d_safe)
        options = list(_brute_force(*args))
        best = None
        for order, seq in options:
            score = _score(seq, args[2], args[3])
            if best is None or score > best[0]:
                best = (score, order)
        order, matched = match_pairs(outer, inner, hover_out, hover_in,
                                     path_m, r_u2u, d_safe)
        seq = [(a, matched[a]) for a in order if a in matched]
        assert (_score(seq, args[2], args[3]), order) == best
        assert (order, seq) in options
        for shift, step in ((int(rng.integers(n)), 1), (0, -1)):
            turned = np.roll(np.arange(n), -shift)[::step]
            _, moved = match_pairs(outer[turned], inner, hover_out[turned],
                                   hover_in, path_m, r_u2u, d_safe)
            assert _score([(turned[a], e) for a, e in moved.items()],
                          args[2], args[3]) == best[0]


def test_match_pairs_contract_on_random_instances():
    """Tour-ordered pairs of up to 9 CPs: the matching follows its order and
    the events monotonically, every pair links and keeps d_safe, and no hop
    outruns the fixed path."""
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
        pair = _pair(outer[tour_out], inner[tour_in], hover_out[tour_out],
                     hover_in[tour_in], r_u2u, d_safe)
        order, matched = match_pairs(*pair)
        path_m = pair[4]
        assert order in _attach_orders(n_out)
        seq = [(a, matched[a]) for a in order if a in matched]
        assert [e for _, e in seq] == sorted({e for _, e in seq})
        prev = None
        for a, e in seq:
            gap = float(np.hypot(*(outer[tour_out[a]] - inner[tour_in[e]])))
            assert d_safe <= gap <= r_u2u
            if prev is not None:
                hop = float(np.hypot(*(outer[tour_out[prev[0]]]
                                       - outer[tour_out[a]])))
                assert hop <= path_m[e] - path_m[prev[1]] + 1e-9
            prev = (a, e)


def test_p3_zero_detour_when_edge_crosses_annulus():
    (x, y), detour = p3_waypoint((-1000.0, 50.0), (1000.0, 50.0),
                                 _allowed((0.0, 0.0), d_safe=30.0,
                                          r_link=500.0))
    assert detour == 0.0
    assert y == pytest.approx(50.0, abs=1e-9)          # on the segment
    assert -1000.0 <= x <= 1000.0
    assert 30.0 <= np.hypot(x, y) <= 500.0 + 1e-9


def test_p3_far_point_sits_on_range_circle():
    (x, y), _ = p3_waypoint((-100.0, 0.0), (100.0, 0.0),
                            _allowed((0.0, 5000.0), d_safe=0.0, r_link=500.0))
    d = float(np.hypot(x, y - 5000.0))
    assert d == pytest.approx(500.0, rel=1e-6)
    # best insertion heads toward the segment, so roughly (0, 4500)
    assert abs(x) < 15.0
    assert y == pytest.approx(4500.0, abs=15.0)


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
            point, detour = p3_waypoint(e1, e2, _allowed(
                p_k, d_safe=30.0, r_link=3000.0, ring=ring))
            q = np.array(point)
            assert detour >= 0.0
            assert 30.0 - 1e-6 <= float(np.hypot(*(q - p_k))) <= 3000.0 + 1e-6
            assert (ring.inner_m - 1e-6 <= float(np.hypot(*q))
                    <= ring.outer_m + 1e-6)
            direct = float(np.hypot(*(e2 - e1)))
            det = float(np.hypot(*(q - e1)) + np.hypot(*(q - e2))) - direct
            assert det == pytest.approx(detour, abs=1e-9)


def _floor_cases(rng):
    """(p_k, e1, e2, r_u2u, d_safe, ring, bs, tight): random segments and
    annuli; segments tangent to the link circle, within a few DIST_TOL_M
    either side; degenerate and short segments; and, `tight`, segments
    whose midpoint is nearest p_k, where the floor is the detour itself."""
    for t in range(900):
        r_u2u = rng.uniform(200.0, 3000.0)
        d_safe = rng.uniform(0.0, 0.3) * r_u2u
        p_k = rng.uniform(-1e4, 1e4, 2)
        ang = rng.uniform(0.0, 2 * np.pi)
        u = np.array([np.cos(ang), np.sin(ang)])
        normal = np.array([-u[1], u[0]])
        kind = t % 4
        tight = False
        if kind == 0:
            e1, e2 = p_k + rng.uniform(-4.0, 4.0, (2, 2)) * r_u2u
        elif kind == 1:
            gap = r_u2u + rng.choice([-1.0, 0.0, 0.5, 1.0, 2.0, 3.0]) * DIST_TOL_M
            foot = p_k + gap * normal
            e1 = foot - rng.uniform(0.0, 3.0) * r_u2u * u
            e2 = foot + rng.uniform(0.0, 3.0) * r_u2u * u
        elif kind == 2:
            e1 = p_k + rng.uniform(-4.0, 4.0, 2) * r_u2u
            e2 = e1 + rng.choice([0.0, 1e-9, 1e-3, 1.0]) * u
        else:
            foot = p_k + (r_u2u + rng.uniform(0.0, 2.0) * r_u2u) * normal
            half = rng.uniform(0.0, 3.0) * r_u2u
            e1, e2 = foot - half * u, foot + half * u
            tight = True
        ring, bs = None, (0.0, 0.0)
        if not tight and rng.uniform() < 0.5:
            bs = tuple(p_k + rng.uniform(-2.0, 2.0, 2) * r_u2u)
            near = float(np.hypot(*(p_k - bs)))
            inner = max(near - rng.uniform(0.0, 1.0) * r_u2u, 0.0)
            ring = Ring(inner, inner + rng.uniform(0.1, 2.0) * r_u2u)
        yield (tuple(p_k), tuple(e1), tuple(e2), r_u2u, d_safe, ring, bs,
               tight)


def test_detour_floor_never_exceeds_the_detour():
    solved = positive = 0
    for p_k, e1, e2, r_u2u, d_safe, ring, bs, tight in _floor_cases(
            np.random.default_rng(43)):
        res = p3_waypoint(e1, e2, _allowed(p_k, d_safe, r_u2u, ring, bs))
        if res is None:
            continue
        _, detour = res
        floor = _detour_floor(p_k, e1, e2, r_u2u)
        assert 0.0 <= floor <= detour, (p_k, e1, e2, r_u2u, d_safe, ring, bs)
        if tight:
            # the optimum sits on the ellipse's co-vertex: only the margins
            # separate the floor from the detour
            assert detour - floor < 1e-4
        solved += 1
        positive += floor > 0.0
    assert solved > 700 and positive > 300


def test_p3_infeasible_when_ring_out_of_reach():
    ring = Ring(inner_m=10000.0, outer_m=10100.0)
    assert p3_waypoint((9999.0, 0.0), (10050.0, 100.0),
                       _allowed((0.0, 0.0), d_safe=30.0, r_link=500.0,
                                ring=ring)) is None


def test_insertion_raises_when_no_edge_meets_the_allowed_set():
    # the attach CP sits 500 m beyond the fixed ring's outer edge, and its
    # chain annulus reaches only 10 m: no edge of the fixed path has a waypoint
    fleet = pointmatch._Fleet((Ring(0.0, 1000.0), Ring(1000.0, 2000.0)),
                              (0.0, 0.0), 10.0, 5.0)
    cps = np.array([[500.0, 0.0], [0.0, 500.0], [-500.0, 0.0],
                    [1500.0, 0.0]])
    pos = np.full((3, 2, 2), np.nan)
    pos[:, 0] = cps[:3]
    duty = np.full((3, 2), -1)
    duty[:, 0] = [0, 1, 2]
    allowed = fleet.allowed(0, 1, cps[3].tolist())
    for i in range(3):
        assert p3_waypoint(cps[i], cps[(i + 1) % 3], allowed) is None
    with pytest.raises(InfeasibleWaypointError,
                       match="no feasible detour for CP 3 on the fixed path"):
        pointmatch._insert_unmatched(pos, duty, 0, 1, [3], set(), cps, fleet,
                                     {"generated_waypoints": 0,
                                      "detour_m": 0.0})


def test_nearest_chain_point_keeps_feasible_prev():
    q = nearest_chain_point((100.0, 50.0), _allowed((0.0, 0.0), d_safe=30.0,
                                                    r_link=200.0))
    assert tuple(q) == (100.0, 50.0)


def test_nearest_chain_point_clips_to_link_radius():
    q = nearest_chain_point((1000.0, 0.0), _allowed((0.0, 0.0), d_safe=30.0,
                                                    r_link=200.0))
    assert float(np.hypot(*q)) == pytest.approx(200.0, abs=1e-9)
    assert q[1] == pytest.approx(0.0, abs=1e-9)


def test_nearest_chain_point_respects_ring_band():
    ring = Ring(inner_m=500.0, outer_m=900.0)
    anchor = (700.0, 0.0)
    q = nearest_chain_point((1200.0, 0.0), _allowed(anchor, d_safe=30.0,
                                                    r_link=600.0, ring=ring))
    assert 500.0 - 1e-6 <= float(np.hypot(*q)) <= 900.0 + 1e-6
    assert 30.0 - 1e-6 <= float(np.hypot(*(q - np.array(anchor)))) <= 600.0 + 1e-6


def test_nearest_chain_point_finds_tangent_point():
    # the chain disk around the anchor touches the ring disk at one point
    u = np.array([np.cos(0.3), np.sin(0.3)])
    q = nearest_chain_point((5000.0, 5000.0),
                            _allowed(12000.0 * u, d_safe=30.0, r_link=4000.0,
                                     ring=Ring(0.0, 8000.0)))
    assert np.allclose(q, 8000.0 * u, rtol=0.0, atol=1e-6)


def test_tangent_point_is_stable_under_rounding_of_the_anchor():
    """A `wide` seed-0 solve: the 3991.57 m chain disk about the anchor
    touches the ring's 4057.32 m outer circle about the BS. Moving the
    anchor by up to 4 ulps per coordinate, in or out, moves the waypoint
    by rounding only, not by the ~1e-4 m of a lens's two crossings."""
    r_link, outer = 3991.57, 4057.32
    x, y = 4744.98, 6501.53
    scale = (r_link + outer) / math.hypot(x, y)
    x, y = x * scale, y * scale
    ring, prev = Ring(2000.0, outer), (-3000.0, 2500.0)
    ref = nearest_chain_point(prev, _allowed((x, y), 30.0, r_link, ring))
    for toward in (0.0, math.inf):
        mx, my = x, y
        for _ in range(4):
            mx, my = math.nextafter(mx, toward), math.nextafter(my, toward)
            q = nearest_chain_point(prev,
                                    _allowed((mx, my), 30.0, r_link, ring))
            assert math.dist(q, ref) <= 1e-9


def test_advance_point_moves_toward_target_within_budget():
    prev = np.array([0.0, 100.0])
    target = np.array([1000.0, 100.0])
    q = advance_point(prev, target=target, budget_m=200.0,
                      allowed=_allowed((500.0, 0.0), d_safe=30.0,
                                       r_link=600.0))
    leg = float(np.hypot(*(q - prev)))
    assert leg <= 200.0 + 1e-6
    assert float(np.hypot(*(q - target))) < float(np.hypot(*(prev - target)))
    d_anchor = float(np.hypot(*(q - np.array([500.0, 0.0]))))
    assert 30.0 - 1e-6 <= d_anchor <= 600.0 + 1e-6


def test_advance_point_restores_chain_when_budget_too_small():
    # prev is 1000 m outside the link radius; budget 1 m cannot fix that,
    # so the smallest chain-restoring move wins
    prev = np.array([1600.0, 0.0])
    q = advance_point(prev, target=(0.0, 500.0), budget_m=1.0,
                      allowed=_allowed((0.0, 0.0), d_safe=30.0,
                                       r_link=600.0))
    d_anchor = float(np.hypot(*q))
    assert 30.0 - 1e-6 <= d_anchor <= 600.0 + 1e-6


def test_disjoint_chain_annulus_and_band_is_a_typed_error():
    # the chain annulus about (5000, 0) spans BS distances 4400-5600 m,
    # wholly outside the 0-1000 m band: no allowed point exists, and
    # advance_point's fallback to nearest_chain_point finds none either
    allowed = _allowed((5000.0, 0.0), d_safe=30.0, r_link=600.0,
                       ring=Ring(0.0, 1000.0))
    message = "chain annulus does not meet the ring"
    with pytest.raises(InfeasibleWaypointError, match=message):
        nearest_chain_point((800.0, 0.0), allowed)
    with pytest.raises(InfeasibleWaypointError, match=message):
        advance_point((800.0, 0.0), target=(900.0, 0.0), budget_m=50.0,
                      allowed=allowed)


def test_fleet_allowed_keeps_radial_order_with_the_anchor():
    """The chain annulus about the anchor comes first, then a band about the
    BS: an outward ring holds d_safe beyond the anchor's BS distance, up to
    its own outer edge or that floor, an inward ring d_safe inside it,
    capped by its own outer edge and never below 0."""
    bs = (100.0, -50.0)
    fleet = pointmatch._Fleet((Ring(0.0, 1000.0), Ring(1000.0, 1500.0),
                               Ring(1500.0, 2000.0)), bs, 400.0, 30.0)

    def at(dx, dy):         # integer legs of a 3-4-5 triangle from the BS
        return (bs[0] + dx, bs[1] + dy)

    for g, anchor_ring, anchor, lo, hi in [
            (2, 1, at(720.0, 960.0), 1230.0, 2000.0),        # 1200 m out
            (2, 1, at(1194.0, 1592.0), 2020.0, 2020.0),      # 1990 m out
            (0, 1, at(480.0, 640.0), 0.0, 770.0),            # 800 m out
            (0, 1, at(720.0, 960.0), 0.0, 1000.0),
            (1, 2, at(1194.0, 1592.0), 0.0, 1500.0),
            (0, 1, at(12.0, 16.0), 0.0, 0.0)]:               # 20 m out
        assert fleet.allowed(g, anchor_ring, anchor) == [
            (anchor, 30.0, 400.0), (bs, lo, hi)]


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


@pytest.mark.parametrize("field, appends", [((150, 4000.0, 3), False),
                                            ((200, 5000.0, 11), True)],
                         ids=["n150-s3", "n200-s11"])
def test_plan_two_rings_pacing_invariant(field, appends):
    scenario, radii, cluster_set, topology = build_instance(*field)
    assert topology.m_uavs == 2
    plan = pointmatch.plan(scenario, cluster_set, topology, radii)
    report = evaluate(plan, scenario, topology, radii, cluster_set)
    assert report.all_passed
    # the pacing ring flies exactly its tour plus the recorded detours
    pacing = plan.meta["pacing_ring"]
    w = plan.waypoints
    legs = np.hypot(*np.moveaxis(w - np.roll(w, 1, axis=0), 2, 0))
    flown = float(legs[:, pacing].sum())
    tour = solve_tsp(cluster_set.cps[topology.association == pacing])
    assert flown == pytest.approx(tour.length_m + plan.meta["detour_m"],
                                  rel=1e-9)
    if appends:
        # the last attach CP follows the last anchor, which sits at the final
        # step: its step goes on the closing edge, after the final step
        attach = 1 - pacing
        assert len(w) == 4 and plan.duties[-1, pacing] == -1
        cp = cluster_set.cps[plan.duties[-1, attach]].tolist()
        path = w[:-1, pacing].tolist()
        fleet = pointmatch._Fleet(topology.rings,
                                  tuple(scenario.bs_xy.tolist()),
                                  radii.r_u2u_m, scenario.d_safe_m)
        point, _ = p3_waypoint(path[-1], path[0],
                               fleet.allowed(pacing, attach, cp))
        assert tuple(w[-1, pacing].tolist()) == point


def test_plan_three_rings_valid():
    scenario, radii, cluster_set, topology = build_instance(300, 8000.0, 1)
    assert topology.m_uavs == 3
    plan = pointmatch.plan(scenario, cluster_set, topology, radii)
    report = evaluate(plan, scenario, topology, radii, cluster_set)
    assert report.all_passed, [c for c in report.checks if not c.passed]
    assert not report.bound_violated


def test_plan_escorts_through_an_empty_middle_ring(default_params,
                                                   default_radii,
                                                   monkeypatch):
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
    meta = plan.meta
    assert {k: meta[k] for k in (
        "pairs_matched", "pairs_relaxed", "generated_waypoints",
        "escorts")} == {
        "pairs_matched": 0, "pairs_relaxed": 0, "generated_waypoints": 1,
        "escorts": 3}
    # every idle waypoint is an escort or the fixed ring's side of an
    # inserted step
    assert ((plan.duties == -1).sum()
            == meta["escorts"] + meta["generated_waypoints"])
    # and the fill pass placed each escort
    placed = _count_fill_placements(monkeypatch)
    pointmatch.plan(scenario, cluster_set, topology, radii)
    assert placed[0] == meta["escorts"]


def _count_fill_placements(monkeypatch) -> list[int]:
    """A one-item counter of the waypoints pmtp's fill pass places: each is
    one `advance_point` call, or one direct `nearest_chain_point` call for
    an empty ring's seed. `advance_point`'s own fallback call is not one."""
    placed, inside = [0], [False]
    advance, nearest = pointmatch.advance_point, pointmatch.nearest_chain_point

    def counted_advance(*args):
        placed[0] += 1
        inside[0] = True
        try:
            return advance(*args)
        finally:
            inside[0] = False

    def counted_nearest(*args):
        placed[0] += not inside[0]
        return nearest(*args)

    monkeypatch.setattr(pointmatch, "advance_point", counted_advance)
    monkeypatch.setattr(pointmatch, "nearest_chain_point", counted_nearest)
    return placed


def test_escorts_count_the_waypoints_the_fill_pass_places(monkeypatch):
    placed = _count_fill_placements(monkeypatch)
    for n, size, seed, radio in _bench_cells():
        params = apply_config_overrides(ChannelParams(), radio)
        scenario, radii, cluster_set, topology = build_instance(
            n, size, seed, params)
        placed[0] = 0
        plan = pointmatch.plan(scenario, cluster_set, topology, radii)
        assert plan.meta["escorts"] == placed[0], (n, size, seed, radio)


@pytest.mark.parametrize("sensors, size, radio, expected", [
    # `wide` seed 0: six rings, paced by ring 3
    (400, 16000.0, {}, [
        ((3, 2), [(2, 3)]),
        ((3, 4), [(2, 3), (4, 3)]),
        ((2, 1), [(1, 2), (3, 2), (4, 3)]),
        ((4, 5), [(3, 4), (5, 4), (2, 3), (1, 2)]),
        ((1, 0), [(0, 1), (2, 1), (3, 2), (4, 3), (5, 4)])]),
    # `tight-link` seed 0: four rings, paced by ring 2
    (400, 8000.0, {"snr_th_u2u_db": 23.0}, [
        ((2, 1), [(1, 2)]),
        ((2, 3), [(1, 2), (3, 2)]),
        ((1, 0), [(0, 1), (2, 1), (3, 2)])]),
], ids=["wide", "tight-link"])
def test_rings_attach_and_fill_outward_from_the_pacing_ring(
        monkeypatch, sensors, size, radio, expected):
    """Each (fixed ring, attach ring) pair, inward first at each distance
    from the pacing ring, then every placed ring but the fixed one as
    (ring, anchor ring), outward from the fixed ring."""
    attach, fill = pointmatch._attach_ring, pointmatch._fill_ring
    calls = []

    def attach_spy(*args):
        calls.append((args[2:4], []))
        return attach(*args)

    def fill_spy(*args):
        calls[-1][1].append(args[1:3])
        return fill(*args)

    monkeypatch.setattr(pointmatch, "_attach_ring", attach_spy)
    monkeypatch.setattr(pointmatch, "_fill_ring", fill_spy)
    scenario, radii, cluster_set, topology = build_instance(
        sensors, size, 0, apply_config_overrides(ChannelParams(), radio))
    plan = pointmatch.plan(scenario, cluster_set, topology, radii)
    assert plan.meta["pacing_ring"] == expected[0][0][0]
    assert calls == expected


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
            q_chain = nearest_chain_point(
                prev, _allowed(anchor, d_safe, r_link, ring))
        except InfeasibleWaypointError:
            assert len(grid) == 0
            continue
        solved += 1
        assert feasible(q_chain)
        if len(grid):
            assert float(_dist(q_chain, prev)) <= _dist(grid, prev).min() + tol

        point, detour = p3_waypoint(e1, e2,
                                    _allowed(anchor, d_safe, r_link, ring))
        q = np.array(point)
        assert feasible(q)
        if len(grid):
            detours = _dist(grid, e1) + _dist(grid, e2) - float(_dist(e2, e1))
            assert detour <= detours.min() + tol

        q = advance_point(prev, target, budget,
                          _allowed(anchor, d_safe, r_link, ring))
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


def _list_form(arc_minima):
    """An array-form arc solver, (foci (F, 2), centres (C, 2), radii (C,)) ->
    (P, 2), called the way `_minimise` calls `_arc_minima`: with lists of
    foci and of (center, r) circles, returning a list of points."""
    def solve(foci, circles):
        cen, rad = zip(*circles)
        return arc_minima(np.array(foci, dtype=float).reshape(-1, 2),
                          np.array(cen, dtype=float),
                          np.array(rad, dtype=float)).tolist()
    return solve


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
        q = _minimise(foci, annuli)
        with monkeypatch.context() as patched:
            patched.setattr(pointmatch, "_arc_minima",
                            _list_form(_sampled_arc_minima))
            q_sampled = _minimise(foci, annuli)
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
    args = (e1, e2, _allowed(p_k, 30.0, 500.0, ring))
    with np.errstate(all="raise"):
        res = p3_waypoint(*args)
    monkeypatch.setattr(pointmatch, "_arc_minima",
                        _list_form(_sampled_arc_minima))
    oracle = p3_waypoint(*args)
    if oracle is None:
        assert res is None
        return
    q = np.array(res[0])
    annuli = [(np.array(p_k), 30.0, 500.0), (np.zeros(2), ring.inner_m,
                                              ring.outer_m)]
    assert _feasible(q, annuli, 1e-6)
    assert res[1] == pytest.approx(oracle[1], abs=1e-6)


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
    return np.vstack(pts)


def reference_minimise(foci, seeds, annuli) -> np.ndarray | None:
    foci = np.asarray(foci, dtype=float).reshape(-1, 2)
    circles = [(np.asarray(c, dtype=float), r) for c, lo, hi in annuli
               for r in ((lo, hi) if lo > 0.0 else (hi,))]
    cen, rad = (np.array(x, dtype=float) for x in zip(*circles))
    pts = [np.asarray(seeds, dtype=float).reshape(-1, 2),
           reference_arc_minima(foci, cen, rad)]
    edge = foci[-1] - foci[0]
    if (bb := float(edge @ edge)) > 0.0:
        # where the segment between two foci crosses each circle
        rel = foci[0] - cen
        disc, t0, t1 = reference_chord(rel @ edge, bb, (rel ** 2).sum(1), rad)
        t = np.concatenate([t0, t1])
        t = t[np.tile(disc >= 0.0, 2) & (t >= 0.0) & (t <= 1.0)]
        pts.append(foci[0] + t[:, None] * edge)
    pts = np.vstack(pts + [reference_crossings(*a, *b)
                           for a, b in itertools.combinations(circles, 2)])
    ok = np.ones(len(pts), dtype=bool)
    for c, lo, hi in annuli:
        d = np.hypot(*(pts - c).T)
        ok &= (d >= lo - DIST_TOL_M) & (d <= hi + DIST_TOL_M)
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
        chain = _allowed(anchor, 30.0, r_link, ring, np.zeros(2))
        yield [prev], [prev], chain
        yield [target], [target], chain + [(prev, 0.0, budget)]
        yield [e1, e2], [], chain
    for _, foci, annuli in _two_focus_instances(300):
        yield foci, [], annuli
    yield from _DEGENERATE_SOLVES.values()


def _segment_meets(foci, annuli) -> bool:
    """Two foci whose segment crosses the feasible set: every feasible point
    of that crossing costs |AB|, the least any point can."""
    return (len(foci) == 2
            and pointmatch._edge_through_point(foci[0], foci[1], annuli)
            is not None)


@pytest.mark.filterwarnings("error")
def test_float_solver_matches_the_array_reference():
    solved = ties = 0
    for foci, seeds, annuli in _solver_instances():
        with np.errstate(all="raise"):
            q = _minimise(foci, annuli)
        ref = reference_minimise(foci, seeds, annuli)
        if ref is None:
            assert q is None
            continue
        solved += 1
        assert q is not None
        if _segment_meets(foci, annuli):
            # the reference may miss a segment inside the set; q may not
            ties += 1
            foci = np.asarray(foci, dtype=float)
            assert _feasible(np.asarray(q), annuli, DIST_TOL_M)
            cost = float(_cost(q, foci))
            assert cost == pytest.approx(float(np.hypot(*(foci[1] - foci[0]))),
                                         rel=0.0, abs=1e-9)
            assert cost <= float(_cost(ref, foci)) + 1e-9
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
        got = np.reshape(_arc_minima(foci, circles), (-1, 2))
        ref = np.reshape(_list_form(reference_arc_minima)(foci, circles),
                         (-1, 2))
        assert _same_points(got, ref, 1e-9)


# The insertion before its edges were pruned: every window edge is solved
# with `p3_waypoint`, kept as the reference the pruned loop must reproduce.
def reference_insert_unmatched(pos, duty, ref, adj, ids, shared, cps, fleet,
                               meta):
    prev = next((c for c in reversed(ids) if c in shared), None)
    for t, cp_id in enumerate(ids):
        if cp_id in shared:
            prev = cp_id
            continue
        nxt = next((c for c in ids[t + 1:] + ids[:t] if c in shared), None)
        cp = cps[cp_id].tolist()
        col = duty[:, adj]
        lo, p_in = ((int(np.flatnonzero(col == prev)[0]), cps[prev].tolist())
                    if prev is not None else (0, cp))
        hi, p_out = ((int(np.flatnonzero(col == nxt)[0]), cps[nxt].tolist())
                     if nxt is not None else (lo, cp))
        span = (hi - lo - 1) % len(pos) + 1
        path = np.roll(pos[:, ref], -lo, axis=0)
        legs = np.hypot(*np.diff(path, axis=0, append=path[:1]).T)
        pts = path.tolist() + path[:1].tolist()
        jump_in, jump_out = math.dist(p_in, cp), math.dist(cp, p_out)
        allowed = fleet.allowed(ref, adj, cp)
        best = None
        for i in range(span):
            res = pointmatch.p3_waypoint(pts[i], pts[i + 1], allowed)
            if res is None:
                continue
            cost = (res[1]
                    + max(0.0, jump_in - float(legs[:i].sum()))
                    + max(0.0, jump_out - float(legs[i:span].sum())))
            if best is None or cost < best[0] - 1e-9:
                best = (cost, i, *res)
        if best is None:
            raise InfeasibleWaypointError(
                f"no feasible detour for CP {cp_id} on the fixed path")
        _, i, q, detour = best
        at = (lo + i) % len(pos) + 1
        pos = np.insert(pos, at, np.nan, axis=0)
        duty = np.insert(duty, at, -1, axis=0)
        pos[at, ref], pos[at, adj], duty[at, adj] = q, cp, cp_id
        prev = cp_id
        meta["detour_m"] += detour
    return pos, duty


def _bench_cells():
    """(sensors, size, seed, radio) of every bench cell."""
    bench = Path(__file__).resolve().parents[1] / "bench" / "workloads.json"
    for w in json.loads(bench.read_text())["workloads"].values():
        for seed in w["seeds"]:
            yield w["sensors"], w["size_m"], seed, w["radio"]


def _bench_and_stress_cells():
    """Every bench cell, then the 24 stress cells of the acceptance battery."""
    yield from _bench_cells()
    for (_, size, radio), seed in itertools.product(_STRESS_REGIMES, range(6)):
        yield 400, size, seed, radio


def test_pruned_insertion_matches_the_unpruned_reference(monkeypatch):
    pruned = pointmatch._insert_unmatched
    solver = pointmatch.p3_waypoint
    calls = []

    def counted(*args):
        calls.append(args)
        return solver(*args)

    monkeypatch.setattr(pointmatch, "p3_waypoint", counted)
    solves = {pruned: 0, reference_insert_unmatched: 0}
    inserted = 0
    for n, size, seed, radio in _bench_and_stress_cells():
        params = apply_config_overrides(ChannelParams(), radio)
        scenario, radii, cluster_set, topology = build_instance(
            n, size, seed, params)
        outcomes = []
        for insert in solves:
            monkeypatch.setattr(pointmatch, "_insert_unmatched", insert)
            calls.clear()
            try:
                plan = pointmatch.plan(scenario, cluster_set, topology, radii)
                outcomes.append((plan.waypoints.shape, plan.waypoints.tobytes(),
                                 plan.duties.tolist(), plan.meta))
            except InfeasibleWaypointError as err:
                outcomes.append(str(err))
            solves[insert] += len(calls)
        assert outcomes[0] == outcomes[1], (n, size, seed, radio)
        if not isinstance(outcomes[0], str):
            inserted += outcomes[0][3]["generated_waypoints"]
    assert inserted > 100
    assert solves[pruned] < solves[reference_insert_unmatched]
