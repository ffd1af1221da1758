"""Relay-tour and circular-scan baseline planners."""
from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from conftest import build_instance

from skyhaul.baselines import (InfeasiblePlanError, plan_cstp, plan_ttp,
                               scan_order)
from skyhaul.channel import coverage_radii
from skyhaul.clustering import ClusterSet, cluster_sensors
from skyhaul.mission import evaluate, step_times, validate
from skyhaul.model import generate_scenario
from skyhaul.partition import build_topology
from skyhaul.tsp import solve_tsp


@pytest.fixture(scope="module")
def two_ring_instance():
    scenario, radii, cluster_set, topology = build_instance(150, 4000.0, 3)
    assert topology.m_uavs == 2
    return scenario, radii, cluster_set, topology


def test_ttp_collector_walks_the_global_tour(two_ring_instance):
    scenario, radii, cluster_set, topology = two_ring_instance
    plan = plan_ttp(scenario, cluster_set, topology, radii)
    cps, hovers = cluster_set.cps, cluster_set.hover_s
    tour = solve_tsp(cps)
    hover, _ = step_times(plan, hovers, scenario.v_max_mps)
    assert len(plan.duties) == cluster_set.k
    for i, cp in enumerate(tour.order):
        assert plan.duties[i].tolist() == [-1, cp]
        assert tuple(plan.waypoints[i, 1]) == pytest.approx(tuple(cps[cp]), abs=1e-9)
        assert hover[i] == pytest.approx(float(hovers[cp]), abs=1e-12)


def test_ttp_relays_hold_the_chain_midpoints(two_ring_instance):
    scenario, radii, cluster_set, topology = two_ring_instance
    plan = plan_ttp(scenario, cluster_set, topology, radii)
    bs = scenario.bs_xy
    for relay, c in plan.waypoints:
        d = float(np.hypot(*(c - bs)))
        if d / topology.m_uavs >= 1.5 * scenario.d_safe_m:
            # far CPs: the relay sits exactly halfway up the BS line
            assert tuple(relay) == pytest.approx(
                tuple(bs + (c - bs) * 0.5), abs=1e-9)


def test_ttp_pays_the_full_serial_bill(two_ring_instance):
    scenario, radii, cluster_set, topology = two_ring_instance
    plan = plan_ttp(scenario, cluster_set, topology, radii)
    report = evaluate(plan, scenario, topology, radii, cluster_set)
    tour = solve_tsp(cluster_set.cps)
    expect = tour.length_m / scenario.v_max_mps + cluster_set.hover_s.sum()
    assert report.completion_s == pytest.approx(expect, rel=1e-12)
    assert report.all_passed


@pytest.fixture(scope="module")
def concentrated_far_corner():
    """Thirty sensors stacked on one point whose chain hop just misses."""
    base = generate_scenario(6000.0, 6000.0, 30, seed=5)
    scenario = dataclasses.replace(base, sensor_positions=np.full((30, 2), 5650.0))
    radii = coverage_radii(scenario.params, scenario.bs_height_m)
    cluster_set = cluster_sensors(scenario, radii)
    topology = build_topology(cluster_set.cps, scenario.bs_position_m,
                              radii)
    assert cluster_set.k == 1 and topology.m_uavs == 2
    return scenario, radii, cluster_set, topology


def test_ttp_rejects_hops_beyond_link_range(concentrated_far_corner):
    scenario, radii, cluster_set, topology = concentrated_far_corner
    d = float(np.hypot(*(cluster_set.cps[0] - scenario.bs_xy)))
    assert d / topology.m_uavs > radii.r_u2u_m      # the hop really is too long
    with pytest.raises(InfeasiblePlanError, match="link range"):
        plan_ttp(scenario, cluster_set, topology, radii)


def test_ttp_single_uav_only_needs_the_backhaul_link():
    # CP between the U2U and U2B ranges: one UAV reaches it alone, and a
    # lone collector has no inter-UAV hop to respect
    base = generate_scenario(4500.0, 4500.0, 30, seed=5)
    scenario = dataclasses.replace(base, sensor_positions=np.full((30, 2), 2843.0))
    radii = coverage_radii(scenario.params, scenario.bs_height_m)
    cluster_set = cluster_sensors(scenario, radii)
    topology = build_topology(cluster_set.cps, scenario.bs_position_m,
                              radii)
    d = float(np.hypot(2843.0, 2843.0))
    assert radii.r_u2u_m < d <= radii.r_u2b_m
    assert topology.m_uavs == 1
    plan = plan_ttp(scenario, cluster_set, topology, radii)
    checks = validate(plan, scenario, topology, radii, cluster_set)
    assert all(c.passed for c in checks), [c for c in checks if not c.passed]


def test_cstp_handles_what_ttp_cannot(concentrated_far_corner):
    scenario, radii, cluster_set, topology = concentrated_far_corner
    plan = plan_cstp(scenario, cluster_set, topology, radii)
    checks = validate(plan, scenario, topology, radii, cluster_set)
    assert all(c.passed for c in checks), [c for c in checks if not c.passed]


def test_scan_order_sweeps_by_angle():
    cps = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    assert scan_order(cps, np.zeros(2)) == [3, 0, 1, 2]


def test_scan_order_breaks_angle_ties_by_distance():
    cps = np.array([[2.0, 0.0], [1.0, 0.0]])
    assert scan_order(cps, np.zeros(2)) == [1, 0]


def test_cstp_serving_uav_sits_on_the_cp(two_ring_instance):
    scenario, radii, cluster_set, topology = two_ring_instance
    plan = plan_cstp(scenario, cluster_set, topology, radii)
    cps, hovers = cluster_set.cps, cluster_set.hover_s
    assert len(plan.duties) == cluster_set.k
    seen = []
    step_hovers, _ = step_times(plan, hovers, scenario.v_max_mps)
    for w, duties, hover in zip(plan.waypoints, plan.duties, step_hovers):
        served = duties[duties != -1]
        assert len(served) == 1
        cp = served[0]
        seen.append(cp)
        g = topology.association[cp]
        assert duties[g] == cp
        assert tuple(w[g]) == pytest.approx(tuple(cps[cp]), abs=1e-9)
        assert hover == pytest.approx(float(hovers[cp]), abs=1e-12)
        # chain geometry: adjacent UAVs within link range, never colliding
        gaps = np.hypot(*(w[1:] - w[:-1]).T)
        assert (gaps <= radii.r_u2u_m + 1e-6).all()
        assert (gaps >= scenario.d_safe_m - 1e-6).all()
    assert sorted(seen) == list(range(cluster_set.k))


def test_cstp_steps_follow_the_angular_sweep(two_ring_instance):
    scenario, radii, cluster_set, topology = two_ring_instance
    plan = plan_cstp(scenario, cluster_set, topology, radii)
    order = scan_order(cluster_set.cps, scenario.bs_xy)
    served = [int(duties[duties != -1][0]) for duties in plan.duties]
    assert served == order


def test_cstp_three_rings_valid():
    scenario, radii, cluster_set, topology = build_instance(300, 8000.0, 1)
    assert topology.m_uavs == 3
    plan = plan_cstp(scenario, cluster_set, topology, radii)
    report = evaluate(plan, scenario, topology, radii, cluster_set)
    assert report.all_passed, [c for c in report.checks if not c.passed]
    assert not report.bound_violated


def _bearing_reference(c, bs):
    vec = c - bs
    d = float(np.hypot(*vec))
    return d, (vec / d if d > 0 else np.array([1.0, 0.0]))


def _ttp_reference(scenario, cluster_set, topology, radii):
    """plan_ttp written out per CP and per relay; returns its waypoints and
    duties, or the InfeasiblePlanError text."""
    cps, m, bs = cluster_set.cps, topology.m_uavs, scenario.bs_xy
    d_safe = scenario.d_safe_m
    d_bs = np.hypot(*(cps - bs).T)
    link = radii.r_u2b_m if m == 1 else min(radii.r_u2u_m, radii.r_u2b_m)
    if float(d_bs.max()) / m > link:
        return (f"farthest CP at {d_bs.max():.0f} m needs chain hops of "
                f"{d_bs.max() / m:.0f} m, above the {link:.0f} m link range")
    order = solve_tsp(cps).order
    positions = np.empty((len(order), m, 2))
    duties = np.full((len(order), m), -1)
    for i, cp in enumerate(order):
        c = cps[cp]
        d, u = _bearing_reference(c, bs)
        perp = np.array([-u[1], u[0]])
        for j in range(m - 1):
            p = bs + u * (d * (j + 1) / m)
            if d / m < 1.5 * d_safe:
                sign = 1.0 if j % 2 == 0 else -1.0
                p = p + perp * (sign * 1.05 * d_safe * (1 + j // 2))
            positions[i, j] = p
        positions[i, m - 1] = c
        duties[i, m - 1] = cp
    return positions, duties


def _cstp_reference(scenario, cluster_set, topology, radii):
    """plan_cstp written out per CP and per ring, scanning in a sorted()
    order; returns its waypoints and duties, or the InfeasiblePlanError text."""
    cps, m, bs = cluster_set.cps, topology.m_uavs, scenario.bs_xy
    pad, r_u2u = 1.5 * scenario.d_safe_m, radii.r_u2u_m
    mids = [0.5 * (r.inner_m + r.outer_m) for r in topology.rings]
    vec = cps - bs
    ang, dist = np.arctan2(vec[:, 1], vec[:, 0]), np.hypot(*vec.T)
    order = sorted(range(len(cps)), key=lambda i: (ang[i], dist[i], i))
    positions = np.empty((len(order), m, 2))
    duties = np.full((len(order), m), -1)
    for i, cp in enumerate(order):
        c = cps[cp]
        d, u = _bearing_reference(c, bs)
        g = topology.association[cp]
        rad = np.empty(m)
        rad[g] = d
        for j in range(g - 1, -1, -1):
            rad[j] = min(max(mids[j], rad[j + 1] - r_u2u), rad[j + 1] - pad)
        for j in range(g + 1, m):
            rad[j] = min(max(mids[j], rad[j - 1] + pad), rad[j - 1] + r_u2u)
        if rad[0] > radii.r_u2b_m + 1e-9:
            return (f"CP {cp} forces the innermost UAV to {rad[0]:.0f} m, "
                    f"outside BS range {radii.r_u2b_m:.0f} m")
        positions[i] = bs + rad[:, None] * u[None, :]
        positions[i, g] = c
        duties[i, g] = cp
    return positions, duties


def _planned(planner, *instance):
    try:
        plan = planner(*instance)
    except InfeasiblePlanError as err:
        return str(err)
    return plan.waypoints, plan.duties


def _assert_same(got, want):
    """Byte-identical waypoints and duties, or the same error text."""
    assert type(got) is type(want)
    if isinstance(want, str):
        assert got == want
    else:
        assert got[0].tobytes() == want[0].tobytes()
        assert np.array_equal(got[1], want[1])


def _cp_field(rng, scenario, radii):
    """CPs from the BS out to about five rings: one on the BS, a few close
    enough that ttp fans its relays out, some on shared rays (angle ties)
    and some repeated (angle and distance ties)."""
    bs = scenario.bs_xy
    far = rng.uniform(0.0, radii.r_u2b_m + 4.5 * radii.r_u2u_m,
                      int(rng.integers(1, 25)))
    near = rng.uniform(0.0, 3.0 * scenario.d_safe_m * 5, int(rng.integers(0, 6)))
    d = np.concatenate([[0.0], near, far])
    theta = rng.uniform(-np.pi, np.pi, len(d))
    cps = bs + d[:, None] * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    ray = bs + np.array([[120.0, 0.0], [60.0, 0.0]])
    cps = np.vstack([cps, ray, cps[rng.integers(len(cps), size=2)]])
    return cps[rng.permutation(len(cps))]


def _cp_instances():
    """Bench-like instances, then CP fields around a BS off the origin with
    the BS reach as found and cut to a third (cstp's error)."""
    for n, size, seed in ((150, 4000.0, 3), (300, 8000.0, 1),
                          (400, 16000.0, 0), (60, 20000.0, 2)):
        scenario, radii, cluster_set, topology = build_instance(n, size, seed)
        yield scenario, cluster_set, topology, radii
    rng = np.random.default_rng(11)
    base = generate_scenario(1000.0, 1000.0, 1, seed=0)
    radii = coverage_radii(base.params, base.bs_height_m)
    for _ in range(40):
        scenario = dataclasses.replace(
            base, bs_position_m=tuple(rng.uniform(-500.0, 500.0, 2)))
        cps = _cp_field(rng, scenario, radii)
        cluster_set = ClusterSet(np.zeros(0, dtype=int), cps, np.ones(len(cps)))
        topology = build_topology(cps, scenario.bs_position_m, radii)
        for r in (radii, dataclasses.replace(radii, r_u2b_m=radii.r_u2b_m / 3)):
            yield scenario, cluster_set, topology, r


def test_baselines_match_the_per_cp_reference():
    errors, fanned, on_bs = set(), 0, 0
    for instance in _cp_instances():
        scenario, cluster_set, topology, radii = instance
        want = _ttp_reference(*instance)
        _assert_same(_planned(plan_ttp, *instance), want)
        errors.add(("ttp", isinstance(want, str)))
        want = _cstp_reference(*instance)
        _assert_same(_planned(plan_cstp, *instance), want)
        errors.add(("cstp", isinstance(want, str)))
        d = np.hypot(*(cluster_set.cps - scenario.bs_xy).T)
        on_bs += bool((d == 0).any())
        fanned += bool((d / topology.m_uavs < 1.5 * scenario.d_safe_m).any()
                       and topology.m_uavs >= 3)
    # every outcome of both planners, CPs on the BS, and fans of two or
    # more relays all occurred
    assert errors == {(algo, e) for algo in ("ttp", "cstp")
                      for e in (False, True)}
    assert on_bs and fanned


def test_cstp_names_the_first_forcing_cp_in_scan_order():
    scenario, radii, cluster_set, topology = build_instance(300, 8000.0, 1)
    # with the BS reach cut by 15%, the outer CPs farthest from the BS
    # force the innermost UAV out of it, but not the first one scanned
    cut = dataclasses.replace(radii, r_u2b_m=radii.r_u2b_m * 0.85)
    want = _cstp_reference(scenario, cluster_set, topology, cut)
    assert isinstance(want, str)
    named = int(want.split()[1])
    assert named != scan_order(cluster_set.cps, scenario.bs_xy)[0]
    with pytest.raises(InfeasiblePlanError) as err:
        plan_cstp(scenario, cluster_set, topology, cut)
    assert str(err.value) == want
