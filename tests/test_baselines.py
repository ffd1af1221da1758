"""Relay-tour and circular-scan baseline planners."""
from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from conftest import build_instance

from skyhaul.baselines import (InfeasiblePlanError, plan_cstp, plan_ttp,
                               scan_order)
from skyhaul.channel import coverage_radii
from skyhaul.clustering import cluster_sensors
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
