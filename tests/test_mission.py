"""Mission timing, lower bound, and the validity check battery."""
from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest
from conftest import build_instance, legs_connected

from skyhaul import pointmatch
from skyhaul.baselines import plan_cstp, plan_ttp
from skyhaul.clustering import ClusterSet
from skyhaul.mission import (MissionPlan, completion_time, evaluate,
                             lower_bound, report_to_dict, validate,
                             write_plan_csv, write_report_json)
from skyhaul.partition import build_topology
from skyhaul.tsp import solve_tsp


def hand_plan(waypoints, duties, hover_s, flight_s, v_max_mps=10.0):
    return MissionPlan(np.array(waypoints, dtype=float), duties,
                       np.array(hover_s, dtype=float),
                       np.array(flight_s, dtype=float), v_max_mps)


def simple_plan():
    """One UAV on a 30-40-50 triangle at v_max 10 with known hovers."""
    return hand_plan([[(0.0, 0.0)], [(30.0, 0.0)], [(30.0, 40.0)]],
                     ((0,), (1,), (2,)), [1.0, 2.0, 3.0], [5.0, 3.0, 4.0])


def test_completion_time_triangle_by_hand():
    timing = completion_time(simple_plan())
    assert timing.flight_s == pytest.approx(12.0, abs=1e-12)
    assert timing.hover_s == pytest.approx(6.0, abs=1e-12)
    assert timing.completion_s == pytest.approx(18.0, abs=1e-12)


def test_completion_time_slowest_uav_sets_leg_pace():
    # UAV 0 flies 30 m legs, UAV 1 flies 40 m legs; each leg costs 4 s at v=10
    plan = hand_plan([[(0.0, 0.0), (100.0, 0.0)], [(30.0, 0.0), (100.0, 40.0)]],
                     ((0, None), (1, None)), [0.0, 0.0], [4.0, 4.0])
    timing = completion_time(plan)
    assert timing.flight_s == pytest.approx(8.0, abs=1e-12)


def _cluster_set(cps, hovers):
    """One sensor per CP."""
    return ClusterSet(np.arange(len(cps)), np.array(cps, dtype=float),
                      np.array(hovers, dtype=float))


def test_lower_bound_single_ring_formula(default_radii):
    cps = [(500.0, 0.0), (0.0, 700.0), (-300.0, -300.0)]
    hovers = [10.0, 20.0, 30.0]
    cluster_set = _cluster_set(cps, hovers)
    topology = build_topology(cluster_set.cp_array(), (0.0, 0.0), default_radii)
    assert topology.m_uavs == 1
    tour = solve_tsp(cluster_set.cp_array())
    expect = tour.length_m / 30.0 + 60.0
    assert lower_bound(cluster_set, topology, 30.0) == pytest.approx(expect, rel=1e-12)


def test_lower_bound_takes_worst_ring(default_radii):
    # ring 0 holds two quick CPs, ring 1 one far CP with a huge hover
    cps = [(1000.0, 0.0), (0.0, 1000.0), (5000.0, 0.0)]
    hovers = [1.0, 1.0, 500.0]
    cluster_set = _cluster_set(cps, hovers)
    topology = build_topology(cluster_set.cp_array(), (0.0, 0.0), default_radii)
    assert topology.m_uavs == 2
    inner = solve_tsp(cluster_set.cp_array()[[0, 1]]).length_m / 30.0 + 2.0
    outer = 500.0
    assert lower_bound(cluster_set, topology, 30.0) == pytest.approx(
        max(inner, outer), rel=1e-12)


@pytest.fixture(scope="module")
def relay_run():
    """A two-UAV relay plan on a mid-size scenario, known valid."""
    scenario, radii, cluster_set, topology = build_instance(150, 4000.0, 3)
    assert topology.m_uavs == 2
    plan = plan_ttp(scenario, cluster_set, topology, radii)
    return scenario, radii, cluster_set, topology, plan


def _checks_by_name(checks):
    return {c.name: c for c in checks}


def test_validate_passes_on_planner_output(relay_run):
    scenario, radii, cluster_set, topology, plan = relay_run
    checks = validate(plan, scenario, topology, radii, cluster_set)
    assert len(checks) == 6
    assert {c.name for c in checks} == {
        "connectivity", "collision", "speed", "coverage",
        "hover-sufficiency", "return-to-start"}
    assert all(c.passed for c in checks), [c for c in checks if not c.passed]


def _tamper(plan, idx, **changes):
    """A copy of plan with step idx's waypoints, duties, hover_s or flight_s
    replaced."""
    fields = {}
    for name, value in changes.items():
        column = list(plan.duties) if name == "duties" else getattr(plan, name).copy()
        column[idx] = value
        fields[name] = tuple(column) if name == "duties" else column
    return dataclasses.replace(plan, **fields)


def _failed(plan, run, name):
    scenario, radii, cluster_set, topology, _ = run
    checks = _checks_by_name(validate(plan, scenario, topology, radii, cluster_set))
    return checks[name]


def test_validate_flags_underscheduled_leg(relay_run):
    plan = relay_run[-1]
    idx = next(i for i, f in enumerate(plan.flight_s) if f > 0.1)
    bad = _tamper(plan, idx, flight_s=plan.flight_s[idx] * 0.5)
    check = _failed(bad, relay_run, "speed")
    assert not check.passed
    assert "at v_max" in check.detail


def test_validate_flags_insufficient_hover(relay_run):
    plan = relay_run[-1]
    idx = next(i for i, (duties, hover) in enumerate(zip(plan.duties, plan.hover_s))
               if any(d is not None for d in duties) and hover > 0.0)
    bad = _tamper(plan, idx, hover_s=plan.hover_s[idx] * 0.5)
    check = _failed(bad, relay_run, "hover-sufficiency")
    assert not check.passed


def test_validate_flags_duplicate_collection(relay_run):
    plan = relay_run[-1]
    bad = _tamper(plan, 1, duties=plan.duties[0])
    check = _failed(bad, relay_run, "coverage")
    assert not check.passed
    assert "steps 0 and 1" in check.detail


def test_validate_flags_missing_collection(relay_run):
    plan = relay_run[-1]
    bad = _tamper(plan, 0, duties=(None,) * plan.m_uavs)
    check = _failed(bad, relay_run, "coverage")
    assert not check.passed
    assert "never collected" in check.detail


def test_validate_flags_broken_relay_chain(relay_run):
    plan = relay_run[-1]
    far = plan.waypoints[1].copy()
    far[1] = (1e6, 1e6)
    bad = _tamper(plan, 1, waypoints=far)
    check = _failed(bad, relay_run, "connectivity")
    assert not check.passed


def test_validate_flags_collision(relay_run):
    plan = relay_run[-1]
    same = plan.waypoints[1]
    bad = _tamper(plan, 1, waypoints=(same[1], same[1]))
    check = _failed(bad, relay_run, "collision")
    assert not check.passed


def test_collision_check_finds_near_miss_between_samples(relay_run):
    # A sweeps 10 km past B, passing 10 m away at mid-leg; the closest
    # waypoint-to-waypoint gap and any 100 evenly spaced samples stay ~50 m
    assert relay_run[0].d_safe_m == 30.0
    plan = hand_plan([[(5000.0, 10.0), (0.0, 0.0)], [(-5000.0, 10.0), (0.0, 0.0)]],
                     ((0, None), (1, None)), [0.0, 0.0], [1000.0, 1000.0])
    check = _failed(plan, relay_run, "collision")
    assert not check.passed
    assert "close to 10.0 m" in check.detail


def test_validate_flags_broken_closure(relay_run):
    plan = relay_run[-1]
    bad = _tamper(plan, 0, flight_s=plan.flight_s[0] + 5.0)
    check = _failed(bad, relay_run, "return-to-start")
    assert not check.passed
    assert "closing leg" in check.detail
    # a generous schedule still satisfies the speed floor
    assert _failed(bad, relay_run, "speed").passed


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("name, failing", [
    ("waypoints", {"connectivity", "collision"}),
    ("flight_s", {"speed", "return-to-start"}),
    ("hover_s", {"hover-sufficiency"}),
], ids=["waypoints", "flight_s", "hover_s"])
def test_validate_flags_non_finite_values(relay_run, name, failing, value):
    # NaN compares false with every bound, so a check that tests for being
    # beyond a bound would pass it
    scenario, radii, cluster_set, topology, plan = relay_run
    column = getattr(plan, name).copy()
    column.reshape(len(column), -1)[2, 0] = value    # UAV 0's x, or the time
    bad = dataclasses.replace(plan, **{name: column})
    checks = validate(bad, scenario, topology, radii, cluster_set)
    assert failing <= {c.name for c in checks if not c.passed}


def test_validate_rejects_wrong_uav_count(relay_run):
    scenario, radii, cluster_set, topology, _ = relay_run
    plan = simple_plan()
    with pytest.raises(ValueError, match="expected"):
        validate(plan, scenario, topology, radii, cluster_set)


def test_validate_rejects_ragged_step_count(relay_run):
    scenario, radii, cluster_set, topology, plan = relay_run
    short = dataclasses.replace(plan, hover_s=plan.hover_s[:-1])
    with pytest.raises(ValueError, match="step count"):
        validate(short, scenario, topology, radii, cluster_set)


def test_segment_connectivity_endpoint_rule():
    worst = float(np.hypot(50.0, 10.0))
    legs = ((0.0, 0.0), (100.0, 0.0), (50.0, 10.0), (50.0, -10.0))
    assert legs_connected(*legs, worst + 1e-9)
    assert not legs_connected(*legs, worst - 1e-9)


def test_evaluate_report_consistency(relay_run):
    scenario, radii, cluster_set, topology, plan = relay_run
    report = evaluate(plan, scenario, topology, radii, cluster_set)
    assert report.completion_s == pytest.approx(
        report.flight_s + report.hover_s, abs=1e-9)
    assert report.gap_ratio == pytest.approx(
        (report.completion_s - report.lower_bound_s) / report.lower_bound_s,
        rel=1e-12)
    assert not report.bound_violated
    assert report.all_passed
    assert report.completion_s >= report.lower_bound_s - 1e-6


def test_plan_csv_round_trip(relay_run, tmp_path):
    plan = relay_run[-1]
    path = tmp_path / "plan.csv"
    write_plan_csv(plan, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "step,uav,x_m,y_m,duty,hover_s,flight_s"
    assert len(lines) == 1 + len(plan.hover_s) * plan.m_uavs
    first = lines[1].split(",")
    assert int(first[0]) == 0 and int(first[1]) == 0
    assert float(first[2]) == plan.waypoints[0, 0, 0]
    duties = {row.split(",")[4] for row in lines[1:]}
    assert any(d.startswith("collect:") for d in duties)
    assert "escort" in duties


def test_report_json_contents(relay_run, tmp_path):
    scenario, radii, cluster_set, topology, plan = relay_run
    report = evaluate(plan, scenario, topology, radii, cluster_set)
    path = tmp_path / "report.json"
    write_report_json(report, path, topology=topology, radii=radii,
                      cluster_set=cluster_set)
    data = json.loads(path.read_text())
    assert data == report_to_dict(report, topology=topology, radii=radii,
                                  cluster_set=cluster_set)
    assert data["all_passed"] is True
    assert data["m_uavs"] == 2
    assert data["k_clusters"] == cluster_set.k
    assert len(data["checks"]) == 6
    assert data["radii_m"]["r_u2u"] == radii.r_u2u_m
    assert len(data["rings_m"]) == 2
    assert len(data["association"]) == cluster_set.k


def test_planners_leave_the_shared_instance_untouched():
    # a bench or sweep cell runs every planner on one prepared instance
    scenario, radii, cluster_set, topology = build_instance(300, 8000.0, 1)
    arrays = (cluster_set.labels, cluster_set.cps, cluster_set.hover_s,
              topology.association)
    before = [a.copy() for a in arrays]
    for planner in (pointmatch.plan, plan_ttp, plan_cstp):
        plan = planner(scenario, cluster_set, topology, radii)
        evaluate(plan, scenario, topology, radii, cluster_set)
    for a, b in zip(arrays, before):
        assert np.array_equal(a, b)
