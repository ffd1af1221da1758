"""Mission timing, lower bound, and the validity check battery."""
from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest
from conftest import build_instance, legs_connected, write_outputs

from skyhaul import pointmatch
from skyhaul.baselines import plan_cstp, plan_ttp
from skyhaul.clustering import ClusterSet
from skyhaul.mission import (DIST_TOL_M, MissionPlan, _check_collision,
                             _check_connectivity, _longest_legs,
                             completion_time, evaluate, lower_bound,
                             step_times, validate)
from skyhaul.partition import build_topology
from skyhaul.tsp import solve_tsp


def hand_plan(waypoints, duties):
    return MissionPlan(np.array(waypoints, dtype=float), np.array(duties))


def simple_plan():
    """One UAV on a 30-40-50 triangle, collecting CPs 0, 1 and 2."""
    return hand_plan([[(0.0, 0.0)], [(30.0, 0.0)], [(30.0, 40.0)]],
                     ((0,), (1,), (2,)))


def test_completion_time_triangle_by_hand():
    # at v_max 10 the legs into steps 0, 1 and 2 take 5, 3 and 4 s
    timing = completion_time(simple_plan(), np.array([1.0, 2.0, 3.0]), 10.0)
    assert timing.flight_s == pytest.approx(12.0, abs=1e-12)
    assert timing.hover_s == pytest.approx(6.0, abs=1e-12)
    assert timing.completion_s == pytest.approx(18.0, abs=1e-12)


def test_completion_time_adds_the_hovers_left_to_right():
    # ten 0.1 s hovers added one at a time; a compensated sum, as Python's
    # sum() of floats is from 3.12 on, gives 1.0
    plan = hand_plan([[(0.0, 0.0)]] * 10, [(cp,) for cp in range(10)])
    timing = completion_time(plan, np.full(10, 0.1), 10.0)
    assert timing.hover_s == 0.9999999999999999
    assert timing.completion_s == 0.9999999999999999


def test_completion_time_slowest_uav_sets_leg_pace():
    # UAV 0 flies 30 m legs, UAV 1 flies 40 m legs; each leg costs 4 s at v=10
    plan = hand_plan([[(0.0, 0.0), (100.0, 0.0)], [(30.0, 0.0), (100.0, 40.0)]],
                     ((0, -1), (1, -1)))
    timing = completion_time(plan, np.zeros(2), 10.0)
    assert timing.flight_s == pytest.approx(8.0, abs=1e-12)


def _cluster_set(cps, hovers):
    """One sensor per CP."""
    return ClusterSet(np.arange(len(cps)), np.array(cps, dtype=float),
                      np.array(hovers, dtype=float))


@pytest.mark.parametrize("steps", [
    slice(0, 3), slice(2, 7), [0], [5, 0, 3, 1], [4, 4, 0, 4, 2],
    np.arange(7)[::-1]], ids=["band-0", "band", "closing", "unsorted",
                              "repeated", "reversed"])
def test_longest_legs_of_some_steps_are_those_of_the_whole_plan(steps):
    """The leg rule read over some steps gives, bit for bit, those steps of
    the rule read over every step, on random plans of 1 to 5 UAVs."""
    rng = np.random.default_rng(11)
    for m in range(1, 6):
        w = rng.uniform(-5000.0, 5000.0, (7, m, 2))
        part, whole = _longest_legs(w, steps), _longest_legs(w)[steps]
        assert part.tobytes() == whole.tobytes(), (m, part, whole)
    # a NaN waypoint makes both legs that touch it, and so their steps, NaN
    w[3, 2, 1] = np.nan
    part, whole = _longest_legs(w, steps), _longest_legs(w)[steps]
    assert part.tobytes() == whole.tobytes(), (part, whole)
    assert (np.isnan(_longest_legs(w)) == np.isin(np.arange(7), [3, 4])).all()
    # one step: its closing leg goes nowhere
    w = rng.uniform(-5000.0, 5000.0, (1, 3, 2))
    assert _longest_legs(w, [0, 0]).tolist() == [0.0, 0.0]
    assert _longest_legs(w).tolist() == [0.0]


def test_lower_bound_single_ring_formula(default_radii):
    cps = [(500.0, 0.0), (0.0, 700.0), (-300.0, -300.0)]
    hovers = [10.0, 20.0, 30.0]
    cluster_set = _cluster_set(cps, hovers)
    topology = build_topology(cluster_set.cps, (0.0, 0.0), default_radii)
    assert topology.m_uavs == 1
    tour = solve_tsp(cluster_set.cps)
    expect = tour.length_m / 30.0 + 60.0
    assert lower_bound(cluster_set, topology, 30.0) == pytest.approx(expect, rel=1e-12)


def test_lower_bound_takes_worst_ring(default_radii):
    # ring 0 holds two quick CPs, ring 1 one far CP with a huge hover
    cps = [(1000.0, 0.0), (0.0, 1000.0), (5000.0, 0.0)]
    hovers = [1.0, 1.0, 500.0]
    cluster_set = _cluster_set(cps, hovers)
    topology = build_topology(cluster_set.cps, (0.0, 0.0), default_radii)
    assert topology.m_uavs == 2
    inner = solve_tsp(cluster_set.cps[[0, 1]]).length_m / 30.0 + 2.0
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
    assert [c.name for c in checks] == ["connectivity", "collision", "coverage"]
    assert all(c.passed for c in checks), [c for c in checks if not c.passed]


def _tamper(plan, idx, **changes):
    """A copy of plan with entry idx (a step, or a step and UAV) of its
    waypoints or duties replaced."""
    fields = {}
    for name, value in changes.items():
        column = getattr(plan, name).copy()
        column[idx] = value
        fields[name] = column
    return dataclasses.replace(plan, **fields)


def _failed(plan, run, name):
    scenario, radii, cluster_set, topology, _ = run
    checks = _checks_by_name(validate(plan, scenario, topology, radii, cluster_set))
    return checks[name]


def test_validate_flags_duplicate_collection(relay_run):
    plan = relay_run[-1]
    bad = _tamper(plan, 1, duties=plan.duties[0])
    check = _failed(bad, relay_run, "coverage")
    assert not check.passed
    assert "steps 0 and 1" in check.detail


def test_validate_flags_missing_collection(relay_run):
    plan = relay_run[-1]
    bad = _tamper(plan, 0, duties=-1)
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
                     ((0, -1), (1, -1)))
    check = _failed(plan, relay_run, "collision")
    assert not check.passed
    assert "close to 10.0 m" in check.detail


def test_collision_check_names_each_colliding_pair_once(relay_run):
    # UAVs 0 and 1 hold still; UAV 2 stops 25 m from UAV 0 at step 1 (and
    # leaves it on the leg into step 2), UAV 3 sweeps past UAV 1 12 m away
    # mid-leg into step 2. Pairs come in (i, j) order, each at its first step.
    plan = hand_plan([
        [(0.0, 0.0), (0.0, 1000.0), (1000.0, 0.0), (1000.0, 1000.0)],
        [(0.0, 0.0), (0.0, 1000.0), (25.0, 0.0), (500.0, 1012.0)],
        [(0.0, 0.0), (0.0, 1000.0), (1000.0, 0.0), (-500.0, 1012.0)],
        [(0.0, 0.0), (0.0, 1000.0), (1000.0, 0.0), (-500.0, 2000.0)],
    ], [(0, -1, -1, -1), (1, -1, -1, -1), (2, -1, -1, -1), (3, -1, -1, -1)])
    check = _check_collision(plan.waypoints, 30.0)
    assert check == ("collision", False,
                     "UAVs 0/2 close to 25.0 m on the leg into step 1; "
                     "UAVs 1/3 close to 12.0 m on the leg into step 2")


@pytest.fixture(scope="module")
def paper_run():
    """The pmtp plan on the benchmark's `paper` seed-0 cell, known valid."""
    scenario, radii, cluster_set, topology = build_instance(1000, 8000.0, 0)
    plan = pointmatch.plan(scenario, cluster_set, topology, radii)
    return scenario, radii, cluster_set, topology, plan


def _first_collect(plan):
    step, uav = np.argwhere(plan.duties != -1)[0]
    return step, uav, plan.duties[step, uav]


def _freeze(plan, run):
    # the whole fleet holds step 0's positions, so flight takes no time
    return dataclasses.replace(plan, waypoints=np.repeat(
        plan.waypoints[:1], len(plan.waypoints), axis=0))


def _off_cp(plan, run):
    """The first collector, in step order, that can fly 200 m toward the BS
    off its CP and still pass every check but coverage."""
    scenario, radii, cluster_set, topology, _ = run
    for step, uav in np.argwhere(plan.duties != -1):
        w = plan.waypoints.copy()
        inward = scenario.bs_position_m - w[step, uav]
        w[step, uav] += 200.0 * inward / np.hypot(*inward)
        bad = dataclasses.replace(plan, waypoints=w)
        checks = validate(bad, scenario, topology, radii, cluster_set)
        if all(c.passed for c in checks if c.name != "coverage"):
            return bad
    pytest.fail("every 200 m move off a CP breaks a check other than coverage")


def _swap_steps(plan, run):
    return _tamper(plan, [0, 1], duties=plan.duties[[1, 0]])


def _duplicate_collect(plan, run):
    # a UAV escorting at another step also claims the first collect's CP
    step, _, cp = _first_collect(plan)
    other, uav = next((i, j) for i, j in np.argwhere(plan.duties == -1)
                      if i != step)
    return _tamper(plan, (other, uav), duties=cp)


def _relabel_first_collect(duty_of_k):
    """The first collect's duty replaced by duty_of_k(k)."""
    def mutate(plan, run):
        step, uav, _ = _first_collect(plan)
        return _tamper(plan, (step, uav), duties=duty_of_k(run[2].k))
    return mutate


def _too_close(plan, run):
    w = plan.waypoints.copy()
    w[1, 1] = w[1, 0] + (0.5 * run[0].d_safe_m, 0.0)
    return dataclasses.replace(plan, waypoints=w)


MUTATIONS = {
    "freeze-fleet": (_freeze, "coverage"),
    "collect-off-cp": (_off_cp, "coverage"),
    "swap-step-duties": (_swap_steps, "coverage"),
    "drop-collect": (_relabel_first_collect(lambda k: -1), "coverage"),
    "duplicate-collect": (_duplicate_collect, "coverage"),
    "duty-minus-two": (_relabel_first_collect(lambda k: -2), "coverage"),
    "duty-k": (_relabel_first_collect(lambda k: k), "coverage"),
    "duty-1e9": (_relabel_first_collect(lambda k: 10**9), "coverage"),
    "within-d-safe": (_too_close, "collision"),
}


@pytest.mark.parametrize("mutation", MUTATIONS)
@pytest.mark.parametrize("run_name", ["relay_run", "paper_run"])
def test_mutation_fails_a_named_check(request, run_name, mutation):
    # every perturbation of a valid plan that breaks the model must fail
    run = request.getfixturevalue(run_name)
    scenario, radii, cluster_set, topology, plan = run
    assert all(c.passed for c in validate(plan, scenario, topology, radii,
                                          cluster_set))
    mutate, name = MUTATIONS[mutation]
    bad = mutate(plan, run)
    check = _failed(bad, run, name)
    assert not check.passed, check
    # evaluate derives the schedule of the broken plan without raising
    report = evaluate(bad, scenario, topology, radii, cluster_set)
    assert not _checks_by_name(report.checks)[name].passed
    if mutation.startswith("duty-"):
        assert [c.name for c in report.checks if not c.passed] == ["coverage"]
        # an unknown CP demands no hover, as if its UAV escorted
        escort = _relabel_first_collect(lambda k: -1)(plan, run)
        assert report.hover_s == evaluate(escort, scenario, topology, radii,
                                          cluster_set).hover_s


def _stretch_escort(plan, run):
    """plan with the first escort at step 1 that keeps it valid flying on
    past its waypoint until its leg is 10 m longer than the step's slowest."""
    scenario, radii, cluster_set, topology, _ = run
    w = plan.waypoints
    leg = w[1] - w[0]
    length = np.hypot(*leg.T)
    for uav in np.flatnonzero((plan.duties[1] == -1) & (length > 0.0)):
        stretch = length.max() - length[uav] + 10.0
        moved = _tamper(plan, (1, uav), waypoints=w[1, uav]
                        + stretch * leg[uav] / length[uav])
        if all(c.passed for c in validate(moved, scenario, topology, radii,
                                          cluster_set)):
            return moved
    pytest.fail("every stretched escort leg into step 1 breaks a check")


@pytest.mark.parametrize("run_name", ["relay_run", "paper_run"])
def test_stretched_escort_leg_is_flown_at_v_max(request, run_name):
    # a plan holds no schedule: a longer leg is a longer step, never a
    # leg that outruns its step
    run = request.getfixturevalue(run_name)
    scenario, radii, cluster_set, topology, plan = run
    moved = _stretch_escort(plan, run)
    report = evaluate(moved, scenario, topology, radii, cluster_set)
    assert report.all_passed
    before = evaluate(plan, scenario, topology, radii, cluster_set)

    def slowest(w, step):
        return np.hypot(*(w[step] - w[step - 1]).T).max()

    rise = sum(slowest(moved.waypoints, i) - slowest(plan.waypoints, i)
               for i in (1, 2)) / scenario.v_max_mps
    assert rise > 0.0
    assert report.flight_s - before.flight_s == pytest.approx(rise, abs=1e-9)


def test_coverage_names_the_collector_off_its_cp(relay_run):
    scenario, radii, cluster_set, topology, plan = relay_run
    step, uav, cp = _first_collect(plan)
    w = plan.waypoints.copy()
    w[step, uav] += (0.0, 200.0)
    check = _failed(dataclasses.replace(plan, waypoints=w), relay_run,
                    "coverage")
    assert check.detail == (f"UAV {uav} collects CP {cp} at step {step} "
                            "200.0 m off the CP")


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("name, failing", [
    ("waypoints", {"connectivity", "collision"}),
], ids=["waypoints"])
def test_validate_flags_non_finite_values(relay_run, name, failing, value):
    # NaN compares false with every bound, so a check that tests for being
    # beyond a bound would pass it
    scenario, radii, cluster_set, topology, plan = relay_run
    column = getattr(plan, name).copy()
    column.reshape(len(column), -1)[2, 0] = value    # UAV 0's x
    bad = dataclasses.replace(plan, **{name: column})
    checks = validate(bad, scenario, topology, radii, cluster_set)
    assert failing <= {c.name for c in checks if not c.passed}


def test_validate_rejects_wrong_uav_count(relay_run):
    scenario, radii, cluster_set, topology, _ = relay_run
    plan = simple_plan()
    with pytest.raises(ValueError, match="expected"):
        validate(plan, scenario, topology, radii, cluster_set)


def test_validate_rejects_a_plan_with_no_steps(relay_run):
    scenario, radii, cluster_set, topology, _ = relay_run
    m = topology.m_uavs
    plan = hand_plan(np.zeros((0, m, 2)), np.zeros((0, m), dtype=int))
    with pytest.raises(ValueError, match="plan has no steps"):
        validate(plan, scenario, topology, radii, cluster_set)


def test_segment_connectivity_endpoint_rule():
    worst = float(np.hypot(50.0, 10.0))
    legs = ((0.0, 0.0), (100.0, 0.0), (50.0, 10.0), (50.0, -10.0))
    assert legs_connected(*legs, worst + 1e-9)
    assert not legs_connected(*legs, worst - 1e-9)


def _connectivity_reference(w, bs, radii):
    """_check_connectivity written out with one pass per adjacent pair."""
    problems = []
    d_bs = np.hypot(*np.moveaxis(w[:, 0, :] - bs, 1, 0))
    bad = np.flatnonzero(~(d_bs <= radii.r_u2b_m + DIST_TOL_M))
    if bad.size:
        problems.append(f"UAV 0 beyond BS range at step {bad[0]} "
                        f"({d_bs[bad[0]]:.1f} m)")
    prev = np.roll(w, 1, axis=0)
    for i in range(1, w.shape[1]):
        s = np.hypot(*np.moveaxis(prev[:, i, :] - prev[:, i - 1, :], 1, 0))
        e = np.hypot(*np.moveaxis(w[:, i, :] - w[:, i - 1, :], 1, 0))
        bad = np.flatnonzero(~(np.maximum(s, e) <= radii.r_u2u_m + DIST_TOL_M))
        if bad.size:
            problems.append(f"UAVs {i - 1}/{i} out of range on the leg into "
                            f"step {bad[0]} ({max(s[bad[0]], e[bad[0]]):.1f} m)")
    detail = "; ".join(problems) or \
        "chain intact at every waypoint and along every leg"
    return "connectivity", not problems, detail


def test_connectivity_names_each_broken_pair_once(default_radii):
    # UAV 1 strays from UAV 0 at step 2 and UAV 3 from UAV 2 at step 1;
    # pairs come in chain order, each at the first leg it breaks on
    r = default_radii.r_u2u_m
    w = np.zeros((4, 4, 2))
    w[:, :, 0] = [0.0, 1000.0, 2000.0, 3000.0]
    w[2, 1, 0] = 1000.0 + r
    w[1, 3, 0] = 2100.0 + r
    check = _check_connectivity(w, np.zeros(2), default_radii)
    assert check == _connectivity_reference(w, np.zeros(2), default_radii)
    assert check == (
        "connectivity", False,
        f"UAVs 0/1 out of range on the leg into step 2 ({1000.0 + r:.1f} m); "
        f"UAVs 2/3 out of range on the leg into step 1 ({100.0 + r:.1f} m)")


def test_connectivity_matches_the_per_pair_reference(default_radii):
    rng = np.random.default_rng(5)
    bs = np.array([100.0, -50.0])
    failed = 0
    with np.errstate(invalid="ignore"):
        for _ in range(200):
            s, m = rng.integers(1, 8), rng.integers(1, 6)
            w = bs + rng.uniform(0.0, 1.2, (s, m, 1)) * rng.choice(
                [default_radii.r_u2u_m, default_radii.r_u2b_m], (s, m, 1)) \
                * rng.normal(size=(s, m, 2))
            if rng.random() < 0.3:
                # a NaN or infinite coordinate at the start or end of a leg
                w[rng.integers(s), rng.integers(m), rng.integers(2)] = \
                    rng.choice([np.nan, np.inf, -np.inf])
            check = _check_connectivity(w, bs, default_radii)
            assert check == _connectivity_reference(w, bs, default_radii)
            failed += check.detail.count("; ") >= 1
    assert failed > 10           # many plans break two links or more


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
    write_outputs(tmp_path, *relay_run)
    lines = (tmp_path / "m.plan.csv").read_text().splitlines()
    assert lines[0] == "step,uav,x_m,y_m,duty,hover_s,flight_s"
    assert len(lines) == 1 + plan.duties.size
    first = lines[1].split(",")
    assert int(first[0]) == 0 and int(first[1]) == 0
    assert float(first[2]) == plan.waypoints[0, 0, 0]
    duties = {row.split(",")[4] for row in lines[1:]}
    assert any(d.startswith("collect:") for d in duties)
    assert "escort" in duties


@pytest.mark.parametrize("run_name", ["relay_run", "paper_run"])
def test_plan_csv_times_are_the_derived_schedule(request, run_name, tmp_path):
    run = request.getfixturevalue(run_name)
    scenario, _, cluster_set, _, plan = run
    report = write_outputs(tmp_path, *run)
    rows = [line.split(",")
            for line in (tmp_path / "m.plan.csv").read_text().splitlines()[1:]]
    hover, flight = step_times(plan, cluster_set.hover_s, scenario.v_max_mps)
    m = plan.waypoints.shape[1]      # each step's times repeat on its M rows
    assert [float(r[5]) for r in rows] == np.repeat(hover, m).tolist()
    assert [float(r[6]) for r in rows] == np.repeat(flight, m).tolist()
    # the report adds the steps left to right, one at a time
    hover_s = 0.0
    for r in rows[::m]:
        hover_s += float(r[5])
    assert hover_s == report.hover_s


def test_report_json_contents(relay_run, tmp_path):
    _, radii, cluster_set, topology, plan = relay_run
    report = write_outputs(tmp_path, *relay_run)
    data = json.loads((tmp_path / "m.report.json").read_text())
    assert data == {
        "completion_s": report.completion_s,
        "flight_s": report.flight_s,
        "hover_s": report.hover_s,
        "lower_bound_s": report.lower_bound_s,
        "gap_ratio": report.gap_ratio,
        "bound_violated": report.bound_violated,
        "all_passed": report.all_passed,
        "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail}
                   for c in report.checks],
        "m_uavs": topology.m_uavs,
        "rings_m": [[r.inner_m, r.outer_m] for r in topology.rings],
        "association": topology.association.tolist(),
        "radii_m": {"r_g2u": radii.r_g2u_m, "r_u2u": radii.r_u2u_m,
                    "r_u2b": radii.r_u2b_m},
        "k_clusters": cluster_set.k,
        "planner": plan.meta,
    }
    assert data["all_passed"] is True
    assert data["m_uavs"] == 2
    assert data["k_clusters"] == cluster_set.k
    assert len(data["checks"]) == 3
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
