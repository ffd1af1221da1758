"""End-to-end acceptance battery.

Each test drives one headline claim about the toolkit on its benchmark
workload (8 km x 8 km, 1000 sensors, 10 Mbit per sensor, seeds 0..9) or on a
randomized oracle suite, and registers a PASS/FAIL line that pytest reprints
after the run.
"""
from __future__ import annotations

import dataclasses
import itertools
import time

import numpy as np
import pytest
from conftest import (build_instance, legs_connected, record_acceptance,
                      tour_length)

from skyhaul import pointmatch
from skyhaul.baselines import InfeasiblePlanError, plan_cstp, plan_ttp
from skyhaul.channel import (coverage_radii, min_hover_time,
                             optimal_bandwidth_shares, upload_rate_g2u)
from skyhaul.cli import EXIT_INFEASIBLE, _sweep_cell, main, prepare
from skyhaul.clustering import check_cluster_set, cluster_sensors
from skyhaul.mission import evaluate, lower_bound, validate
from skyhaul.model import (ChannelParams, apply_config_overrides,
                           generate_scenario, save_scenario)
from skyhaul.partition import Ring
from skyhaul.pointmatch import InfeasibleWaypointError, p3_waypoint
from skyhaul.tsp import Tour, solve_tsp

_PLANNERS = (("pmtp", pointmatch.plan), ("ttp", plan_ttp), ("cstp", plan_cstp))
_BENCH_SEEDS = range(10)


@pytest.fixture(scope="module")
def benchmark_runs():
    """Ten benchmark scenarios through all three planners, wall-clock timed."""
    t0 = time.perf_counter()
    runs = []
    for seed in _BENCH_SEEDS:
        scenario, radii, cluster_set, topology = build_instance(1000, 8000.0, seed)
        reports = {}
        for name, fn in _PLANNERS:
            plan = fn(scenario, cluster_set, topology, radii)
            report = evaluate(plan, scenario, topology, radii, cluster_set)
            assert report.all_passed, (
                seed, name, [c for c in report.checks if not c.passed])
            reports[name] = report
            if name == "pmtp":
                pmtp_meta = plan.meta
        runs.append({"k": cluster_set.k, "m": topology.m_uavs,
                     "reports": reports, "pmtp_meta": pmtp_meta,
                     "instance": (scenario, cluster_set, topology)})
    return runs, time.perf_counter() - t0


def test_benchmark_completion_reduction(benchmark_runs):
    runs, elapsed = benchmark_runs
    means = {name: float(np.mean([r["reports"][name].completion_s for r in runs]))
             for name, _ in _PLANNERS}
    red_ttp = 1.0 - means["pmtp"] / means["ttp"]
    red_cstp = 1.0 - means["pmtp"] / means["cstp"]
    ok = (means["pmtp"] < means["ttp"] and means["pmtp"] < means["cstp"]
          and red_ttp >= 0.25 and red_cstp >= 0.25 and elapsed < 30.0)
    record_acceptance(
        "benchmark completion reduction",
        ok,
        f"pmtp {means['pmtp']:.0f} s vs ttp {means['ttp']:.0f} s "
        f"(-{red_ttp:.1%}) and cstp {means['cstp']:.0f} s (-{red_cstp:.1%}); "
        f"10 scenarios x 3 planners in {elapsed:.1f} s")
    assert ok


def test_benchmark_ring_tours_come_from_the_topology(benchmark_runs):
    runs, _ = benchmark_runs
    for r in runs:
        scenario, cluster_set, topology = r["instance"]
        for ring in range(topology.m_uavs):
            ids = np.flatnonzero(topology.association == ring).tolist()
            tour = solve_tsp(cluster_set.cps[ids])
            assert topology.tours[ring] == Tour(
                tuple(ids[j] for j in tour.order), tour.length_m)
        bound = lower_bound(cluster_set, topology, scenario.v_max_mps)
        assert max(r["pmtp_meta"]["ring_serial_s"]) == bound
        assert all(rep.lower_bound_s == bound for rep in r["reports"].values())


def test_benchmark_gap_to_lower_bound(benchmark_runs):
    runs, _ = benchmark_runs
    gaps = [r["reports"]["pmtp"].gap_ratio for r in runs]
    mean_gap = float(np.mean(gaps))
    ok = mean_gap <= 0.05
    record_acceptance(
        "lower-bound gap",
        ok,
        f"mean pmtp gap {mean_gap:.1%} over {len(gaps)} scenarios "
        f"(worst {max(gaps):.1%}), budget 5%")
    assert ok


@pytest.fixture(scope="module")
def trend_grid():
    """Completion means over the sensor-count and G2U-threshold axes."""
    cells: dict[tuple[str, float, str], list[float]] = {}
    all_ok = True
    for axis, values in (("sensors", (600.0, 800.0, 1000.0, 1200.0)),
                         ("snr-g2u-db", (14.0, 17.0, 20.0, 23.0))):
        for value, seed in itertools.product(values, _BENCH_SEEDS):
            rows, failed = _sweep_cell((axis, value, seed, 1000, 8000.0, None))
            all_ok = all_ok and not failed
            for _, _, algo, completion, *_ in rows:
                cells.setdefault((axis, value, algo), []).append(completion)
    means = {key: float(np.mean(v)) for key, v in cells.items()}
    return means, all_ok


def test_trend_monotonicity(trend_grid):
    means, cells_ok = trend_grid
    problems = []
    for algo in ("pmtp", "ttp", "cstp"):
        by_n = [means[("sensors", v, algo)] for v in (600.0, 800.0, 1000.0, 1200.0)]
        if not all(a <= b + 1e-9 for a, b in zip(by_n, by_n[1:])):
            problems.append(f"{algo} not monotone in sensor count: {by_n}")
        by_th = [means[("snr-g2u-db", v, algo)] for v in (17.0, 20.0, 23.0)]
        if not all(a <= b + 1e-9 for a, b in zip(by_th, by_th[1:])):
            problems.append(f"{algo} not monotone in threshold: {by_th}")
        # below 17 dB the coverage radius stops binding, the curve flattens
        lo, hi = means[("snr-g2u-db", 14.0, algo)], means[("snr-g2u-db", 17.0, algo)]
        if abs(lo - hi) > 1e-9 * hi:
            problems.append(f"{algo} still moving below 17 dB: {lo} vs {hi}")
    if not cells_ok:
        problems.append("some sweep cells failed validity checks")
    ok = not problems
    pm = [means[("sensors", v, "pmtp")] for v in (600.0, 800.0, 1000.0, 1200.0)]
    record_acceptance(
        "monotone completion trends",
        ok,
        "; ".join(problems) if problems else
        f"all 3 planners non-decreasing in N ({pm[0]:.0f}->{pm[3]:.0f} s for "
        f"pmtp) and in threshold, flat below 17 dB")
    assert ok, problems


def test_benchmark_fleet_and_cluster_counts(benchmark_runs):
    runs, _ = benchmark_runs
    ms = sorted({r["m"] for r in runs})
    ks = [r["k"] for r in runs]
    ok = ms == [3] and all(17 <= k <= 25 for k in ks)
    record_acceptance(
        "fleet size and cluster count",
        ok,
        f"m_uavs {ms}, k range {min(ks)}..{max(ks)} over 10 scenarios")
    assert ok


def _disk(rng, n, radius):
    r = radius * np.sqrt(rng.uniform(0.0, 1.0, n))
    ang = rng.uniform(0.0, 2.0 * np.pi, n)
    return np.stack([r * np.cos(ang), r * np.sin(ang)], axis=1)


def test_segment_connectivity_oracle(default_radii):
    rng = np.random.default_rng(171)
    n = 10_000
    r = default_radii.r_u2u_m
    a0 = rng.uniform(0.0, 8000.0, (n, 2))
    b0 = a0 + _disk(rng, n, 1.5 * r)
    a1 = a0 + _disk(rng, n, 2000.0)
    b1 = b0 + _disk(rng, n, 2000.0)
    endpoint_ok = np.maximum(np.hypot(*(a0 - b0).T),
                             np.hypot(*(a1 - b1).T)) <= r
    got = np.array([legs_connected(a0[i], a1[i], b0[i], b1[i], r)
                    for i in range(n)])
    agree = bool((got == endpoint_ok).all())
    # oracle: when both endpoints connect, 1000 interior samples never exceed
    # the link range (the gap is convex along synchronized straight legs)
    ts = np.linspace(0.0, 1.0, 1000)
    idx = np.flatnonzero(endpoint_ok)
    violations = 0
    for chunk in np.array_split(idx, max(1, idx.size // 500)):
        d0 = (a0 - b0)[chunk]
        d1 = (a1 - b1)[chunk]
        span = (d0[:, None, :] * (1.0 - ts)[None, :, None]
                + d1[:, None, :] * ts[None, :, None])
        worst = np.hypot(span[..., 0], span[..., 1]).max(axis=1)
        violations += int((worst > r + 1e-9).sum())
    ok = agree and violations == 0
    record_acceptance(
        "segment connectivity endpoint rule",
        ok,
        f"{idx.size}/{n} pairs connected at both ends, "
        f"{violations} interior violations, rule agreement {agree}")
    assert ok


def test_hover_share_optimality(default_params, default_radii):
    rng = np.random.default_rng(22)
    bad_equal = bad_beaten = 0
    for _ in range(1000):
        n = int(rng.integers(1, 61))
        pos = _disk(rng, n, 0.9 * default_radii.r_g2u_m)
        data = rng.uniform(0.2e7, 2.0e7, n)
        hover = min_hover_time(pos, data, (0.0, 0.0), default_params)
        shares = optimal_bandwidth_shares(pos, data, (0.0, 0.0), default_params)
        rates = upload_rate_g2u(np.hypot(*pos.T), default_params)
        finish = data / (shares * rates)
        if np.ptp(finish) > 1e-9 * hover:
            bad_equal += 1
        rand = rng.uniform(0.05, 1.0, (100, n))
        rand /= rand.sum(axis=1, keepdims=True)
        t_rand = (data[None, :] / (rand * rates[None, :])).max(axis=1)
        if (t_rand < hover * (1.0 - 1e-9)).any():
            bad_beaten += 1
    ok = bad_equal == 0 and bad_beaten == 0
    record_acceptance(
        "hover-share optimality",
        ok,
        f"1000 clusters: {bad_equal} unequal finishes, {bad_beaten} beaten "
        f"by any of 100 random share vectors")
    assert ok


def test_clustering_feasibility_suite():
    rng = np.random.default_rng(33)
    failures = 0
    for _ in range(200):
        n = int(rng.integers(30, 261))
        size = float(rng.uniform(1500.0, 5200.0))
        scenario = generate_scenario(size, size, n,
                                     seed=int(rng.integers(0, 2**31)))
        radii = coverage_radii(scenario.params, scenario.bs_height_m)
        cluster_set = cluster_sensors(scenario, radii)
        problems = check_cluster_set(scenario, cluster_set, radii)
        labels, cps = cluster_set.labels, cluster_set.cps
        # one label per sensor, so each sensor sits in exactly one cluster
        direct_ok = (
            labels.shape == (n,)
            and set(labels.tolist()) == set(range(cluster_set.k))
            and np.bincount(labels).max() <= scenario.n_th
            and np.hypot(*(scenario.sensor_positions - cps[labels]).T).max()
            <= radii.r_g2u_m + 1e-6
            and (cluster_set.hover_s > 0).all())
        if problems or not direct_ok:
            failures += 1
    ok = failures == 0
    record_acceptance(
        "clustering feasibility",
        ok,
        f"200 random instances, {failures} with constraint violations")
    assert ok


def _brute_force_length(points):
    n = len(points)
    best = np.inf
    for perm in itertools.permutations(range(1, n)):
        best = min(best, tour_length(points, (0,) + perm))
    return best


def test_tsp_exactness_small():
    rng = np.random.default_rng(44)
    mismatches = 0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        pts = rng.uniform(0.0, 1000.0, (n, 2))
        tour = solve_tsp(pts)
        if abs(tour.length_m - _brute_force_length(pts)) > 1e-9 * max(
                tour.length_m, 1.0):
            mismatches += 1
    ok = mismatches == 0
    record_acceptance(
        "tsp exactness up to 8 points",
        ok,
        f"100 instances vs exhaustive search, {mismatches} mismatches")
    assert ok


def test_insertion_waypoint_optimality():
    rng = np.random.default_rng(55)
    d_safe = 30.0
    beaten = out_of_set = 0
    for _ in range(100):
        inner = float(rng.uniform(500.0, 5000.0))
        ring = Ring(inner_m=inner, outer_m=inner + float(rng.uniform(1500.0, 4000.0)))
        r_u2u = float(rng.uniform(300.0, 2000.0))
        mid = 0.5 * (ring.inner_m + ring.outer_m)
        base_ang = rng.uniform(0.0, 2.0 * np.pi)
        cp_rad = rng.uniform(ring.inner_m + 0.2 * (ring.outer_m - ring.inner_m),
                             ring.outer_m - 0.2 * (ring.outer_m - ring.inner_m))
        p_k = cp_rad * np.array([np.cos(base_ang), np.sin(base_ang)])
        # one tour edge near the CP, inside the ring band
        edge = []
        for _ in range(2):
            ang = base_ang + rng.uniform(-0.4, 0.4)
            rad = np.clip(mid + rng.uniform(-0.5, 0.5) * (ring.outer_m - ring.inner_m),
                          ring.inner_m, ring.outer_m)
            edge.append(rad * np.array([np.cos(ang), np.sin(ang)]))
        e1, e2 = edge
        point, detour = p3_waypoint(e1, e2, [
            (p_k, d_safe, r_u2u), ((0.0, 0.0), ring.inner_m, ring.outer_m)])
        q = np.array(point)
        d_cp = float(np.hypot(*(q - p_k)))
        d_bs = float(np.hypot(*q))
        if not (d_safe - 1e-6 <= d_cp <= r_u2u + 1e-6
                and ring.inner_m - 1e-6 <= d_bs <= ring.outer_m + 1e-6):
            out_of_set += 1
        # 1000 random feasible points must never do better
        direct = float(np.hypot(*(e2 - e1)))
        samples = []
        while len(samples) < 1000:
            r = np.sqrt(rng.uniform(d_safe**2, r_u2u**2, 4000))
            ang = rng.uniform(0.0, 2.0 * np.pi, 4000)
            pts = p_k + np.stack([r * np.cos(ang), r * np.sin(ang)], axis=1)
            rad = np.hypot(*pts.T)
            pts = pts[(rad >= ring.inner_m) & (rad <= ring.outer_m)]
            samples.extend(pts[:1000 - len(samples)])
        pts = np.array(samples)
        detours = (np.hypot(*(pts - e1).T) + np.hypot(*(pts - e2).T)) - direct
        if detour > float(detours.min()) + 1e-9:
            beaten += 1
    ok = beaten == 0 and out_of_set == 0
    record_acceptance(
        "insertion-waypoint optimality",
        ok,
        f"100 instances: {beaten} beaten by random feasible points, "
        f"{out_of_set} constraint violations")
    assert ok


@pytest.fixture(scope="module")
def validity_runs():
    """Fifty random feasible scenarios through all three planners."""
    rng = np.random.default_rng(515)
    outcomes = []
    for i in range(50):
        if i < 40:
            n = int(rng.integers(60, 401))
            size = float(rng.uniform(2000.0, 5200.0))
        else:
            n = int(rng.integers(150, 451))
            size = float(rng.uniform(6500.0, 8000.0))
        seed = int(rng.integers(0, 2**31))
        scenario, radii, cluster_set, topology = build_instance(n, size, seed)
        for name, fn in _PLANNERS:
            plan = fn(scenario, cluster_set, topology, radii)
            checks = validate(plan, scenario, topology, radii, cluster_set)
            report = evaluate(plan, scenario, topology, radii, cluster_set)
            outcomes.append({
                "algo": name,
                "failed": [c.name for c in checks if not c.passed],
                "completion_s": report.completion_s,
                "lower_bound_s": report.lower_bound_s,
            })
    return outcomes


def test_plan_validity_suite(validity_runs):
    failed = [(o["algo"], o["failed"]) for o in validity_runs if o["failed"]]
    ok = not failed
    record_acceptance(
        "plan validity",
        ok,
        f"3 planners x 50 scenarios, {len(failed)} plans with failed checks"
        + (f": {failed[:3]}" if failed else ""))
    assert ok, failed


def test_lower_bound_floor(validity_runs, benchmark_runs):
    runs, _ = benchmark_runs
    pairs = [(o["completion_s"], o["lower_bound_s"]) for o in validity_runs]
    pairs += [(rep.completion_s, rep.lower_bound_s)
              for r in runs for rep in r["reports"].values()]
    below = [(c, b) for c, b in pairs if c < b - 1e-6]
    ok = not below
    record_acceptance(
        "lower-bound floor",
        ok,
        f"{len(pairs)} plans, {len(below)} below the bound"
        + (f": {below[:3]}" if below else ""))
    assert ok


# N = 400 over wide areas and with short U2U links (higher U2U SNR
# thresholds): the regimes where the relay chain's geometry is tightest
_STRESS_REGIMES = (("12 km", 12000.0, {}), ("20 km", 20000.0, {}),
                   ("8 km at 23 dB U2U", 8000.0, {"snr_th_u2u_db": 23.0}),
                   ("8 km at 26 dB U2U", 8000.0, {"snr_th_u2u_db": 26.0}))


def test_pmtp_plans_wherever_cstp_does():
    cells = cstp_valid = 0
    failures = []
    for (label, size, radio), seed in itertools.product(_STRESS_REGIMES,
                                                         range(6)):
        params = apply_config_overrides(ChannelParams(), radio)
        scenario, radii, cluster_set, topology = build_instance(
            400, size, seed, params)
        cells += 1
        try:
            cstp = plan_cstp(scenario, cluster_set, topology, radii)
        except InfeasiblePlanError:
            continue
        if not evaluate(cstp, scenario, topology, radii,
                        cluster_set).all_passed:
            continue
        cstp_valid += 1
        try:
            plan = pointmatch.plan(scenario, cluster_set, topology, radii)
        except InfeasibleWaypointError as err:
            failures.append((label, seed, str(err)))
            continue
        report = evaluate(plan, scenario, topology, radii, cluster_set)
        if not report.all_passed:
            failures.append((label, seed, [c.name for c in report.checks
                                           if not c.passed]))
    ok = not failures
    record_acceptance(
        "pmtp plans wherever cstp does",
        ok,
        f"{cells} stress cells, cstp valid on {cstp_valid}, pmtp failed on "
        f"{len(failures)} of those" + (f": {failures[:3]}" if failures else ""))
    assert ok, failures


_CLUMP_KM = (5, 6, 7)


def _clump_field(d_km: int):
    """A 16 km field with the BS at its centre and two 40-sensor clumps,
    each within 50 m of a point d_km east or west of the BS."""
    rng = np.random.default_rng(d_km)
    d = 1000.0 * d_km
    xy = np.concatenate([(8000.0 + d, 8000.0) + rng.uniform(-50, 50, (40, 2)),
                         (8000.0 - d, 8000.0) + rng.uniform(-50, 50, (40, 2))])
    scenario = dataclasses.replace(
        generate_scenario(16000.0, 16000.0, 80, seed=0),
        bs_position_m=(8000.0, 8000.0), sensor_positions=xy)
    return (scenario, *prepare(scenario))


def _failed_checks(scenario, radii, cluster_set, topology):
    """Each planner's failed check details on one instance."""
    failed = {}
    for name, planner in _PLANNERS:
        plan = planner(scenario, cluster_set, topology, radii)
        report = evaluate(plan, scenario, topology, radii, cluster_set)
        failed[name] = [c.detail for c in report.checks if not c.passed]
    return failed


def test_clump_fields_put_one_cp_per_clump_on_the_outer_ring():
    for d_km in _CLUMP_KM:
        _, _, cluster_set, topology = _clump_field(d_km)
        assert (cluster_set.k, topology.m_uavs) == (2, 2), d_km
        assert topology.association.tolist() == [1, 1], d_km


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 10: the chain swings through the BS "
                          "between the clumps, and the leg into step 0 "
                          "brings the two UAVs closer than d_safe")
@pytest.mark.parametrize("d_km", _CLUMP_KM, ids=[f"{d}km" for d in _CLUMP_KM])
def test_every_plan_passes_on_clump_fields(d_km):
    failed = _failed_checks(*_clump_field(d_km))
    assert not any(failed.values()), failed


# (size_m, sensors, seed) of the uniform fields, among sizes 8 and 16 km,
# 100-400 sensors and seeds 0-9 with the BS at the centre, whose plans fail
# `collision`: pmtp's on the first three (closest 27.3, 2.5 and 24.1 m),
# ttp's on the last three; cstp passes on all 80
_BS_CENTRED_CELLS = ((8000.0, 300, 2), (8000.0, 400, 9), (16000.0, 200, 1),
                     (8000.0, 100, 5), (16000.0, 100, 4), (16000.0, 100, 7))


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 10: with the BS at the field's "
                          "centre, a leg brings two UAVs closer than d_safe")
@pytest.mark.parametrize("size, n, seed", _BS_CENTRED_CELLS,
                         ids=[f"{s / 1000:.0f}km-{n}-s{x}"
                              for s, n, x in _BS_CENTRED_CELLS])
def test_every_plan_passes_on_bs_centred_uniform_fields(size, n, seed):
    scenario = dataclasses.replace(generate_scenario(size, size, n, seed=seed),
                                   bs_position_m=(size / 2, size / 2))
    failed = _failed_checks(scenario, *prepare(scenario))
    assert not any(failed.values()), failed


def _short_link_field():
    """60 sensors over 8 km with r_u2u near 40 m against a d_safe of 30 m:
    155 rings, and no clump near the BS."""
    params = apply_config_overrides(ChannelParams(), {"snr_th_u2u_db": 59.5})
    return build_instance(60, 8000.0, 0, params)


def test_short_link_field_has_a_155_ring_chain():
    scenario, radii, _, topology = _short_link_field()
    assert topology.m_uavs == 155
    assert scenario.d_safe_m < radii.r_u2u_m < 1.5 * scenario.d_safe_m


def test_cstp_raises_where_its_chain_pad_exceeds_the_link_range(tmp_path,
                                                               capsys):
    # the 45 m pad puts adjacent UAVs out of r_u2u on every inward clamp
    scenario, radii, cluster_set, topology = _short_link_field()
    with pytest.raises(InfeasiblePlanError, match="chain pad 45.0 m"):
        plan_cstp(scenario, cluster_set, topology, radii)
    save_scenario(scenario, tmp_path / "field.json")
    assert main(["plan", str(tmp_path / "field.json"),
                 "--algo", "cstp"]) == EXIT_INFEASIBLE
    assert "exceeds the 39.9 m link range" in capsys.readouterr().err


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 10: pmtp's legs bring UAVs 31/32 "
                          "within 26.9 m of each other on the leg into step 1")
def test_pmtp_plan_passes_on_the_short_link_field():
    scenario, radii, cluster_set, topology = _short_link_field()
    plan = pointmatch.plan(scenario, cluster_set, topology, radii)
    report = evaluate(plan, scenario, topology, radii, cluster_set)
    failed = {c.name: c.detail for c in report.checks if not c.passed}
    assert not failed, failed


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 10: on a wide sparse field with the "
                          "BS in its corner, pmtp's legs bring UAVs 11/12 "
                          "within 26.6 m of each other on the leg into step 56")
def test_every_plan_passes_on_a_wide_sparse_field():
    # 200 sensors over 50 km: k = 121 CPs on a 16-ring chain, the BS at the
    # origin; ttp and cstp pass, pmtp fails `collision` only
    failed = _failed_checks(*build_instance(200, 50000.0, 1))
    assert not any(failed.values()), failed
