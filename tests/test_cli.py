"""Command-line interface: exit codes, outputs, determinism."""
from __future__ import annotations

import json
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

from skyhaul import cli
from skyhaul.baselines import InfeasiblePlanError
from skyhaul.channel import (CoverageError, InfeasibleConfigError,
                             coverage_radii)
from skyhaul.cli import (EXIT_INFEASIBLE, EXIT_OK, EXIT_USAGE,
                         EXIT_VALIDATION, main)
from skyhaul.clustering import InfeasibleClusteringError
from skyhaul.mission import EvalReport, evaluate
from skyhaul.model import (ChannelParams, apply_config_overrides,
                           generate_scenario, load_scenario)
from skyhaul.pointmatch import InfeasibleWaypointError


def _write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_generate_is_deterministic(tmp_path, capsys):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    flags = ["generate", "--sensors", "50", "--size", "2000", "--seed", "7"]
    assert main(flags + ["-o", a]) == EXIT_OK
    assert main(flags + ["-o", b]) == EXIT_OK
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    assert "wrote" in capsys.readouterr().out


def test_generate_then_plan_writes_reports(tmp_path, capsys):
    scn = str(tmp_path / "scn.json")
    assert main(["generate", "--sensors", "60", "--size", "2500",
                 "--seed", "1", "-o", scn]) == EXIT_OK
    prefix = str(tmp_path / "run")
    assert main(["plan", scn, "--algo", "pmtp", "-o", prefix]) == EXIT_OK
    out = capsys.readouterr().out
    assert "algo=pmtp" in out and "checks passed" in out
    for suffix in (".plan.csv", ".report.json", ".assignments.csv", ".cps.csv"):
        assert (tmp_path / f"run{suffix}").exists()
    report = json.loads((tmp_path / "run.report.json").read_text())
    assert report["all_passed"] is True
    assert report["completion_s"] >= report["lower_bound_s"] - 1e-6
    assert report["k_clusters"] >= 1 and report["m_uavs"] >= 1


@pytest.mark.parametrize("algo", ["pmtp", "ttp", "cstp"])
def test_plan_report_carries_the_planner_metadata(tmp_path, algo):
    scn = str(tmp_path / "scn.json")
    assert main(["generate", "--sensors", "60", "--size", "2500",
                 "--seed", "1", "-o", scn]) == EXIT_OK
    prefix = str(tmp_path / "run")
    assert main(["plan", scn, "--algo", algo, "-o", prefix]) == EXIT_OK
    report = json.loads((tmp_path / "run.report.json").read_text())
    scenario = load_scenario(scn)
    radii, cluster_set, topology = cli.prepare(scenario)
    plan = cli._PLANNERS[algo](scenario, cluster_set, topology, radii)
    assert report["planner"]["algo"] == algo
    assert report["planner"] == json.loads(json.dumps(plan.meta))


@pytest.mark.parametrize("algo", ["ttp", "cstp"])
def test_plan_baselines_exit_clean(tmp_path, algo):
    scn = str(tmp_path / "scn.json")
    assert main(["generate", "--sensors", "60", "--size", "2500",
                 "--seed", "1", "-o", scn]) == EXIT_OK
    assert main(["plan", scn, "--algo", algo]) == EXIT_OK


def test_plan_names_each_failing_check(tmp_path, capsys, monkeypatch):
    # ttp forgets to collect at its first step: only its coverage check fails
    scn = str(tmp_path / "scn.json")
    assert main(["generate", "--sensors", "60", "--size", "2500",
                 "--seed", "1", "-o", scn]) == EXIT_OK
    real = cli._PLANNERS["ttp"]

    def forgetful(*args):
        plan = real(*args)
        plan.duties[0] = -1
        return plan

    monkeypatch.setitem(cli._PLANNERS, "ttp", forgetful)
    assert main(["plan", scn, "--algo", "ttp"]) == EXIT_VALIDATION
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    assert err[0] == "checks FAILED: coverage"
    assert err[1].startswith("  coverage: step 0 collects nothing")


def test_unknown_algo_is_a_usage_error(tmp_path, capsys):
    scn = str(tmp_path / "scn.json")
    main(["generate", "--sensors", "30", "--size", "2000", "-o", scn])
    with pytest.raises(SystemExit) as exc:
        main(["plan", scn, "--algo", "bogus"])
    assert exc.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "cstp" in err and "pmtp" in err and "ttp" in err


def test_missing_required_flag_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["generate"])
    assert exc.value.code == EXIT_USAGE
    assert "required" in capsys.readouterr().err


def test_infinite_region_is_a_usage_error(tmp_path, capsys):
    scn = tmp_path / "scn.json"
    assert main(["generate", "--sensors", "20", "--size", "inf",
                 "-o", str(scn)]) == EXIT_USAGE
    assert "error: region_width_m must be finite" in capsys.readouterr().err
    # a hand-edited file is refused before clustering could loop on it
    main(["generate", "--sensors", "20", "--size", "2000", "-o", str(scn)])
    data = json.loads(scn.read_text())
    data["region_width_m"] = data["region_height_m"] = float("inf")
    scn.write_text(json.dumps(data))
    assert main(["plan", str(scn)]) == EXIT_USAGE
    assert "error: region_width_m must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("edit, message", [
    (lambda d: d.update(bs_position_m=[float("inf"), 0.0]),
     "error: bs_position_m must be finite"),
    (lambda d: d["sensors"][3].update(data_bits=float("inf")),
     "error: sensor 3: data_bits must be finite"),
], ids=["bs_position_m", "data_bits"])
def test_non_finite_scenario_values_are_usage_errors(tmp_path, capsys, edit,
                                                     message):
    # planning either used to end in a traceback or in an infinite plan
    scn = tmp_path / "scn.json"
    main(["generate", "--sensors", "20", "--size", "2000", "-o", str(scn)])
    data = json.loads(scn.read_text())
    edit(data)
    scn.write_text(json.dumps(data))
    assert main(["plan", str(scn)]) == EXIT_USAGE
    assert message in capsys.readouterr().err


def test_field_whose_squared_distances_overflow_is_a_usage_error(tmp_path,
                                                                 capsys):
    # k-means++ seeding used to end in a traceback on such a field
    scn = tmp_path / "scn.json"
    assert main(["generate", "--sensors", "200", "--size", "1e160",
                 "-o", str(scn)]) == EXIT_USAGE
    assert "squared distances between 200 sensors overflow" in \
        capsys.readouterr().err
    main(["generate", "--sensors", "200", "--size", "2000", "-o", str(scn)])
    data = json.loads(scn.read_text())
    data["region_width_m"] = data["region_height_m"] = 2000 * 1e157
    for sensor in data["sensors"]:
        sensor["position_m"] = [v * 1e157 for v in sensor["position_m"]]
    scn.write_text(json.dumps(data))
    assert main(["plan", str(scn)]) == EXIT_USAGE
    assert "squared distances between 200 sensors overflow" in \
        capsys.readouterr().err


def test_missing_scenario_file(tmp_path, capsys):
    assert main(["plan", str(tmp_path / "nope.json")]) == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


def test_malformed_scenario_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    for text, message in (("{not json", "error: scenario file is not valid"),
                          ("[]", "error: scenario file must contain a JSON "
                                 "object")):
        bad.write_text(text)
        assert main(["plan", str(bad)]) == EXIT_USAGE
        assert message in capsys.readouterr().err


def test_hopeless_radio_config_is_infeasible(tmp_path, capsys):
    scn = str(tmp_path / "scn.json")
    main(["generate", "--sensors", "30", "--size", "2000", "-o", scn])
    cfg = _write_config(tmp_path, {"p_sensor_w": 1e-9})
    assert main(["plan", scn, "--config", cfg]) == EXIT_INFEASIBLE
    assert "infeasible:" in capsys.readouterr().err


def test_colocated_sensors_over_the_member_cap_are_infeasible(tmp_path, capsys):
    # 70 sensors on one spot fill one cluster past n_th=60 at every k
    scn = tmp_path / "scn.json"
    main(["generate", "--sensors", "70", "--size", "2000", "-o", str(scn)])
    data = json.loads(scn.read_text())
    for sensor in data["sensors"]:
        sensor["position_m"] = [100.0, 100.0]
    scn.write_text(json.dumps(data))
    assert main(["plan", str(scn)]) == EXIT_INFEASIBLE
    assert "infeasible: no cluster count" in capsys.readouterr().err


def _with_d_safe_over_r_u2u(tmp_path, sensors, size):
    """A generated scenario whose d_safe_m is 1.05 times its U2U link range."""
    scn = tmp_path / "scn.json"
    assert main(["generate", "--sensors", sensors, "--size", size,
                 "--seed", "1", "-o", str(scn)]) == EXIT_OK
    scenario = load_scenario(str(scn))
    r_u2u = coverage_radii(scenario.params, scenario.bs_height_m).r_u2u_m
    data = json.loads(scn.read_text())
    data["d_safe_m"] = 1.05 * r_u2u
    scn.write_text(json.dumps(data))
    return str(scn)


@pytest.mark.parametrize("algo", ["pmtp", "ttp", "cstp"])
def test_d_safe_beyond_the_link_range_is_infeasible(tmp_path, capsys, algo):
    # three rings: adjacent UAVs cannot be both linked and d_safe apart
    scn = _with_d_safe_over_r_u2u(tmp_path, "300", "8000")
    assert main(["plan", scn, "--algo", algo]) == EXIT_INFEASIBLE
    err = capsys.readouterr().err
    assert "infeasible: d_safe_m" in err and "r_u2u_m" in err


def test_d_safe_beyond_the_link_range_still_plans_one_uav(tmp_path, capsys):
    scn = _with_d_safe_over_r_u2u(tmp_path, "60", "2500")
    assert main(["plan", scn, "--algo", "pmtp"]) == EXIT_OK
    assert " m=1 " in capsys.readouterr().out


@pytest.mark.parametrize("count", ["0", "-3"])
def test_nonpositive_sensor_count_is_a_usage_error(tmp_path, capsys, count):
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--sensors", count, "-o", str(tmp_path / "x.json")])
    assert exc.value.code == EXIT_USAGE
    assert "sensor count must be at least 1" in capsys.readouterr().err


def test_sensor_count_too_large_to_allocate_is_a_usage_error(tmp_path,
                                                            capsys):
    # numpy refuses 10**30 elements before allocating anything
    assert main(["generate", "--sensors", str(10**30),
                 "-o", str(tmp_path / "x.json")]) == EXIT_USAGE
    assert (f"error: n_sensors {10**30} is too large to allocate"
            in capsys.readouterr().err)
    assert main(["sweep", "--axis", "sensors", "--values", "1e30", "--seeds",
                 "1", "-o", str(tmp_path / "x.csv")]) == EXIT_USAGE
    assert (f"error: n_sensors {int(1e30)} is too large to allocate"
            in capsys.readouterr().err)
    assert not list(tmp_path.iterdir())


def _tight_link_scenario(tmp_path):
    # short U2U links: the innermost ring reaches past one relay hop
    scn = str(tmp_path / "scn.json")
    cfg = _write_config(tmp_path, {"snr_th_u2u_db": 23})
    assert main(["generate", "--sensors", "400", "--size", "8000",
                 "--seed", "0", "--config", cfg, "-o", scn]) == EXIT_OK
    return scn


@pytest.mark.parametrize("error", [
    InfeasibleConfigError, InfeasibleClusteringError, InfeasiblePlanError,
    InfeasibleWaypointError, CoverageError], ids=lambda e: e.__name__)
def test_pmtp_waypoint_infeasibility_is_typed(tmp_path, capsys, monkeypatch,
                                              error):
    scn = _tight_link_scenario(tmp_path)

    def infeasible(*args):
        raise error("no feasible detour for CP 6")

    monkeypatch.setitem(cli._PLANNERS, "pmtp", infeasible)
    assert main(["plan", scn, "--algo", "pmtp"]) == EXIT_INFEASIBLE
    assert "infeasible: no feasible detour for CP" in capsys.readouterr().err


def test_pmtp_plans_the_tight_link_scenario(tmp_path, capsys):
    scn = _tight_link_scenario(tmp_path)
    prefix = str(tmp_path / "run")
    assert main(["plan", scn, "--algo", "pmtp", "-o", prefix]) == EXIT_OK
    assert "checks passed" in capsys.readouterr().out
    report = json.loads((tmp_path / "run.report.json").read_text())
    assert report["all_passed"] is True


def test_config_override_reaches_the_radio_model(tmp_path):
    scn = str(tmp_path / "scn.json")
    main(["generate", "--sensors", "60", "--size", "2500", "-o", scn])
    base, eased = str(tmp_path / "base"), str(tmp_path / "eased")
    assert main(["plan", scn, "-o", base]) == EXIT_OK
    cfg = _write_config(tmp_path, {"snr_th_g2u_db": 17.0})
    assert main(["plan", scn, "--config", cfg, "-o", eased]) == EXIT_OK
    r_base = json.loads((tmp_path / "base.report.json").read_text())["radii_m"]
    r_eased = json.loads((tmp_path / "eased.report.json").read_text())["radii_m"]
    assert r_eased["r_g2u"] > r_base["r_g2u"]       # 17 dB reaches farther
    assert r_eased["r_u2u"] == r_base["r_u2u"]


def test_sweep_serial_layout(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SKYHAUL_WORKERS", "1")
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--axis", "sensors", "--values", "40,60",
               "--seeds", "2", "--size", "2000", "-o", str(out)])
    assert rc == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "axis_value,seed,algo,completion_s,lower_bound_s,flight_s,hover_s"
    assert len(lines) == 1 + 2 * 2 * 3
    cells = [line.split(",") for line in lines[1:]]
    assert [c[0] for c in cells] == ["40"] * 6 + ["60"] * 6
    assert [c[2] for c in cells[:3]] == ["pmtp", "ttp", "cstp"]
    assert [int(c[1]) for c in cells[:6]] == [0, 0, 0, 1, 1, 1]
    for c in cells:
        assert float(c[3]) >= float(c[4]) - 1e-6    # completion vs bound
    assert "wrote 12 rows" in capsys.readouterr().out


def test_sweep_pool_matches_serial(tmp_path, monkeypatch):
    serial, pooled = tmp_path / "serial.csv", tmp_path / "pooled.csv"
    flags = ["sweep", "--axis", "snr-g2u-db", "--values", "17", "20",
             "--seeds", "1", "--sensors", "50", "--size", "2000"]
    monkeypatch.setenv("SKYHAUL_WORKERS", "1")
    assert main(flags + ["-o", str(serial)]) == EXIT_OK
    monkeypatch.setenv("SKYHAUL_WORKERS", "2")
    before = dict(os.environ)
    assert main(flags + ["-o", str(pooled)]) == EXIT_OK
    assert dict(os.environ) == before
    assert serial.read_bytes() == pooled.read_bytes()
    first = serial.read_text().splitlines()[1].split(",")
    assert first[0] == "17.0"                       # float axis keeps its repr


def test_sweep_names_each_failing_cell(tmp_path, capsys, monkeypatch):
    # ttp forgets to collect at its first step on the cells (60, seed 1) and
    # (40, seed 0): only their coverage check fails
    real = cli._PLANNERS["ttp"]

    def forgetful(scenario, *rest):
        plan = real(scenario, *rest)
        if (scenario.n_sensors, scenario.rng_seed) in ((60, 1), (40, 0)):
            plan.duties[0] = -1
        return plan

    monkeypatch.setitem(cli._PLANNERS, "ttp", forgetful)
    monkeypatch.setenv("SKYHAUL_WORKERS", "1")
    flags = ["sweep", "--axis", "sensors", "--values", "40,60", "--seeds", "2",
             "--size", "2000", "-o", str(tmp_path / "x.csv")]
    assert main(flags) == EXIT_VALIDATION
    out, err = capsys.readouterr()
    assert out == f"wrote 12 rows to {tmp_path / 'x.csv'}\n"
    assert err == ("some sweep cells failed validation\n"
                   "  sensors=40 seed=0 ttp: coverage\n"
                   "  sensors=60 seed=1 ttp: coverage\n")


def test_sweep_survives_infeasible_cells(tmp_path, capsys, monkeypatch):
    # at 26 dB the U2U link (1889 m) is too short for ttp's evenly spaced
    # relay hops on every cell, while pmtp and cstp still plan
    monkeypatch.setenv("SKYHAUL_WORKERS", "1")
    out = tmp_path / "x.csv"
    assert main(["sweep", "--axis", "sensors", "--values", "400", "--seeds",
                 "3", "--size", "8000", "--config",
                 _write_config(tmp_path, {"snr_th_u2u_db": 26}),
                 "-o", str(out)]) == EXIT_INFEASIBLE
    stdout, err = capsys.readouterr()
    assert stdout == f"wrote 6 rows to {out}\n"
    rows = [line.split(",")[:3] for line in out.read_text().splitlines()[1:]]
    assert rows == [["400", str(seed), algo] for seed in range(3)
                    for algo in ("pmtp", "cstp")]
    lines = err.splitlines()
    assert len(lines) == 3
    for seed, line in enumerate(lines):
        assert re.fullmatch(
            rf"sensors=400 seed={seed} ttp: infeasible: farthest CP at \d+ m "
            r"needs chain hops of \d+ m, above the 1889 m link range", line)


def test_sweep_names_infeasible_cells_and_prefers_a_failed_check(
        tmp_path, capsys, monkeypatch):
    # the cell (40, seed 1) is infeasible as a whole, and ttp's plan on
    # (60, seed 0) fails a check: the CSV keeps the other rows, and the
    # failed check decides the exit code
    real_prepare, real_ttp = cli.prepare, cli._PLANNERS["ttp"]

    def prepare(scenario):
        if (scenario.n_sensors, scenario.rng_seed) == (40, 1):
            raise InfeasibleConfigError("no chain reaches the field")
        return real_prepare(scenario)

    def forgetful(scenario, *rest):
        plan = real_ttp(scenario, *rest)
        if (scenario.n_sensors, scenario.rng_seed) == (60, 0):
            plan.duties[0] = -1
        return plan

    monkeypatch.setattr(cli, "prepare", prepare)
    monkeypatch.setitem(cli._PLANNERS, "ttp", forgetful)
    monkeypatch.setenv("SKYHAUL_WORKERS", "1")
    out = tmp_path / "x.csv"
    flags = ["sweep", "--axis", "sensors", "--values", "40,60", "--seeds", "2",
             "--size", "2000", "-o", str(out)]
    assert main(flags) == EXIT_VALIDATION
    _, err = capsys.readouterr()
    rows = [line.split(",")[:2] for line in out.read_text().splitlines()[1:]]
    assert rows == [["40", "0"]] * 3 + [["60", "0"]] * 3 + [["60", "1"]] * 3
    assert err == "".join(
        f"sensors=40 seed=1 {algo}: infeasible: no chain reaches the field\n"
        for algo in ("pmtp", "ttp", "cstp")) + (
        "some sweep cells failed validation\n"
        "  sensors=60 seed=0 ttp: coverage\n")
    monkeypatch.setitem(cli._PLANNERS, "ttp", real_ttp)
    assert main(flags) == EXIT_INFEASIBLE


def test_sweep_config_reaches_every_cell(tmp_path, monkeypatch):
    # a narrower band doubles every upload time, so a dropped config shows
    cfg = {"bandwidth_hz": 1e6}
    out = tmp_path / "x.csv"
    monkeypatch.setenv("SKYHAUL_WORKERS", "1")
    assert main(["sweep", "--axis", "sensors", "--values", "40", "--seeds",
                 "2", "--size", "2000", "--config",
                 _write_config(tmp_path, cfg), "-o", str(out)]) == EXIT_OK
    params = apply_config_overrides(ChannelParams(), cfg)
    want = []
    for seed in range(2):
        scenario = generate_scenario(2000, 2000, 40, params=params, seed=seed)
        radii, cluster_set, topology = cli.prepare(scenario)
        for algo, planner in cli._PLANNERS.items():
            plan = planner(scenario, cluster_set, topology, radii)
            report = evaluate(plan, scenario, topology, radii, cluster_set)
            want.append(["40", str(seed), algo, repr(report.completion_s)])
    rows = [line.split(",")[:4] for line in out.read_text().splitlines()[1:]]
    assert rows == want


class _InlinePool:
    """Stands in for ProcessPoolExecutor: records the environment workers
    would start in and runs the cells in this process."""

    started = []

    def __init__(self, max_workers, mp_context):
        self.started.append((mp_context.get_start_method(), dict(os.environ)))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, cells):
        return map(fn, cells)


def test_sweep_workers_start_spawned_with_one_blas_thread(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setenv("SKYHAUL_WORKERS", "2")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")     # the user's own count
    before = dict(os.environ)
    assert main(["sweep", "--axis", "sensors", "--values", "40,60", "--seeds",
                 "1", "--size", "2000", "-o", str(tmp_path / "x.csv")]) == EXIT_OK
    method, env = _InlinePool.started.pop()
    assert method == "spawn"
    assert (env["OMP_NUM_THREADS"], env["OPENBLAS_NUM_THREADS"],
            env["MKL_NUM_THREADS"]) == ("1", "3", "1")
    assert dict(os.environ) == before


@pytest.mark.parametrize("flags", [
    ["--axis", "sensors", "--values", "40", "--config", {"alpha": "loud"}],
    ["--axis", "snr-g2u-db", "--values", "nan"],
], ids=["config", "nan-threshold"])
def test_sweep_checks_its_inputs_before_any_worker_starts(tmp_path, capsys,
                                                          monkeypatch, flags):
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setenv("SKYHAUL_WORKERS", "2")
    pools = len(_InlinePool.started)
    out = tmp_path / "x.csv"
    flags = [_write_config(tmp_path, f) if isinstance(f, dict) else f
             for f in flags]
    assert main(["sweep", *flags, "--seeds", "2", "--size", "2000",
                 "-o", str(out)]) == EXIT_USAGE
    assert len(_InlinePool.started) == pools
    assert not out.exists()
    assert "error:" in capsys.readouterr().err


def test_sweep_cell_returns_each_planners_report_or_error(monkeypatch):
    # at 26 dB the U2U link is too short for ttp's evenly spaced relay hops,
    # while pmtp and cstp still plan
    cell = (apply_config_overrides(ChannelParams(), {"snr_th_u2u_db": 26}),
            400, 8000.0, 0)
    outcomes = cli._sweep_cell(cell)
    kinds = [EvalReport, InfeasiblePlanError, EvalReport]
    assert [algo for algo, _ in outcomes] == ["pmtp", "ttp", "cstp"]
    assert [type(outcome) for _, outcome in outcomes] == kinds
    # a pooled sweep receives the outcomes pickled, each of its own type
    copied = pickle.loads(pickle.dumps(outcomes))
    assert [type(outcome) for _, outcome in copied] == kinds
    assert str(copied[1][1]) == str(outcomes[1][1])
    error = InfeasibleConfigError("no chain reaches the field")

    def prepare(scenario):
        raise error

    monkeypatch.setattr(cli, "prepare", prepare)
    assert cli._sweep_cell(cell) == [("pmtp", error), ("ttp", error),
                                     ("cstp", error)]


@pytest.mark.parametrize("flags", [
    ["--values", "abc"],
    ["--values", "10.5"],
    ["--values", "inf"],
    ["--values", "nan"],
    ["--values", "40", "--seeds", "0"],
    ["--values", ","],
])
def test_sweep_rejects_bad_inputs(tmp_path, capsys, flags):
    rc = main(["sweep", "--axis", "sensors", "-o", str(tmp_path / "x.csv")]
              + flags)
    assert rc == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


def test_bad_worker_env_is_a_usage_error(tmp_path, capsys, monkeypatch):
    for raw in ("zero", "0", "-3"):
        monkeypatch.setenv("SKYHAUL_WORKERS", raw)
        rc = main(["sweep", "--axis", "sensors", "--values", "40", "--seeds",
                   "1", "--size", "2000", "-o", str(tmp_path / "x.csv")])
        assert rc == EXIT_USAGE
        assert (f"SKYHAUL_WORKERS must be a positive integer, got {raw!r}"
                in capsys.readouterr().err)


def test_worker_count_defaults_to_the_cpu_count(monkeypatch):
    # the CPUs this process may run on, where the platform can tell
    monkeypatch.delenv("SKYHAUL_WORKERS", raising=False)
    usable = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
              else os.cpu_count() or 1)
    assert cli._worker_count() == usable


def test_worker_count_follows_the_cpu_mask(monkeypatch):
    """A one-CPU affinity mask on an 8-CPU host gives one worker; without
    `sched_getaffinity` the default falls back to the CPU count."""
    monkeypatch.delenv("SKYHAUL_WORKERS", raising=False)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {3},
                        raising=False)
    assert cli._worker_count() == 1
    monkeypatch.delattr(cli.os, "sched_getaffinity")
    assert cli._worker_count() == 8
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    assert cli._worker_count() == 1


def test_generate_writes_config_thresholds_as_given(tmp_path):
    scn = tmp_path / "scn.json"
    cfg = _write_config(tmp_path, {"snr_th_g2u_db": 1.0})
    assert main(["generate", "--sensors", "5", "--size", "2000",
                 "--config", cfg, "-o", str(scn)]) == EXIT_OK
    assert json.loads(scn.read_text())["channel"]["snr_th_g2u_db"] == 1.0


@pytest.mark.parametrize("db, code, message", [
    (float("nan"), EXIT_USAGE, "error: channel parameter snr_th_g2u_db"),
    (float("-inf"), EXIT_USAGE, "error: channel parameter snr_th_g2u_db"),
    (4000.0, EXIT_USAGE, "error: channel parameter snr_th_g2u_db"),
    (float("inf"), EXIT_INFEASIBLE, "infeasible: sensor uplink threshold"),
], ids=["nan", "-inf", "4000", "inf"])
def test_threshold_without_a_finite_linear_value(tmp_path, capsys, db, code,
                                                 message):
    # 4000 dB overflows the linear conversion; +inf is an unattainable link
    scn = str(tmp_path / "scn.json")
    main(["generate", "--sensors", "30", "--size", "2000", "-o", scn])
    cfg = _write_config(tmp_path, {"snr_th_g2u_db": db})
    assert main(["plan", scn, "--config", cfg]) == code
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("snr_th_g2u_db", "loud"),
    ("beta0", True),
    ("snr_th_g2u_db", "60"),
], ids=["loud", "true", "numeric-string"])
def test_non_numeric_config_value_is_a_usage_error(tmp_path, capsys, key, value):
    scn = str(tmp_path / "scn.json")
    main(["generate", "--sensors", "30", "--size", "2000", "-o", scn])
    cfg = _write_config(tmp_path, {key: value})
    assert main(["plan", scn, "--config", cfg]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"error: field '{key}' in config must be a number" in err


@pytest.mark.parametrize("edit", [
    lambda d: d.update(n_th="sixty"),
    lambda d: d["channel"].update(alpha=None),
    lambda d: d["sensors"][0].update(position_m=["east", 1.0]),
    lambda d: d.update(n_th=True),
], ids=["n_th", "alpha", "position_m", "n_th-true"])
def test_non_numeric_scenario_field_is_a_usage_error(tmp_path, capsys, edit):
    scn = tmp_path / "scn.json"
    main(["generate", "--sensors", "30", "--size", "2000", "-o", str(scn)])
    data = json.loads(scn.read_text())
    edit(data)
    scn.write_text(json.dumps(data))
    assert main(["plan", str(scn)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "error: field '" in err and "must be a number" in err


def test_unknown_scenario_key_is_a_usage_error(tmp_path, capsys):
    # a stale linear threshold next to its dB replacement used to load silently
    scn = tmp_path / "scn.json"
    main(["generate", "--sensors", "20", "--size", "2000", "-o", str(scn)])
    data = json.loads(scn.read_text())
    data["channel"]["snr_th_g2u"] = 100.0
    scn.write_text(json.dumps(data))
    assert main(["plan", str(scn)]) == EXIT_USAGE
    assert "error: unknown field 'snr_th_g2u' in channel" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    lambda scn, bad, out: ["plan", bad],
    lambda scn, bad, out: ["plan", scn, "--config", bad],
    lambda scn, bad, out: ["sweep", "--axis", "sensors", "--values", "20",
                           "--seeds", "1", "--config", bad, "-o", out],
], ids=["scenario", "plan-config", "sweep-config"])
def test_file_not_in_utf8_is_a_usage_error(tmp_path, capsys, command):
    scn = str(tmp_path / "scn.json")
    main(["generate", "--sensors", "20", "--size", "2000", "-o", scn])
    bad = tmp_path / "latin1.json"
    bad.write_bytes('{"note": "caf\u00e9"}'.encode("latin-1"))
    out = str(tmp_path / "sweep.csv")
    assert main(command(scn, str(bad), out)) == EXIT_USAGE
    assert "file is not valid UTF-8" in capsys.readouterr().err


def test_negative_seed_is_a_usage_error(tmp_path, capsys):
    scn = tmp_path / "scn.json"
    assert main(["generate", "--sensors", "20", "--seed", "-1",
                 "-o", str(scn)]) == EXIT_USAGE
    assert "error: seed must be non-negative" in capsys.readouterr().err
    main(["generate", "--sensors", "20", "--size", "2000", "-o", str(scn)])
    data = json.loads(scn.read_text())
    data["rng_seed"] = -3
    scn.write_text(json.dumps(data))
    assert main(["plan", str(scn)]) == EXIT_USAGE
    assert "error: rng_seed must be non-negative" in capsys.readouterr().err


def test_readme_library_example_runs(capsys):
    """README's one Python block, the documented library entry point
    (prepare, a planner, evaluate), runs and reports a valid plan."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"```python\n(.*?)```", readme.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(readme), "exec"), {})
    assert capsys.readouterr().out.split()[-1] == "True"


_IMPORT_EVERY_MODULE = """
import importlib, pkgutil, sys
before = set(sys.modules)
import skyhaul, skyhaul.cli
for info in pkgutil.iter_modules(skyhaul.__path__):
    importlib.import_module(f"skyhaul.{info.name}")
added = {name.partition(".")[0] for name in set(sys.modules) - before}
allowed = {"skyhaul", "numpy", "__mp_main__"} | sys.stdlib_module_names
print(" ".join(sorted(added - allowed)))
"""


def test_runtime_imports_only_numpy_and_the_standard_library():
    """The package's one runtime dependency is numpy: importing every
    module in a fresh interpreter loads no other third-party package, which
    the test extras (scipy) would otherwise hide."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _IMPORT_EVERY_MODULE],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, check=True)
    assert done.stdout.split() == []
