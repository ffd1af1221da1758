"""Command-line interface: exit codes, outputs, determinism."""
from __future__ import annotations

import json

import pytest

from skyhaul import cli
from skyhaul.baselines import InfeasiblePlanError
from skyhaul.channel import (CoverageError, InfeasibleConfigError,
                             coverage_radii)
from skyhaul.cli import EXIT_INFEASIBLE, EXIT_OK, EXIT_USAGE, main
from skyhaul.clustering import InfeasibleClusteringError
from skyhaul.model import load_scenario
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


@pytest.mark.parametrize("algo", ["ttp", "cstp"])
def test_plan_baselines_exit_clean(tmp_path, algo):
    scn = str(tmp_path / "scn.json")
    assert main(["generate", "--sensors", "60", "--size", "2500",
                 "--seed", "1", "-o", scn]) == EXIT_OK
    assert main(["plan", scn, "--algo", algo]) == EXIT_OK


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


def test_missing_scenario_file(tmp_path, capsys):
    assert main(["plan", str(tmp_path / "nope.json")]) == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


def test_malformed_scenario_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["plan", str(bad)]) == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


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
    assert main(flags + ["-o", str(pooled)]) == EXIT_OK
    assert serial.read_bytes() == pooled.read_bytes()
    first = serial.read_text().splitlines()[1].split(",")
    assert first[0] == "17.0"                       # float axis keeps its repr


@pytest.mark.parametrize("flags", [
    ["--values", "abc"],
    ["--values", "10.5"],
    ["--values", "inf"],
    ["--values", "nan"],
    ["--values", "40", "--seeds", "0"],
])
def test_sweep_rejects_bad_inputs(tmp_path, capsys, flags):
    rc = main(["sweep", "--axis", "sensors", "-o", str(tmp_path / "x.csv")]
              + flags)
    assert rc == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


def test_bad_worker_env_is_a_usage_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SKYHAUL_WORKERS", "zero")
    rc = main(["sweep", "--axis", "sensors", "--values", "40",
               "--seeds", "1", "--size", "2000", "-o", str(tmp_path / "x.csv")])
    assert rc == EXIT_USAGE
    assert "SKYHAUL_WORKERS" in capsys.readouterr().err


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
], ids=["loud", "true"])
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
