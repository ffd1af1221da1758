"""Scenario construction, validation errors, and JSON round trips."""

import dataclasses

import numpy as np
import pytest

import skyhaul
from skyhaul.model import (ChannelParams, ScenarioError, ScenarioParseError,
                           apply_config_overrides, db_to_linear,
                           generate_scenario, load_scenario, save_scenario,
                           scenario_from_dict, scenario_to_dict)


def test_db_conversion_round_trip():
    # thresholds stay in dB, so a saved file holds the values given
    for db in (-7.5, 0.0, 1.0, 13.0, 19.5, 20.0, 23.0):
        params = apply_config_overrides(ChannelParams(), {"snr_th_g2u_db": db})
        d = scenario_to_dict(generate_scenario(500.0, 500.0, 2, params=params))
        assert d["channel"]["snr_th_g2u_db"] == db
        assert scenario_from_dict(d).params == params


def test_default_thresholds_in_db():
    p = ChannelParams()
    dbs = (p.snr_th_g2u_db, p.snr_th_u2u_db, p.snr_th_u2b_db)
    assert dbs == (20.0, 19.5, 13.0)
    assert [db_to_linear(db) for db in dbs] == \
        pytest.approx([100.0, 10.0 ** 1.95, 10.0 ** 1.3], rel=1e-12)


def test_generate_scenario_is_deterministic():
    a = generate_scenario(1000.0, 1000.0, 50, seed=5)
    b = generate_scenario(1000.0, 1000.0, 50, seed=5)
    assert np.array_equal(a.sensor_positions, b.sensor_positions)
    c = generate_scenario(1000.0, 1000.0, 50, seed=6)
    assert not np.array_equal(a.sensor_positions, c.sensor_positions)


def test_generate_scenario_field_bounds():
    sc = generate_scenario(2000.0, 1500.0, 200, seed=1)
    xy = sc.sensor_positions
    assert xy.shape == (200, 2)
    assert (xy[:, 0] >= 0).all() and (xy[:, 0] <= 2000).all()
    assert (xy[:, 1] >= 0).all() and (xy[:, 1] <= 1500).all()
    assert sc.bs_position_m == (0.0, 0.0)
    assert sc.n_sensors == 200
    assert (sc.sensor_data_bits == 1e7).all()


@pytest.mark.parametrize("n_sensors", [-2, 0, 2.5])
def test_generate_scenario_rejects_bad_sensor_count(n_sensors):
    with pytest.raises(ScenarioError, match="n_sensors"):
        generate_scenario(100.0, 100.0, n_sensors)


def test_scenario_rejects_sensor_outside_region():
    sc = generate_scenario(500.0, 500.0, 3, seed=0)
    d = scenario_to_dict(sc)
    d["sensors"][1]["position_m"] = [600.0, 100.0]
    with pytest.raises(ScenarioError):
        scenario_from_dict(d)


def test_scenario_rejects_duplicate_sensor_ids():
    sc = generate_scenario(500.0, 500.0, 3, seed=0)
    d = scenario_to_dict(sc)
    d["sensors"][2]["id"] = d["sensors"][0]["id"]
    with pytest.raises(ScenarioError):
        scenario_from_dict(d)


def test_scenario_rejects_uav_below_bs():
    with pytest.raises(ScenarioError):
        generate_scenario(500.0, 500.0, 3, seed=0,
                          params=ChannelParams(uav_height_m=10.0))


def _with_first_data_bits(bits):
    sc = generate_scenario(500.0, 500.0, 2, seed=0)
    return dataclasses.replace(sc, sensor_data_bits=np.array([bits, 1e7]))


def test_sensor_requires_positive_data():
    with pytest.raises(ScenarioError):
        _with_first_data_bits(0.0)


@pytest.mark.parametrize("bits, match", [
    (float("nan"), "sensor 0: data_bits must be positive"),
    (float("inf"), "sensor 0: data_bits must be finite"),
], ids=["nan", "inf"])
def test_sensor_requires_finite_data(bits, match):
    with pytest.raises(ScenarioError, match=match):
        _with_first_data_bits(bits)


def test_negative_seed_is_named():
    with pytest.raises(ScenarioError, match="seed must be non-negative"):
        generate_scenario(500.0, 500.0, 2, seed=-1)
    d = scenario_to_dict(generate_scenario(500.0, 500.0, 2, seed=0))
    d["rng_seed"] = -3
    with pytest.raises(ScenarioError, match="rng_seed must be non-negative"):
        scenario_from_dict(d)


def test_channel_params_reject_nonpositive():
    with pytest.raises(ScenarioError):
        ChannelParams(beta0=0.0)
    with pytest.raises(ScenarioError):
        ChannelParams(noise_w=-1e-14)
    with pytest.raises(ScenarioError):
        ChannelParams(kappa=1.5)


@pytest.mark.parametrize("db", [float("nan"), float("-inf"), -4000.0, 4000.0])
def test_channel_params_reject_thresholds_without_a_linear_value(db):
    # NaN, -inf and an underflow give no positive linear SNR; 4000 dB
    # overflows the conversion
    with pytest.raises(ScenarioError, match="snr_th_u2b_db"):
        ChannelParams(snr_th_u2b_db=db)


def test_json_round_trip_identical_bytes(tmp_path):
    sc = generate_scenario(3000.0, 2000.0, 40, seed=9)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_scenario(sc, p1)
    save_scenario(load_scenario(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()
    back = load_scenario(p1)
    assert back.rng_seed == sc.rng_seed
    assert back.params == sc.params
    assert np.array_equal(back.sensor_positions, sc.sensor_positions)


SAVED_500x400_SEED4 = """\
{
 "region_width_m": 500.0,
 "region_height_m": 400.0,
 "bs_position_m": [
  0.0,
  0.0
 ],
 "bs_height_m": 20.0,
 "n_th": 60,
 "v_max_mps": 30.0,
 "d_safe_m": 30.0,
 "rng_seed": 4,
 "channel": {
  "a": 4.88,
  "b": 0.43,
  "kappa": 0.2,
  "alpha": 2.0,
  "beta0": 0.000142,
  "uav_height_m": 100.0,
  "bandwidth_hz": 2000000.0,
  "p_sensor_w": 0.05,
  "p_uav_w": 0.1,
  "noise_w": 1e-14,
  "snr_th_g2u_db": 20.0,
  "snr_th_u2u_db": 19.5,
  "snr_th_u2b_db": 13.0
 },
 "sensors": [
  {
   "id": 0,
   "position_m": [
    471.5280527861838,
    204.53102112574464
   ],
   "data_bits": 10000000.0
  },
  {
   "id": 1,
   "position_m": [
    488.1218528538521,
    32.33440955824087
   ],
   "data_bits": 10000000.0
  },
  {
   "id": 2,
   "position_m": [
    303.6779159975148,
    150.59463375090903
   ],
   "data_bits": 10000000.0
  }
 ]
}
"""


def test_saved_scenario_bytes_are_pinned(tmp_path):
    # key order, integer ids and float reprs of a saved file
    path = tmp_path / "s.json"
    save_scenario(generate_scenario(500.0, 400.0, 3, seed=4), path)
    assert path.read_text() == SAVED_500x400_SEED4


def test_every_exported_name_resolves():
    for name in skyhaul.__all__:
        assert hasattr(skyhaul, name), name


def test_load_rejects_malformed_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ScenarioParseError):
        load_scenario(bad)


def test_missing_field_is_named(tmp_path):
    sc = generate_scenario(500.0, 500.0, 2, seed=0)
    d = scenario_to_dict(sc)
    del d["n_th"]
    with pytest.raises(ScenarioParseError, match="n_th"):
        scenario_from_dict(d)


@pytest.mark.parametrize("key, value, match", [
    ("channel", 5, "channel must be a JSON object"),
    ("sensors", 3, "'sensors' in scenario must be a list"),
    ("n_th", "sixty", "'n_th' in scenario must be a number"),
    pytest.param("n_th", "60", "'n_th' in scenario must be a number, got '60'",
                 id="n_th-string"),
    pytest.param("n_th", True, "'n_th' in scenario must be a number, got True",
                 id="n_th-true"),
    ("n_th", 60.9, "'n_th' in scenario must be an integer"),
    ("rng_seed", 1.5, "'rng_seed' in scenario must be an integer"),
    pytest.param("sensors",
                 [{"id": 0.5, "position_m": [1.0, 1.0], "data_bits": 1e7}],
                 r"'id' in sensors\[0\] must be an integer", id="sensor-id-0.5"),
    pytest.param("sensors",
                 [{"id": 2 ** 63, "position_m": [1.0, 1.0], "data_bits": 1e7}],
                 r"'id' in sensors\[0\] must fit in int64", id="sensor-id-2**63"),
    pytest.param("v_max_mps", 10 ** 400, "'v_max_mps' in scenario must be a number",
                 id="v_max_mps-1e400"),
])
def test_malformed_sections_are_named(key, value, match):
    d = scenario_to_dict(generate_scenario(500.0, 500.0, 2, seed=0))
    d[key] = value
    with pytest.raises(ScenarioParseError, match=match):
        scenario_from_dict(d)


@pytest.mark.parametrize("key, value, match", [
    ("d_safe_m", float("nan"), "d_safe_m must be non-negative"),
    ("bs_height_m", float("nan"), "bs_height_m must be non-negative"),
    ("sensors", [], "at least one sensor"),
    ("region_width_m", float("inf"), "region_width_m must be finite"),
    ("region_height_m", float("inf"), "region_height_m must be finite"),
    ("v_max_mps", float("inf"), "v_max_mps must be finite"),
    ("d_safe_m", float("inf"), "d_safe_m must be finite"),
    ("bs_height_m", float("inf"), "bs_height_m must be finite"),
    ("bs_position_m", [float("inf"), 0.0], "bs_position_m must be finite"),
    ("bs_position_m", [0.0, float("nan")], "bs_position_m must be finite"),
])
def test_scenario_rejects_nan_lengths_and_no_sensors(key, value, match):
    d = scenario_to_dict(generate_scenario(500.0, 500.0, 2, seed=0))
    d[key] = value
    with pytest.raises(ScenarioError, match=match):
        scenario_from_dict(d)


def test_scenario_rejects_a_field_whose_squared_distances_overflow():
    with pytest.raises(ScenarioError, match="squared distances between 200 "
                                            "sensors overflow"):
        generate_scenario(1e160, 1e160, 200, seed=0)
    # the bound is n_sensors · (span_x² + span_y²), not the region
    d = scenario_to_dict(generate_scenario(500.0, 500.0, 2, seed=0))
    d["region_width_m"] = d["region_height_m"] = 1e300
    d["sensors"][0]["position_m"] = [0.0, 0.0]
    d["sensors"][1]["position_m"] = [1e153, 1e153]
    scenario_from_dict(d)
    d["sensors"][1]["position_m"] = [1e154, 1e154]
    with pytest.raises(ScenarioError, match="overflow"):
        scenario_from_dict(d)


@pytest.mark.parametrize("edit, match", [
    (lambda d: d.update(n_sensors=2), "unknown field 'n_sensors' in scenario"),
    (lambda d: d["channel"].update(snr_th_g2u=100.0),
     "unknown field 'snr_th_g2u' in channel"),
    (lambda d: d["sensors"][1].update(data_bit=1e7),
     r"unknown field 'data_bit' in sensors\[1\]"),
], ids=["scenario", "channel", "sensor"])
def test_unknown_scenario_key_is_named(edit, match):
    d = scenario_to_dict(generate_scenario(500.0, 500.0, 2, seed=0))
    scenario_from_dict(d)
    edit(d)
    with pytest.raises(ScenarioParseError, match=match):
        scenario_from_dict(d)


def test_apply_config_overrides_thresholds_in_db():
    p = apply_config_overrides(ChannelParams(), {"snr_th_g2u_db": 17.0,
                                                 "beta0": 2e-4})
    assert p.snr_th_g2u_db == 17.0
    assert p.beta0 == 2e-4
    assert p.snr_th_u2u_db == 19.5


def test_apply_config_rejects_unknown_key():
    with pytest.raises(ScenarioParseError, match="not_a_field"):
        apply_config_overrides(ChannelParams(), {"not_a_field": 1.0})
