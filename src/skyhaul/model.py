"""Problem instances: sensor fields, radio parameters, scenario JSON I/O.

All lengths are meters, powers watts, data sizes bits. SNR thresholds are
dB everywhere, under the same names in memory, scenario files and config
overrides; `channel` converts them to linear where it uses them.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass, fields, replace
from functools import cached_property
from pathlib import Path

import numpy as np

DEFAULT_DATA_BITS = 1e7
_INT64 = np.iinfo(np.int64)


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


class ScenarioError(ValueError):
    """Scenario contents violate an invariant."""


class ScenarioParseError(ScenarioError):
    """Malformed scenario/config data; the message names the offending field."""


class InfeasibleError(RuntimeError):
    """A well-formed input admits no radio ranges, clusters or mission."""


@dataclass(frozen=True)
class ChannelParams:
    """Radio model constants. Defaults follow the dense-urban evaluation setup."""

    a: float = 4.88                 # LoS sigmoid shape
    b: float = 0.43                 # LoS sigmoid slope, per degree
    kappa: float = 0.2              # NLoS attenuation factor
    alpha: float = 2.0              # path-loss exponent
    beta0: float = 1.42e-4          # reference channel gain at 1 m
    uav_height_m: float = 100.0
    bandwidth_hz: float = 2e6
    p_sensor_w: float = 0.05
    p_uav_w: float = 0.1
    noise_w: float = 1e-14          # -110 dBm
    snr_th_g2u_db: float = 20.0     # SNR thresholds in dB
    snr_th_u2u_db: float = 19.5
    snr_th_u2b_db: float = 13.0

    def __post_init__(self):
        for f in fields(self):
            name, value = f.name, getattr(self, f.name)
            if name.endswith("_db"):
                # NaN, -inf and underflow give no positive linear SNR, a large
                # finite value overflows; +inf is left to coverage_radii
                try:
                    ok = db_to_linear(value) > 0
                except OverflowError:
                    ok = False
                if not ok:
                    raise ScenarioError(
                        f"channel parameter {name} = {value!r} dB is out of range")
            elif name != "kappa" and not value > 0:
                raise ScenarioError(f"channel parameter {name} must be positive")
        if not 0 <= self.kappa <= 1:
            raise ScenarioError("channel parameter kappa must be in [0, 1]")


@dataclass(frozen=True, eq=False)
class Scenario:
    """A sensor field: row i of each sensor array describes one sensor."""

    region_width_m: float
    region_height_m: float
    bs_position_m: tuple[float, float]
    bs_height_m: float
    sensor_ids: np.ndarray          # (N,) int64
    sensor_positions: np.ndarray    # (N, 2)
    sensor_data_bits: np.ndarray    # (N,)
    params: ChannelParams
    n_th: int
    v_max_mps: float
    d_safe_m: float
    rng_seed: int

    def __post_init__(self):
        if not (self.region_width_m > 0 and self.region_height_m > 0):
            raise ScenarioError("region dimensions must be positive")
        if not self.v_max_mps > 0:
            raise ScenarioError("v_max_mps must be positive")
        if not self.d_safe_m >= 0:
            raise ScenarioError("d_safe_m must be non-negative")
        if self.n_th < 1:
            raise ScenarioError("n_th must be at least 1")
        if not self.bs_height_m >= 0:
            raise ScenarioError("bs_height_m must be non-negative")
        for name in ("region_width_m", "region_height_m", "v_max_mps",
                     "d_safe_m", "bs_height_m"):
            if not math.isfinite(getattr(self, name)):
                raise ScenarioError(f"{name} must be finite, "
                                    f"got {getattr(self, name)!r}")
        if not all(map(math.isfinite, self.bs_position_m)):
            raise ScenarioError(f"bs_position_m must be finite, "
                                f"got {self.bs_position_m!r}")
        if self.rng_seed < 0:
            raise ScenarioError(f"rng_seed must be non-negative, got {self.rng_seed}")
        ids, xy, bits = self.sensor_ids, self.sensor_positions, self.sensor_data_bits
        n = len(ids)
        if ids.shape != (n,) or xy.shape != (n, 2) or bits.shape != (n,):
            raise ScenarioError("sensor_ids, sensor_positions and sensor_data_bits "
                                "must have matching lengths")
        if not n:
            raise ScenarioError("a scenario needs at least one sensor")
        if self.params.uav_height_m <= self.bs_height_m:
            raise ScenarioError("UAV altitude must exceed BS height")
        # each mask marks faulty rows; the first one is reported by id
        first_seen = np.zeros(n, dtype=bool)
        first_seen[np.unique(ids, return_index=True)[1]] = True
        inside = (xy >= 0) & (xy <= (self.region_width_m, self.region_height_m))
        for bad, message in (
                (~(bits > 0), "sensor {}: data_bits must be positive"),
                (~np.isfinite(bits), "sensor {}: data_bits must be finite"),
                (~first_seen, "duplicate sensor id {}"),
                (~inside.all(axis=1), "sensor {} lies outside the region")):
            if bad.any():
                raise ScenarioError(message.format(ids[bad.argmax()]))
        # k-means++ weighs sensors by squared distance; their sum must be finite
        span_x, span_y = (xy.max(axis=0) - xy.min(axis=0)).tolist()
        if not math.isfinite(n * (span_x * span_x + span_y * span_y)):
            raise ScenarioError(
                f"sensor positions span {span_x:g} m x {span_y:g} m: squared "
                f"distances between {n} sensors overflow")

    @property
    def n_sensors(self) -> int:
        return len(self.sensor_ids)

    @cached_property
    def bs_xy(self) -> np.ndarray:
        return np.array(self.bs_position_m, dtype=float)


def generate_scenario(width_m: float, height_m: float, n_sensors: int,
                      params: ChannelParams | None = None,
                      seed: int = 0) -> Scenario:
    """Uniform sensor field over [0,w]x[0,h] with the BS at the origin corner,
    20 m high. Each sensor holds DEFAULT_DATA_BITS; a CP serves at most 60
    sensors, UAVs fly at 30 m/s and keep 30 m apart."""
    if not (isinstance(n_sensors, numbers.Integral) and n_sensors >= 1):
        raise ScenarioError(f"n_sensors must be a positive integer, got {n_sensors!r}")
    if seed < 0:
        raise ScenarioError(f"seed must be non-negative, got {seed!r}")
    params = params or ChannelParams()
    rng = np.random.default_rng(seed)
    return Scenario(
        region_width_m=float(width_m), region_height_m=float(height_m),
        bs_position_m=(0.0, 0.0), bs_height_m=20.0,
        sensor_ids=np.arange(n_sensors, dtype=np.int64),
        sensor_positions=(rng.uniform(0.0, 1.0, size=(n_sensors, 2))
                          * [width_m, height_m]),
        sensor_data_bits=np.full(n_sensors, DEFAULT_DATA_BITS),
        params=params, n_th=60, v_max_mps=30.0, d_safe_m=30.0,
        rng_seed=int(seed),
    )


def _require(mapping: dict, key: str, context: str):
    if not isinstance(mapping, dict):
        raise ScenarioParseError(f"{context} must be a JSON object")
    if key not in mapping:
        raise ScenarioParseError(f"missing field '{key}' in {context}")
    return mapping[key]


def _number(value, key: str, context: str, kind=float):
    """`kind(value)` of a JSON int or float, or a ScenarioParseError naming
    the field.

    An int field rejects a fractional value instead of truncating it, and
    no field takes a string (even "60") or a JSON boolean for 0 or 1.
    """
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ScenarioParseError(f"field '{key}' in {context} must be an integer, "
                                 f"got {value!r}")
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return kind(value)
        except OverflowError:
            pass
    raise ScenarioParseError(f"field '{key}' in {context} must be a number, "
                             f"got {value!r}")


def _field(mapping: dict, key: str, context: str, kind=float):
    return _number(_require(mapping, key, context), key, context, kind)


_SCENARIO_KEYS = ("region_width_m", "region_height_m", "bs_position_m",
                  "bs_height_m", "n_th", "v_max_mps", "d_safe_m", "rng_seed",
                  "channel", "sensors")
_SENSOR_KEYS = ("id", "position_m", "data_bits")
_CHANNEL_KEYS = tuple(f.name for f in fields(ChannelParams))


def _reject_unknown(mapping: dict, known, context: str):
    """A ScenarioParseError naming the first key of `mapping` not in `known`."""
    for key in mapping:
        if key not in known:
            raise ScenarioParseError(f"unknown field '{key}' in {context}")


def _params_from_dict(d: dict) -> ChannelParams:
    values = {key: _field(d, key, "channel") for key in _CHANNEL_KEYS}
    _reject_unknown(d, _CHANNEL_KEYS, "channel")
    return ChannelParams(**values)


def scenario_to_dict(s: Scenario) -> dict:
    return {
        "region_width_m": s.region_width_m,
        "region_height_m": s.region_height_m,
        "bs_position_m": list(s.bs_position_m),
        "bs_height_m": s.bs_height_m,
        "n_th": s.n_th,
        "v_max_mps": s.v_max_mps,
        "d_safe_m": s.d_safe_m,
        "rng_seed": s.rng_seed,
        "channel": asdict(s.params),
        "sensors": [
            {"id": i, "position_m": xy, "data_bits": bits}
            for i, xy, bits in zip(s.sensor_ids.tolist(),
                                   s.sensor_positions.tolist(),
                                   s.sensor_data_bits.tolist())
        ],
    }


def _xy(mapping: dict, key: str, context: str) -> tuple[float, float]:
    pos = _require(mapping, key, context)
    if not (isinstance(pos, (list, tuple)) and len(pos) == 2):
        raise ScenarioParseError(f"field '{key}' in {context} must be [x, y]")
    return _number(pos[0], key, context), _number(pos[1], key, context)


def scenario_from_dict(d: dict) -> Scenario:
    params = _params_from_dict(_require(d, "channel", "scenario"))
    _reject_unknown(d, _SCENARIO_KEYS, "scenario")
    raw_sensors = _require(d, "sensors", "scenario")
    if not isinstance(raw_sensors, list):
        raise ScenarioParseError("field 'sensors' in scenario must be a list")
    ids, xy, bits = [], [], []
    for i, entry in enumerate(raw_sensors):
        ctx = f"sensors[{i}]"
        ids.append(_field(entry, "id", ctx, int))
        if not _INT64.min <= ids[-1] <= _INT64.max:
            raise ScenarioParseError(f"field 'id' in {ctx} must fit in int64, "
                                     f"got {ids[-1]!r}")
        xy.append(_xy(entry, "position_m", ctx))
        bits.append(_field(entry, "data_bits", ctx))
        _reject_unknown(entry, _SENSOR_KEYS, ctx)
    return Scenario(
        region_width_m=_field(d, "region_width_m", "scenario"),
        region_height_m=_field(d, "region_height_m", "scenario"),
        bs_position_m=_xy(d, "bs_position_m", "scenario"),
        bs_height_m=_field(d, "bs_height_m", "scenario"),
        sensor_ids=np.array(ids, dtype=np.int64),
        sensor_positions=np.array(xy, dtype=float).reshape(-1, 2),
        sensor_data_bits=np.array(bits, dtype=float),
        params=params,
        n_th=_field(d, "n_th", "scenario", int),
        v_max_mps=_field(d, "v_max_mps", "scenario"),
        d_safe_m=_field(d, "d_safe_m", "scenario"),
        rng_seed=_field(d, "rng_seed", "scenario", int),
    )


def save_scenario(s: Scenario, path: str | Path):
    Path(path).write_text(json.dumps(scenario_to_dict(s), indent=1) + "\n")


def load_json_object(path: str | Path, what: str) -> dict:
    """The JSON object in a UTF-8 file; `what` names the file in errors."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as e:
        raise ScenarioParseError(f"{what} file is not valid UTF-8: {e}") from e
    except json.JSONDecodeError as e:
        raise ScenarioParseError(f"{what} file is not valid JSON: {e}") from e
    if not isinstance(data, dict):
        raise ScenarioParseError(f"{what} file must contain a JSON object")
    return data


def load_scenario(path: str | Path) -> Scenario:
    return scenario_from_dict(load_json_object(path, "scenario"))


def apply_config_overrides(params: ChannelParams, overrides: dict) -> ChannelParams:
    """Override ChannelParams fields from a config mapping.

    Accepts the same keys as the scenario 'channel' section (thresholds in dB);
    unknown keys are rejected by name.
    """
    _reject_unknown(overrides, _CHANNEL_KEYS, "config")
    return replace(params, **{key: _number(value, key, "config")
                              for key, value in overrides.items()})
