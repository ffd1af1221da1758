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


@dataclass(frozen=True)
class SensorNode:
    id: int
    position_m: tuple[float, float]
    data_bits: float

    def __post_init__(self):
        if not self.data_bits > 0:
            raise ScenarioError(f"sensor {self.id}: data_bits must be positive")
        if not math.isfinite(self.data_bits):
            raise ScenarioError(f"sensor {self.id}: data_bits must be finite")


@dataclass(frozen=True)
class Scenario:
    region_width_m: float
    region_height_m: float
    bs_position_m: tuple[float, float]
    bs_height_m: float
    sensors: tuple[SensorNode, ...]
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
        if not self.sensors:
            raise ScenarioError("a scenario needs at least one sensor")
        if self.params.uav_height_m <= self.bs_height_m:
            raise ScenarioError("UAV altitude must exceed BS height")
        seen = set()
        for s in self.sensors:
            if s.id in seen:
                raise ScenarioError(f"duplicate sensor id {s.id}")
            seen.add(s.id)
            x, y = s.position_m
            if not (0 <= x <= self.region_width_m and 0 <= y <= self.region_height_m):
                raise ScenarioError(f"sensor {s.id} lies outside the region")

    @property
    def n_sensors(self) -> int:
        return len(self.sensors)

    @cached_property
    def sensor_positions(self) -> np.ndarray:
        """(N, 2) array of sensor coordinates, row order = sensors order."""
        return np.array([s.position_m for s in self.sensors], dtype=float)

    @cached_property
    def sensor_data_bits(self) -> np.ndarray:
        return np.array([s.data_bits for s in self.sensors], dtype=float)

    @cached_property
    def bs_xy(self) -> np.ndarray:
        return np.array(self.bs_position_m, dtype=float)


def generate_scenario(width_m: float, height_m: float, n_sensors: int,
                      data_bits: float = DEFAULT_DATA_BITS,
                      params: ChannelParams | None = None,
                      seed: int = 0, *,
                      n_th: int = 60, v_max_mps: float = 30.0,
                      d_safe_m: float = 30.0, bs_height_m: float = 20.0) -> Scenario:
    """Uniform sensor field over [0,w]x[0,h] with the BS at the origin corner."""
    if not (isinstance(n_sensors, numbers.Integral) and n_sensors >= 1):
        raise ScenarioError(f"n_sensors must be a positive integer, got {n_sensors!r}")
    params = params or ChannelParams()
    rng = np.random.default_rng(seed)
    xy = rng.uniform(0.0, 1.0, size=(n_sensors, 2)) * [width_m, height_m]
    sensors = tuple(
        SensorNode(id=i, position_m=(float(x), float(y)), data_bits=float(data_bits))
        for i, (x, y) in enumerate(xy)
    )
    return Scenario(
        region_width_m=float(width_m), region_height_m=float(height_m),
        bs_position_m=(0.0, 0.0), bs_height_m=float(bs_height_m),
        sensors=sensors, params=params, n_th=int(n_th),
        v_max_mps=float(v_max_mps), d_safe_m=float(d_safe_m), rng_seed=int(seed),
    )


def _require(mapping: dict, key: str, context: str):
    if not isinstance(mapping, dict):
        raise ScenarioParseError(f"{context} must be a JSON object")
    if key not in mapping:
        raise ScenarioParseError(f"missing field '{key}' in {context}")
    return mapping[key]


def _number(value, key: str, context: str, kind=float):
    """`kind(value)`, or a ScenarioParseError naming the field.

    An int field rejects a fractional value instead of truncating it.
    """
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ScenarioParseError(f"field '{key}' in {context} must be an integer, "
                                 f"got {value!r}")
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ScenarioParseError(f"field '{key}' in {context} must be a number, "
                                 f"got {value!r}") from None


def _field(mapping: dict, key: str, context: str, kind=float):
    return _number(_require(mapping, key, context), key, context, kind)


def _params_from_dict(d: dict) -> ChannelParams:
    return ChannelParams(**{f.name: _field(d, f.name, "channel")
                            for f in fields(ChannelParams)})


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
            {"id": n.id, "position_m": list(n.position_m), "data_bits": n.data_bits}
            for n in s.sensors
        ],
    }


def _xy(mapping: dict, key: str, context: str) -> tuple[float, float]:
    pos = _require(mapping, key, context)
    if not (isinstance(pos, (list, tuple)) and len(pos) == 2):
        raise ScenarioParseError(f"field '{key}' in {context} must be [x, y]")
    return _number(pos[0], key, context), _number(pos[1], key, context)


def scenario_from_dict(d: dict) -> Scenario:
    params = _params_from_dict(_require(d, "channel", "scenario"))
    raw_sensors = _require(d, "sensors", "scenario")
    if not isinstance(raw_sensors, list):
        raise ScenarioParseError("field 'sensors' in scenario must be a list")
    sensors = []
    for i, entry in enumerate(raw_sensors):
        ctx = f"sensors[{i}]"
        sensors.append(SensorNode(
            id=_field(entry, "id", ctx, int),
            position_m=_xy(entry, "position_m", ctx),
            data_bits=_field(entry, "data_bits", ctx),
        ))
    return Scenario(
        region_width_m=_field(d, "region_width_m", "scenario"),
        region_height_m=_field(d, "region_height_m", "scenario"),
        bs_position_m=_xy(d, "bs_position_m", "scenario"),
        bs_height_m=_field(d, "bs_height_m", "scenario"),
        sensors=tuple(sensors),
        params=params,
        n_th=_field(d, "n_th", "scenario", int),
        v_max_mps=_field(d, "v_max_mps", "scenario"),
        d_safe_m=_field(d, "d_safe_m", "scenario"),
        rng_seed=_field(d, "rng_seed", "scenario", int),
    )


def save_scenario(s: Scenario, path: str | Path):
    Path(path).write_text(json.dumps(scenario_to_dict(s), indent=1) + "\n")


def load_scenario(path: str | Path) -> Scenario:
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as e:
        raise ScenarioParseError(f"scenario file is not valid JSON: {e}") from e
    if not isinstance(data, dict):
        raise ScenarioParseError("scenario file must contain a JSON object")
    return scenario_from_dict(data)


def apply_config_overrides(params: ChannelParams, overrides: dict) -> ChannelParams:
    """Override ChannelParams fields from a config mapping.

    Accepts the same keys as the scenario 'channel' section (thresholds in dB);
    unknown keys are rejected by name.
    """
    names = {f.name for f in fields(params)}
    changes = {}
    for key, value in overrides.items():
        if key not in names:
            raise ScenarioParseError(f"unknown field '{key}' in config")
        changes[key] = _number(value, key, "config")
    return replace(params, **changes)
