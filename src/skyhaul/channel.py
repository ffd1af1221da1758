"""Air-to-ground propagation, link budgets, coverage radii, hover times.

Distances passed in are horizontal (ground-projected); altitude differences
enter through the slant range inside the path-loss model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .model import ChannelParams, InfeasibleError, db_to_linear

_BISECT_REL_TOL = 1e-9
_BISECT_MAX_ITER = 200
COVERAGE_TOL_M = 1e-6


class InfeasibleConfigError(InfeasibleError):
    """No geometry can satisfy the requested link threshold."""


class CoverageError(InfeasibleError, ValueError):
    """A sensor lies outside the serving UAV's coverage disk."""


def los_probability(r, height_m: float, params: ChannelParams):
    """Probability of a line-of-sight link at horizontal distance r.

    Sigmoid in the elevation angle (degrees); r may be a scalar or array.
    """
    if height_m <= 0:
        raise ValueError("height_m must be positive")
    r = np.asarray(r, dtype=float)
    elev_deg = np.degrees(np.arctan2(height_m, r))
    p = 1.0 / (1.0 + params.a * np.exp(-params.b * (elev_deg - params.a)))
    return p if p.ndim else float(p)


def path_loss(r, height_m: float, params: ChannelParams):
    """Expected channel gain: LoS/NLoS mix times beta0 * slant_range^-alpha."""
    r = np.asarray(r, dtype=float)
    p = np.asarray(los_probability(r, height_m, params))
    d = np.hypot(height_m, r)
    g = (p + (1.0 - p) * params.kappa) * params.beta0 * d ** (-params.alpha)
    return g if g.ndim else float(g)


def snr_g2u(r, params: ChannelParams):
    """Uplink SNR from a ground sensor to a hovering UAV."""
    g = np.asarray(path_loss(r, params.uav_height_m, params))
    s = params.p_sensor_w * g / params.noise_w
    return s if s.ndim else float(s)


def snr_u2b(r, params: ChannelParams, bs_height_m: float):
    """UAV-to-base-station SNR; the height gap is UAV altitude minus BS height."""
    h = params.uav_height_m - bs_height_m
    if h <= 0:
        raise InfeasibleConfigError("UAV altitude must exceed BS height")
    g = np.asarray(path_loss(r, h, params))
    s = params.p_uav_w * g / params.noise_w
    return s if s.ndim else float(s)


@dataclass(frozen=True)
class CoverageRadii:
    r_g2u_m: float   # sensor-to-UAV coverage radius
    r_u2u_m: float   # inter-UAV link range
    r_u2b_m: float   # UAV-to-BS link range


def _invert_monotone(fn, threshold: float, what: str) -> float:
    """Largest r with fn(r) >= threshold, for fn decreasing in r. Bisection."""
    if fn(0.0) < threshold:
        raise InfeasibleConfigError(f"{what} threshold unattainable even at zero range")
    lo, hi = 0.0, 1000.0
    while fn(hi) >= threshold:
        lo, hi = hi, hi * 2.0
        if hi > 1e12:
            raise InfeasibleConfigError(f"{what} threshold met at unbounded range")
    for _ in range(_BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if fn(mid) >= threshold:
            lo = mid
        else:
            hi = mid
        if hi - lo <= _BISECT_REL_TOL * max(1.0, lo):
            break
    return 0.5 * (lo + hi)


@lru_cache(maxsize=64)
def coverage_radii(params: ChannelParams, bs_height_m: float) -> CoverageRadii:
    """Link ranges implied by the three SNR thresholds."""
    r_u2u = math.sqrt(params.p_uav_w * params.beta0 /
                      (params.noise_w * db_to_linear(params.snr_th_u2u_db)))
    r_u2b = _invert_monotone(lambda r: snr_u2b(r, params, bs_height_m),
                             db_to_linear(params.snr_th_u2b_db), "BS backhaul")
    return CoverageRadii(r_g2u_m=_g2u_radius(params), r_u2u_m=r_u2u, r_u2b_m=r_u2b)


def upload_rate_g2u(r, params: ChannelParams):
    """Full-band uplink rate (bit/s) at horizontal distance r."""
    s = np.asarray(snr_g2u(r, params))
    rate = params.bandwidth_hz * np.log2(1.0 + s)
    return rate if rate.ndim else float(rate)


def _check_coverage(dists: np.ndarray, params: ChannelParams):
    r_max = _g2u_radius(params)
    worst = int(np.argmax(dists))
    if dists[worst] > r_max + COVERAGE_TOL_M:
        raise CoverageError(
            f"member {worst} at {dists[worst]:.1f} m exceeds coverage radius "
            f"{r_max:.1f} m")


@lru_cache(maxsize=64)
def _g2u_radius(params: ChannelParams) -> float:
    return _invert_monotone(lambda r: snr_g2u(r, params),
                            db_to_linear(params.snr_th_g2u_db),
                            "sensor uplink")


def upload_times(positions, data_bits, cps, params: ChannelParams) -> np.ndarray:
    """Each member's full-band upload time to a UAV hovering over its CP.

    `cps` is one CP for all members or one per member. The times are
    elementwise, so a member's time does not depend on the others passed
    with it: one call over a whole field equals one call per cluster.
    """
    positions = np.asarray(positions, dtype=float).reshape(-1, 2)
    dists = np.hypot(*(positions - np.asarray(cps, dtype=float)).T)
    data = np.asarray(data_bits, dtype=float).reshape(-1)
    if data.shape != dists.shape:
        raise ValueError("data_bits and positions lengths differ")
    _check_coverage(dists, params)
    return data / upload_rate_g2u(dists, params)


def optimal_bandwidth_shares(positions, data_bits, cp, params: ChannelParams) -> np.ndarray:
    """FDMA bandwidth split that makes every member finish its upload together.

    Shares are proportional to each member's full-band upload time; the common
    finish time then equals the minimal hover time of the group.
    """
    t = upload_times(positions, data_bits, cp, params)
    return t / t.sum()


def min_hover_time(positions, data_bits, cp, params: ChannelParams) -> float:
    """Minimal hover time to drain all members under the optimal split."""
    return float(upload_times(positions, data_bits, cp, params).sum())
