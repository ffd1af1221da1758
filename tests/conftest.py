"""Shared fixtures plus the acceptance-criteria terminal summary."""

from __future__ import annotations

import numpy as np
import pytest

from skyhaul.channel import CoverageRadii, coverage_radii
from skyhaul.cli import prepare
from skyhaul.mission import DIST_TOL_M, _check_connectivity
from skyhaul.model import ChannelParams, generate_scenario

ACCEPTANCE_LINES: list[str] = []


def record_acceptance(name: str, passed: bool, detail: str):
    """Register one criterion outcome; reprinted after the test session."""
    line = f"{'PASS' if passed else 'FAIL'}  {name}: {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


def build_instance(n_sensors: int, size_m: float, seed: int, params=None):
    """Scenario plus the full preprocessing chain up to the UAV topology."""
    scenario = generate_scenario(size_m, size_m, n_sensors,
                                 params=params, seed=seed)
    return (scenario, *prepare(scenario))


def tour_length(points, order) -> float:
    """Length of the closed tour visiting `points` in `order`."""
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    order = list(order)
    if len(order) < 2:
        return 0.0
    p = points[order]
    return float(np.hypot(*(p - np.roll(p, -1, axis=0)).T).sum())


def legs_connected(a0, a1, b0, b1, r_u2u: float) -> bool:
    """mission's connectivity check on two UAVs flying a0 -> a1 and b0 -> b1
    in step, posed as a two-step plan with an unbounded BS range. The check
    allows DIST_TOL_M beyond the link range; taking it off the range makes
    the rule under test `largest gap <= r_u2u` exactly."""
    w = np.array([[a0, b0], [a1, b1]], dtype=float)
    radii = CoverageRadii(r_g2u_m=0.0, r_u2u_m=r_u2u - DIST_TOL_M,
                          r_u2b_m=np.inf)
    return _check_connectivity(w, np.zeros(2), radii).passed


@pytest.fixture(scope="session")
def default_params():
    return ChannelParams()


@pytest.fixture(scope="session")
def default_radii(default_params):
    return coverage_radii(default_params, 20.0)
