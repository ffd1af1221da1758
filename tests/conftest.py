"""Shared fixtures plus the acceptance-criteria terminal summary."""

from __future__ import annotations

import pytest

from skyhaul.channel import coverage_radii
from skyhaul.cli import prepare
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


@pytest.fixture(scope="session")
def default_params():
    return ChannelParams()


@pytest.fixture(scope="session")
def default_radii(default_params):
    return coverage_radii(default_params, 20.0)
