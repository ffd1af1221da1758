"""Multi-UAV data collection: planning, feasibility checks, and simulation."""

from .channel import (
    CoverageError,
    CoverageRadii,
    InfeasibleConfigError,
    coverage_radii,
    min_hover_time,
    optimal_bandwidth_shares,
)
from .clustering import ClusterSet, cluster_sensors
from .mission import EvalReport, MissionPlan, evaluate, validate
from .model import (
    ChannelParams,
    InfeasibleError,
    Scenario,
    ScenarioError,
    generate_scenario,
    load_scenario,
    save_scenario,
)
from .partition import Topology, build_topology
from . import baselines, pointmatch

__all__ = [
    "ChannelParams",
    "ClusterSet",
    "CoverageError",
    "CoverageRadii",
    "EvalReport",
    "InfeasibleConfigError",
    "InfeasibleError",
    "MissionPlan",
    "Scenario",
    "ScenarioError",
    "Topology",
    "baselines",
    "build_topology",
    "cluster_sensors",
    "coverage_radii",
    "evaluate",
    "generate_scenario",
    "load_scenario",
    "min_hover_time",
    "optimal_bandwidth_shares",
    "pointmatch",
    "save_scenario",
    "validate",
]

__version__ = "0.1.0"
