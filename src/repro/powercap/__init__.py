"""Cluster power-budget scheduling (extension beyond the paper).

The paper optimises weighted ED²P per application; this subsystem solves
the complementary cluster-operator problem — *keep this rack under N
watts while losing as little performance as possible* — by closing a
periodic control loop over the whole stack: per-node power telemetry
(timelines + ``/proc/stat``), slack inference through the calibrated
power model, and per-node frequency redistribution through cap-clamped
CPUFreq setters.  See Medhat et al., *Power Redistribution for
Optimizing Performance in MPI Clusters*, and Krzywda et al.,
*Power-Performance Tradeoffs in Data Center Servers* (PAPERS.md).

Layers: :mod:`~repro.powercap.budget` (the spec),
:mod:`~repro.powercap.telemetry` (windowed sampling + prediction),
:mod:`~repro.powercap.policy` (uniform baseline vs slack-aware
redistribution), :mod:`~repro.powercap.actions` /
:mod:`~repro.powercap.actuators` (the typed action plans and the hands
that execute them), :mod:`~repro.powercap.elastic` (the multi-knob
policy: DVFS + core allocation + node gating),
:mod:`~repro.powercap.governor` (the control loop), and
:mod:`~repro.powercap.strategy` (composition with the paper's DVS
strategies and the measurement pipeline).
"""

from repro.powercap.actions import (
    GateNode,
    GovernorPlan,
    SetCoreAllocation,
    SetFreqCeiling,
    WakeNode,
)
from repro.powercap.actuators import (
    Actuator,
    CoreAllocationActuator,
    DvfsActuator,
    NodeGateActuator,
    default_actuators,
    dispatch_plan,
)
from repro.powercap.budget import PowerBudget
from repro.powercap.elastic import ELASTIC_KNOBS, ElasticPolicy
from repro.powercap.governor import CapGovernor, CapGovernorConfig
from repro.powercap.monitor import InvariantMonitor
from repro.powercap.resilience import ResilienceConfig
from repro.powercap.policy import (
    PlanContext,
    SlackRedistributionPolicy,
    UniformCapPolicy,
)
from repro.powercap.strategy import PowerCapStrategy
from repro.powercap.telemetry import (
    ClusterTelemetry,
    NodeWindowSample,
    compute_intensity,
    infer_busy_alpha,
    predict_node_power,
)

__all__ = [
    "Actuator",
    "CoreAllocationActuator",
    "DvfsActuator",
    "ELASTIC_KNOBS",
    "ElasticPolicy",
    "GateNode",
    "GovernorPlan",
    "NodeGateActuator",
    "PlanContext",
    "SetCoreAllocation",
    "SetFreqCeiling",
    "WakeNode",
    "default_actuators",
    "dispatch_plan",
    "PowerBudget",
    "CapGovernor",
    "CapGovernorConfig",
    "InvariantMonitor",
    "ResilienceConfig",
    "UniformCapPolicy",
    "SlackRedistributionPolicy",
    "PowerCapStrategy",
    "ClusterTelemetry",
    "NodeWindowSample",
    "compute_intensity",
    "infer_busy_alpha",
    "predict_node_power",
]
