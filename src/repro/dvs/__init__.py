"""DVS control substrate: CPUFreq interface, cpuspeed daemon emulation,
and the paper's three distributed DVS strategies (cpuspeed / static /
dynamic application-directed control)."""

from repro.dvs.capped import CappedCpuFreq
from repro.dvs.adaptive import AdaptiveConfig, AdaptiveController, AdaptiveStrategy
from repro.dvs.controller import DvsController, DynamicController, NullController
from repro.dvs.cpufreq import CpuFreq
from repro.dvs.cpuspeed import (
    CpuspeedConfig,
    CpuspeedDaemon,
    NodeGovernor,
    start_poll_clock,
)
from repro.dvs.ondemand import OndemandConfig, OndemandGovernor, OndemandStrategy
from repro.dvs.policy import cpuspeed_decision, proportional_decision
from repro.dvs.strategy import (
    CpuspeedStrategy,
    DVSStrategy,
    DynamicStrategy,
    GovernorStrategy,
    StaticStrategy,
)

__all__ = [
    "CpuFreq",
    "CappedCpuFreq",
    "CpuspeedConfig",
    "CpuspeedDaemon",
    "NodeGovernor",
    "start_poll_clock",
    "DvsController",
    "NullController",
    "DynamicController",
    "DVSStrategy",
    "GovernorStrategy",
    "StaticStrategy",
    "CpuspeedStrategy",
    "DynamicStrategy",
    "OndemandConfig",
    "OndemandGovernor",
    "OndemandStrategy",
    "AdaptiveConfig",
    "AdaptiveController",
    "AdaptiveStrategy",
    "cpuspeed_decision",
    "proportional_decision",
]
