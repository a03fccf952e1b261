"""DVS control substrate: CPUFreq interface, cpuspeed daemon emulation,
and the paper's three distributed DVS strategies (cpuspeed / static /
dynamic application-directed control)."""

from repro.dvs.adaptive import AdaptiveStrategy
from repro.dvs.controller import DynamicController, NullController
from repro.dvs.cpuspeed import NodeGovernor
from repro.dvs.ondemand import OndemandStrategy
from repro.dvs.strategy import (
    CpuspeedStrategy,
    DynamicStrategy,
    GovernorStrategy,
    StaticStrategy,
)

__all__ = [
    "NodeGovernor",
    "NullController",
    "DynamicController",
    "GovernorStrategy",
    "StaticStrategy",
    "CpuspeedStrategy",
    "DynamicStrategy",
    "OndemandStrategy",
    "AdaptiveStrategy",
]
