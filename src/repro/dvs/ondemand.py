"""An ondemand-style governor (extension beyond the paper).

Linux 2.6.9 (late 2004 — contemporary with the paper) introduced the
``ondemand`` governor: pick the slowest frequency whose capacity covers
recent utilisation, re-evaluated on a fast timer.  The paper argues that
*any* utilisation-driven policy is blind to MPI busy-waiting; this
governor lets experiments test that claim against a second policy
(:func:`repro.dvs.policy.proportional_decision`) rather than only
cpuspeed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dvs.cpuspeed import NodeGovernor
from repro.dvs.policy import proportional_decision
from repro.dvs.strategy import GovernorStrategy
from repro.util.validation import check_positive

__all__ = ["OndemandConfig", "OndemandGovernor", "OndemandStrategy"]


@dataclass(frozen=True)
class OndemandConfig:
    """Governor tuning (defaults mirror early ondemand)."""

    interval: float = 0.1  #: sampling period (much faster than cpuspeed)
    headroom: float = 1.25  #: capacity margin over observed utilisation

    def __post_init__(self) -> None:
        check_positive("interval", self.interval)
        check_positive("headroom", self.headroom)


class OndemandGovernor(NodeGovernor):
    """Per-node ondemand instance."""

    Config = OndemandConfig

    def poll(self, now: float) -> None:
        util = self.utilization()
        ladder = self.node.table.frequencies
        # ondemand's "headroom" means: required capacity is the busy
        # share of the *current* frequency, scaled up.
        busy_capacity = util * self.node.cpu.frequency / ladder[-1]
        target = proportional_decision(
            min(1.0, busy_capacity), ladder, headroom=self.config.headroom
        )
        if target != self.node.cpu.frequency:
            self.cpufreq.set_speed_now(target)
        self.decisions.append((now, util, target))


class OndemandStrategy(GovernorStrategy):
    """Cluster-wide ondemand governors (one per node)."""

    kind = "ondemand"
    Governor = OndemandGovernor
