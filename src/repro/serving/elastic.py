"""Elastic serving policy: the multi-knob control plane under an SLO load.

:class:`ElasticServingPolicy` embeds a full
:class:`~repro.powercap.governor.CapGovernor` running an
:class:`~repro.powercap.elastic.ElasticPolicy` inside the serving
``prepare → start → teardown`` protocol.  It is the serving path's
one power-cap controller: every window's cap is planned from the
governor's prediction, not stepped after a window has measured over
budget.  With ``knobs=("dvfs",)`` and ``allocator="uniform"`` it is a
uniform frequency ceiling; with every knob it escalates through the
whole hierarchy: DVFS first, then powered-core fractions, then
whole-node gating — which is what lets it hold budgets *below the DVFS
floor* of the cluster (``n × (base + slowest-rung)`` watts), the regime
the knob-map experiment labels infeasible for every pure-DVFS policy.

One node of every tier is *protected* from gating so the data path
always has a live server per tier; a gated node's server parks without
draining the queue (the runner checks ``cpu.powered`` before dequeue)
and rejoins after the actuator's wake latency.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.hardware.cluster import Cluster
from repro.powercap.budget import PowerBudget
from repro.powercap.elastic import ELASTIC_KNOBS, ElasticPolicy
from repro.powercap.governor import CapGovernor, CapGovernorConfig
from repro.powercap.policy import SlackRedistributionPolicy, UniformCapPolicy
from repro.serving.policy import ServingPolicy
from repro.util.validation import check_in, check_positive

__all__ = ["ELASTIC_ALLOCATORS", "ElasticServingPolicy"]

#: Inner DVFS allocators an elastic serving policy can run.
ELASTIC_ALLOCATORS = ("redist", "uniform")


class ElasticServingPolicy(ServingPolicy):
    """A cluster power budget enforced by the elastic control plane.

    Parameters
    ----------
    budget_watts:
        The cluster cap the embedded governor enforces.
    knobs:
        Which knobs the :class:`~repro.powercap.elastic.ElasticPolicy`
        may use (default: all three).  ``("dvfs",)`` yields the
        pure-DVFS degenerate policy — the apples-to-apples baseline the
        knob-map experiment compares against.
    interval:
        Governor control window in seconds.
    allocator:
        The inner DVFS allocator: ``"redist"`` (slack redistribution,
        default) or ``"uniform"``.

    A gated node pays the gate actuator's boot latency before rejoining
    (:class:`~repro.powercap.actuators.NodeGateActuator`, 0.5 s).
    """

    def __init__(
        self,
        budget_watts: float,
        knobs: Sequence[str] = ELASTIC_KNOBS,
        interval: float = 0.25,
        allocator: str = "redist",
    ):
        check_positive("budget_watts", budget_watts)
        check_positive("interval", interval)
        check_in("allocator", allocator, ELASTIC_ALLOCATORS)
        self.budget_watts = budget_watts
        self.knobs: Tuple[str, ...] = tuple(knobs)
        self.interval = interval
        self.allocator = allocator
        self.governor: Optional[CapGovernor] = None
        label = "elastic"
        if set(self.knobs) != set(ELASTIC_KNOBS):
            label += "[" + "+".join(self.knobs) + "]"
        if allocator != "redist":
            label += f"/{allocator}"
        self.name = f"{label}@{budget_watts:.0f}W"

    def prepare(self, cluster: Cluster, tiers: Sequence) -> None:
        super().prepare(cluster, tiers)
        inner = (
            UniformCapPolicy()
            if self.allocator == "uniform"
            else SlackRedistributionPolicy()
        )
        policy = ElasticPolicy(knobs=self.knobs, inner=inner)
        # Keep one server per tier alive: the first node of each tier
        # may never be gated, so the data path cannot fully stall.
        policy.protected = frozenset(tier.node_ids[0] for tier in tiers)
        self.governor = CapGovernor(
            cluster,
            PowerBudget(cluster_watts=self.budget_watts),
            policy=policy,
            config=CapGovernorConfig(interval=self.interval),
        )

    def start(self, engine) -> None:
        assert self.governor is not None
        self.governor.start(engine)

    def teardown(self) -> None:
        assert self.governor is not None
        self.governor.stop()
