"""Power capping as a DVS strategy, composable with the paper's three.

:class:`PowerCapStrategy` plugs the cap governor into the existing
``prepare → run_spmd → teardown`` protocol, so every measurement helper
(:func:`repro.analysis.runner.run_measured`, crescendos, benchmarks)
works on capped runs unchanged.

Composition: an optional ``inner`` strategy (static, dynamic, adaptive,
cpuspeed) runs *under* the cap.  The trick is the
:meth:`~repro.dvs.strategy.DVSStrategy._make_cpufreq` factory hook — the
inner strategy is made to build its controllers and daemons against the
governor's :class:`~repro.dvs.capped.CappedCpuFreq` instances, so every
frequency request it ever issues resolves against the governor's
per-node ceilings.  Application-directed scaling keeps working inside
the budget; the budget wins when they conflict.
"""

from __future__ import annotations

from typing import Optional

from repro.dvs.controller import DvsController
from repro.dvs.strategy import DVSStrategy
from repro.hardware.cluster import Cluster

from repro.powercap.budget import PowerBudget
from repro.powercap.governor import CapGovernor, CapGovernorConfig
from repro.powercap.policy import CapPolicy, SlackRedistributionPolicy
from repro.powercap.resilience import ResilienceConfig

__all__ = ["PowerCapStrategy"]


class PowerCapStrategy(DVSStrategy):
    """Enforce a :class:`PowerBudget` for the duration of one run.

    Examples
    --------
    Cap a run and read the governor's compliance record afterwards::

        from repro.analysis import run_measured
        from repro.powercap import PowerBudget, PowerCapStrategy
        from repro.workloads import NasFT

        capped = PowerCapStrategy(PowerBudget(cluster_watts=130.0))
        run = run_measured(NasFT("S", n_ranks=8, iterations=3), capped)
        governor = capped.governor
        print(governor.achieved_average_watts(), governor.violation_count)

    Compose with the paper's dynamic strategy — application-directed
    scaling keeps working *inside* the budget, and the budget wins when
    they conflict::

        from repro.dvs.strategy import DynamicStrategy
        from repro.util.units import MHZ

        inner = DynamicStrategy(1400 * MHZ, regions=["fft"])
        capped = PowerCapStrategy(
            PowerBudget(cluster_watts=120.0), inner=inner
        )
        run = run_measured(NasFT("S", n_ranks=8, iterations=3), capped)

    Swap the allocation policy to the uniform baseline for an
    ablation-style comparison::

        from repro.powercap import UniformCapPolicy

        uniform = PowerCapStrategy(
            PowerBudget(cluster_watts=120.0), policy=UniformCapPolicy()
        )
    """

    kind = "powercap"

    def __init__(
        self,
        budget: PowerBudget,
        policy: Optional[CapPolicy] = None,
        config: Optional[CapGovernorConfig] = None,
        inner: Optional[DVSStrategy] = None,
        resilience: Optional[ResilienceConfig] = None,
    ):
        super().__init__()
        self.budget = budget
        self.policy = policy or SlackRedistributionPolicy()
        self.config = config
        self.inner = inner
        #: enables the governor's degraded-mode defenses (see
        #: :class:`~repro.powercap.resilience.ResilienceConfig`); ``None``
        #: keeps the fair-weather control loop
        self.resilience = resilience
        self.governor: Optional[CapGovernor] = None

    @property
    def name(self) -> str:
        label = f"cap@{self.budget.cluster_watts:.0f}W/{self.policy.name}"
        if self.resilience is not None:
            label += "+selfheal"
        if self.inner is not None:
            label += f"+{self.inner.name}"
        return label

    # ------------------------------------------------------------------
    def prepare(self, cluster: Cluster) -> None:
        self.governor = CapGovernor(
            cluster,
            self.budget,
            policy=self.policy,
            config=self.config,
            resilience=self.resilience,
        )
        capped = self.governor.cpufreqs
        self._cpufreqs = capped
        if self.inner is not None:
            # Route the inner strategy through the capped setters (per-
            # instance override of the factory hook), then let it run its
            # own prepare: daemons and initial speeds land pre-clamped.
            self.inner._make_cpufreq = (
                lambda node, calibration: capped[node.node_id]
            )
            self.inner.prepare(cluster)
        self.governor.start(cluster.engine)

    def teardown(self, cluster: Cluster) -> None:
        if self.inner is not None:
            self.inner.teardown(cluster)
        if self.governor is not None:
            self.governor.stop()

    def controller(self, comm) -> DvsController:
        if self.inner is not None:
            return self.inner.controller(comm)
        return super().controller(comm)
