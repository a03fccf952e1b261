"""The three distributed DVS strategies studied in the paper (§4).

1. **cpuspeed** — the OS daemon controls each node independently from
   ``/proc/stat`` utilisation;
2. **static** — one cluster-wide frequency for the whole run, set before
   the job starts;
3. **dynamic** — the application itself drops to a low frequency inside
   marked slack regions (``fft()``; the transpose's steps 2-3) and
   restores the base frequency outside them.

A strategy is applied around an SPMD run::

    strategy.prepare(cluster)
    result = run_spmd(cluster, program, program_args=(strategy,))
    strategy.teardown(cluster)

Workload programs receive the strategy and ask it for a per-rank
:class:`~repro.dvs.controller.DvsController` to honour region markers.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.dvs.controller import DvsController, DynamicController, NullController
from repro.dvs.cpufreq import CpuFreq
from repro.dvs.cpuspeed import CpuspeedDaemon, NodeGovernor, start_poll_clock
from repro.hardware.cluster import Cluster

__all__ = [
    "DVSStrategy",
    "GovernorStrategy",
    "StaticStrategy",
    "CpuspeedStrategy",
    "DynamicStrategy",
]


class DVSStrategy:
    """Base class: how the cluster's frequencies are managed for one run."""

    #: short label used in figures ("cpuspeed", "stat", "dyn")
    kind: str = "abstract"

    def __init__(self) -> None:
        self._cpufreqs: Dict[int, CpuFreq] = {}

    @property
    def name(self) -> str:  # pragma: no cover - overridden where it matters
        return self.kind

    # ------------------------------------------------------------------
    def _make_cpufreq(self, node, calibration) -> CpuFreq:
        """Build one node's frequency interface.

        A hook point: the power-cap strategy overrides it (per instance)
        so an inner strategy transparently drives cap-clamped setters —
        see :class:`repro.powercap.strategy.PowerCapStrategy`.
        """
        return CpuFreq(node, calibration)

    def prepare(self, cluster: Cluster) -> None:
        """Set initial frequencies / start daemons before the job."""
        self._cpufreqs = {
            node.node_id: self._make_cpufreq(node, cluster.calibration)
            for node in cluster.nodes
        }

    def teardown(self, cluster: Cluster) -> None:
        """Stop anything started in :meth:`prepare`."""

    def controller(self, comm) -> DvsController:
        """Per-rank controller handed to the workload program."""
        return NullController()

    def cpufreq_for(self, rank: int) -> CpuFreq:
        return self._cpufreqs[rank]


class StaticStrategy(DVSStrategy):
    """Fixed cluster-wide frequency for the whole program (paper: *stat*)."""

    kind = "stat"

    def __init__(self, frequency: float):
        super().__init__()
        self.frequency = frequency

    @property
    def name(self) -> str:
        return f"stat@{self.frequency / 1e6:.0f}MHz"

    def prepare(self, cluster: Cluster) -> None:
        super().prepare(cluster)
        for node in cluster.nodes:
            self._cpufreqs[node.node_id].set_speed_now(self.frequency)


class GovernorStrategy(DVSStrategy):
    """One ``Governor`` (a :class:`NodeGovernor` subclass) per node, all
    polled by one clock.  Nodes start at the ladder's maximum (the
    governors' boot state)."""

    def __init__(self, config=None):
        super().__init__()
        self.config = config or self.Governor.Config()
        self.governors: List[NodeGovernor] = []

    def prepare(self, cluster: Cluster) -> None:
        super().prepare(cluster)
        self.governors = []
        for node in cluster.nodes:
            cpufreq = self._cpufreqs[node.node_id]
            cpufreq.set_speed_now(node.table.fastest.frequency)
            self.governors.append(self.Governor(node, cpufreq, self.config))
        start_poll_clock(
            cluster.engine, self.config.interval, self.governors, self.kind
        )

    def teardown(self, cluster: Cluster) -> None:
        for governor in self.governors:
            governor.stop()


class CpuspeedStrategy(GovernorStrategy):
    """Per-node cpuspeed daemons (paper: *cpuspeed*)."""

    kind = "cpuspeed"
    Governor = CpuspeedDaemon


class DynamicStrategy(DVSStrategy):
    """Application-directed scaling in marked regions (paper: *dyn*).

    ``base_frequency`` runs outside regions (the x-axis of Figs 4-5);
    ``low_frequency`` (default: the ladder minimum) runs inside them.
    """

    kind = "dyn"

    def __init__(
        self,
        base_frequency: float,
        low_frequency: Optional[float] = None,
        regions: Optional[List[str]] = None,
    ):
        super().__init__()
        self.base_frequency = base_frequency
        self.low_frequency = low_frequency
        self.regions = regions
        self.controllers: List[DynamicController] = []

    @property
    def name(self) -> str:
        return f"dyn@{self.base_frequency / 1e6:.0f}MHz"

    def prepare(self, cluster: Cluster) -> None:
        super().prepare(cluster)
        self._low = (
            self.low_frequency
            if self.low_frequency is not None
            else cluster.table.slowest.frequency
        )
        self.controllers = []
        for node in cluster.nodes:
            self._cpufreqs[node.node_id].set_speed_now(self.base_frequency)

    def controller(self, comm) -> DvsController:
        ctl = DynamicController(
            self.cpufreq_for(comm.rank), self._low, regions=self.regions
        )
        self.controllers.append(ctl)
        return ctl
