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
from repro.hardware.node import Node

__all__ = [
    "DVSStrategy",
    "GovernorStrategy",
    "StaticStrategy",
    "CpuspeedStrategy",
    "DynamicStrategy",
]


class DVSStrategy:
    """Base class: how the cluster's frequencies are managed for one run.

    A strategy applies its group-level settings to each of the cluster's
    :meth:`~repro.hardware.cluster.Cluster.members`, so a twin standing
    for a group's untouched nodes is configured once for all of them.
    """

    #: short label used in figures ("cpuspeed", "stat", "dyn")
    kind: str = "abstract"

    def __init__(self) -> None:
        self._cluster: Optional[Cluster] = None
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

    def _member_cpufreq(self, member: Node) -> CpuFreq:
        """A cluster member's interface: a node's is kept for its rank,
        a twin's is made for the caller."""
        if self._cluster.is_twin(member):
            return self._make_cpufreq(member, self._cluster.calibration)
        return self.cpufreq_for(member.node_id)

    def prepare(self, cluster: Cluster) -> None:
        """Set initial frequencies / start daemons before the job."""
        self._cluster = cluster
        self._cpufreqs = {}

    def teardown(self, cluster: Cluster) -> None:
        """Stop anything started in :meth:`prepare`."""

    def controller(self, comm) -> DvsController:
        """Per-rank controller handed to the workload program."""
        return NullController()

    def cpufreq_for(self, rank: int) -> CpuFreq:
        """Rank ``rank``'s node interface, made on first request."""
        cpufreq = self._cpufreqs.get(rank)
        if cpufreq is None:
            cluster = self._cluster
            cpufreq = self._make_cpufreq(cluster.node(rank), cluster.calibration)
            self._cpufreqs[rank] = cpufreq
        return cpufreq


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
        for member in cluster.members():
            self._member_cpufreq(member).set_speed_now(self.frequency)


class GovernorStrategy(DVSStrategy):
    """One ``Governor`` (a :class:`NodeGovernor` subclass) per node, all
    polled by one clock.  Nodes start at the ladder's maximum (the
    governors' boot state).

    A twin's governor polls once for all the untouched nodes it stands
    for.  When one of them is materialised, the twin's governor is
    cloned (:meth:`NodeGovernor.clone`) into node order for it, so
    :attr:`governors` reads as one governor per node.
    """

    def __init__(self, config=None):
        super().__init__()
        self.config = config or self.Governor.Config()
        #: the clock's governors: one per member, in node-id order
        self._polled: List[NodeGovernor] = []
        self._governor_of: Dict[Node, NodeGovernor] = {}

    @property
    def governors(self) -> List[NodeGovernor]:
        """One governor per node, in node order (materialises them all)."""
        if self._cluster is None:
            return []
        return [self._governor_of[node] for node in self._cluster.nodes]

    def prepare(self, cluster: Cluster) -> None:
        super().prepare(cluster)
        polled: List[NodeGovernor] = []
        governor_of: Dict[Node, NodeGovernor] = {}
        for member in cluster.members():
            cpufreq = self._member_cpufreq(member)
            cpufreq.set_speed_now(member.table.fastest.frequency)
            governor_of[member] = self.Governor(member, cpufreq, self.config)
            polled.append(governor_of[member])

        def adopt(node: Node, twin: Node, successors: List[Node]) -> None:
            source = governor_of.pop(twin)
            members = sorted([node, *successors], key=lambda m: m.node_id)
            for member in members:
                governor_of[member] = (
                    source
                    if member is twin
                    else source.clone(member, self._member_cpufreq(member))
                )
            at = polled.index(source)
            polled[at : at + 1] = [governor_of[member] for member in members]

        cluster.on_materialise(adopt)
        self._polled, self._governor_of = polled, governor_of
        start_poll_clock(cluster.engine, self.config.interval, polled, self.kind)

    def teardown(self, cluster: Cluster) -> None:
        for governor in self._polled:
            governor.stop()


class CpuspeedStrategy(GovernorStrategy):
    """Per-node cpuspeed daemons (paper: *cpuspeed*)."""

    kind = "cpuspeed"
    Governor = CpuspeedDaemon


class DynamicStrategy(DVSStrategy):
    """Application-directed scaling in marked regions (paper: *dyn*).

    ``base_frequency`` runs outside regions (the x-axis of Figs 4-5);
    ``low_frequency`` (default: each node's own ladder minimum) runs
    inside them.
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
        self.controllers = []
        for member in cluster.members():
            self._member_cpufreq(member).set_speed_now(self.base_frequency)

    def controller(self, comm) -> DvsController:
        cpufreq = self.cpufreq_for(comm.rank)
        low = self.low_frequency
        if low is None:
            low = cpufreq.node.table.slowest.frequency
        ctl = DynamicController(cpufreq, low, regions=self.regions)
        self.controllers.append(ctl)
        return ctl
