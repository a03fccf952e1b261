"""Cluster assembly: nodes + interconnect against one engine.

:meth:`Cluster.from_spec` is the main entry point used by experiments,
examples, and the SPMD launcher: given a declarative
:class:`~repro.hardware.spec.ClusterSpec` it creates the engine, the
nodes (per-group DVFS ladders and power models — the default spec
reproduces the paper's homogeneous 16-laptop cluster, a multi-group
spec a heterogeneous machine) and the Ethernet fabric, and wires NIC
activity into node power timelines.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.hardware.calibration import Calibration, DEFAULT_CALIBRATION
from repro.hardware.dvfs import DVFSTable
from repro.hardware.network import NetworkFabric
from repro.hardware.node import Node
from repro.hardware.scaling import scaled_calibration
from repro.hardware.series import ClusterSeries
from repro.hardware.spec import ClusterSpec
from repro.hardware.timeline import shared_series
from repro.sim.engine import Engine
from repro.sim.trace import NullRecorder, TraceRecorder

__all__ = ["Cluster"]

#: Builds the engine of a cluster made without one; a module-level name
#: so ``perfbench/layers.py`` can wrap it to read each run's engine stats.
make_engine = Engine


class Cluster:
    """A DVS-capable Beowulf cluster (homogeneous or mixed-generation)."""

    def __init__(
        self,
        engine: Engine,
        nodes: List[Node],
        fabric: NetworkFabric,
        calibration: Calibration,
        trace: TraceRecorder,
    ):
        self.engine = engine
        self.nodes = nodes
        self.fabric = fabric
        self.calibration = calibration
        self.trace = trace
        self._series_cache: Optional[Tuple[Tuple[int, ...], ClusterSeries]] = None

    # ------------------------------------------------------------------
    @classmethod
    def from_spec(
        cls,
        spec: ClusterSpec,
        *,
        calibration: Optional[Calibration] = None,
        trace: Optional[TraceRecorder] = None,
        engine: Optional[Engine] = None,
    ) -> "Cluster":
        """Construct the cluster a :class:`ClusterSpec` describes.

        Each node group gets its own ladder and power model (the base
        calibration ported to the group's technology generation and core
        kind); node ids run sequentially across the groups in
        declaration order.  ``calibration`` is the *base platform*
        calibration that per-group scaling starts from; ``spec.network``
        overrides its fabric config when set.
        """
        cal = calibration or DEFAULT_CALIBRATION
        eng = engine if engine is not None else make_engine()
        tracer = trace if trace is not None else NullRecorder()

        nodes: List[Node] = []
        for group in spec.groups:
            ladder = group.ladder()
            group_cal = scaled_calibration(cal, group.tech, group.core)
            power_model = group_cal.node_power_model(ladder)
            for _ in range(group.count):
                nodes.append(
                    Node(
                        eng,
                        node_id=len(nodes),
                        table=ladder,
                        power_model=power_model,
                        memory=group_cal.memory,
                        spin_block_threshold=group_cal.spin_block_threshold,
                        trace=tracer,
                        spin_counts_busy=group_cal.procstat_spin_is_busy,
                        cycles_per_work=group.core.cycles_per_work,
                    )
                )
        fabric = NetworkFabric(
            eng,
            len(nodes),
            spec.network if spec.network is not None else cal.network,
        )
        fabric.add_activity_listener(_nic_listener(fabric, nodes))
        return cls(eng, nodes, fabric, cal, tracer)

    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def table(self) -> DVFSTable:
        return self.nodes[0].table

    def finalize(self) -> None:
        """Close all nodes' accounting at the end of a run."""
        for node in self.nodes:
            node.finalize()

    def series(self) -> ClusterSeries:
        """The frozen per-node + merged columnar views of every timeline.

        Cached against every node timeline's mutation counter, so
        repeated aggregate queries between power changes reuse one
        kernel build (the merged total itself materialises lazily on the
        first cluster-total query).  Nodes with identical traces — the
        idle nodes of one group — share one frozen series.
        """
        versions = tuple(node.timeline.version for node in self.nodes)
        cached = self._series_cache
        if cached is not None and cached[0] == versions:
            return cached[1]
        views = shared_series(node.timeline for node in self.nodes)
        series = ClusterSeries(
            {node.node_id: view for node, view in zip(self.nodes, views)}
        )
        self._series_cache = (versions, series)
        return series

    def total_energy(self, t0: float, t1: float) -> float:
        """Exact total cluster energy (joules) over ``[t0, t1]``."""
        return self.series().total_energy(t0, t1)

    # ------------------------------------------------------------------
    # windowed power accounting (the cap governor's measurement substrate)
    # ------------------------------------------------------------------
    def average_power(self, t0: float, t1: float) -> float:
        """Average cluster power (watts) over ``[t0, t1]``."""
        return self.series().average_power(t0, t1)

    def node_average_powers(self, t0: float, t1: float) -> Dict[int, float]:
        """Per-node average power (watts) over ``[t0, t1]``."""
        return self.series().node_average_powers(t0, t1)

    def power_at(self, time: float) -> float:
        """Instantaneous cluster power (watts) at ``time``."""
        return self.series().power_at(time)

    def peak_power(self, t0: float, t1: float) -> float:
        """Maximum instantaneous *cluster* power (watts) over ``[t0, t1]``.

        The cluster trace is the sum of per-node piecewise-constant
        traces, so its maximum lives on the merged series — one kernel
        query instead of evaluating the sum at every candidate instant.
        """
        return self.series().peak_power(t0, t1)


def _nic_listener(fabric: NetworkFabric, nodes: List[Node]):
    """Closure translating fabric activity flips into node NIC power."""

    def listener(node_id: int) -> None:
        nodes[node_id].set_nic_active(fabric.traffic_active(node_id))

    return listener
