"""Cluster assembly: nodes + interconnect against one engine.

:meth:`Cluster.from_spec` is the main entry point used by experiments,
examples, and the SPMD launcher: given a declarative
:class:`~repro.hardware.spec.ClusterSpec` it creates the engine, one
twin node per group (per-group DVFS ladders and power models — the
default spec reproduces the paper's homogeneous 16-laptop cluster, a
multi-group spec a heterogeneous machine) from which the nodes are
materialised on first touch, and the Ethernet fabric, and wires NIC
activity into node power timelines.
"""

from __future__ import annotations

import bisect
import functools
import weakref
from typing import Callable, Dict, List, Optional, Tuple

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
    """A DVS-capable Beowulf cluster (homogeneous or mixed-generation).

    Nodes are materialised on first touch.  Until then a hidden *twin*
    node stands for a run of a group's untouched nodes: a group-level
    operation (a strategy's initial speed, a governor's poll, the
    closing :meth:`finalize`) is applied to each of :meth:`members`, so
    it reaches the twin once on behalf of all of them.  :meth:`node`
    materialises a node by cloning its twin at that instant.  The twin
    has received exactly the operations the node would have, so the
    clone holds the node's exact state.  A twin's run is a contiguous
    range of ids, so :meth:`members` is in node-id order and a twin's
    trace records come out where the nodes' own would; materialising a
    node in the middle of a run splits the run between two twins.
    """

    def __init__(
        self,
        engine: Engine,
        twins: List[Node],
        fabric: NetworkFabric,
        calibration: Calibration,
        trace: TraceRecorder,
    ):
        self.engine = engine
        self.fabric = fabric
        self.calibration = calibration
        self.trace = trace
        #: the first group's ladder
        self.table: DVFSTable = twins[0].table
        self.n_nodes: int = twins[-1].stands_for.stop
        self._slots: List[Optional[Node]] = [None] * self.n_nodes
        #: materialised nodes, ascending id
        self._touched: List[Node] = []
        #: twins standing for the untouched nodes, ascending first id
        self._twins: List[Node] = twins
        self._listeners: List[MaterialiseListener] = []
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

        twins: List[Node] = []
        first = 0
        for group in spec.groups:
            ladder = group.ladder()
            group_cal = scaled_calibration(cal, group.tech, group.core)
            twin = Node(
                eng,
                node_id=first,
                table=ladder,
                power_model=group_cal.node_power_model(ladder),
                memory=group_cal.memory,
                spin_block_threshold=group_cal.spin_block_threshold,
                trace=tracer,
                spin_counts_busy=group_cal.procstat_spin_is_busy,
                cycles_per_work=group.core.cycles_per_work,
            )
            twin.stands_for = range(first, first + group.count)
            twins.append(twin)
            first += group.count
        fabric = NetworkFabric(
            eng,
            first,
            spec.network if spec.network is not None else cal.network,
        )
        cluster = cls(eng, twins, fabric, cal, tracer)
        fabric.add_activity_listener(_nic_listener(fabric, cluster))
        return cluster

    # ------------------------------------------------------------------
    # nodes and twins
    # ------------------------------------------------------------------
    def node(self, node_id: int) -> Node:
        """Node ``node_id``, materialised from its twin on first touch."""
        node = self._slots[node_id]
        if node is None:
            node = self._materialise(node_id)
        return node

    @functools.cached_property
    def nodes(self) -> List[Node]:
        """Every node in id order (materialises the untouched ones, so
        later reads are one attribute read)."""
        while self._twins:
            self._materialise(self._twins[0].node_id)
        return self._slots  # type: ignore[return-value]

    @property
    def touched_nodes(self) -> Tuple[int, ...]:
        """Ids of the materialised nodes, ascending."""
        return tuple(node.node_id for node in self._touched)

    def members(self) -> List[Node]:
        """The materialised nodes and the twins, in node-id order.

        Applying a group-level operation to each member applies it to
        every node exactly once.
        """
        if not self._twins:
            return list(self._touched)
        return sorted(self._touched + self._twins, key=_first_id)

    def is_twin(self, member: Node) -> bool:
        """Whether ``member`` stands for untouched nodes (not a node)."""
        return self._slots[member.node_id] is not member

    def on_materialise(self, listener: "MaterialiseListener") -> None:
        """Call ``listener(node, twin, successors)`` whenever a node is
        cloned from ``twin``; ``successors`` are the twins that now stand
        for the rest of that twin's run (the twin itself and a split-off
        twin, either, or none)."""
        self._listeners.append(listener)

    def _materialise(self, node_id: int) -> Node:
        if not 0 <= node_id < self.n_nodes:
            raise IndexError(f"node {node_id} out of range [0, {self.n_nodes})")
        index = bisect.bisect_right(self._twins, node_id, key=_first_id) - 1
        twin = self._twins[index]
        run = twin.stands_for
        node = twin.clone(node_id)
        pieces = [
            piece
            for piece in (range(run.start, node_id), range(node_id + 1, run.stop))
            if piece
        ]
        successors = [twin][: len(pieces)]
        if len(pieces) == 2:
            successors.append(twin.clone(pieces[1].start))
        for successor, piece in zip(successors, pieces):
            successor.node_id, successor.stands_for = piece.start, piece
        self._twins[index : index + 1] = successors
        self._slots[node_id] = node
        bisect.insort(self._touched, node, key=_first_id)
        self._series_cache = None
        for listener in self._listeners:
            listener(node, twin, successors)
        return node

    # ------------------------------------------------------------------
    def finalize(self) -> None:
        """Close all nodes' accounting at the end of a run."""
        for member in self.members():
            member.finalize()

    def series(self) -> ClusterSeries:
        """The frozen per-node + merged columnar views of every timeline.

        Cached against every member's timeline mutation counter, so
        repeated aggregate queries between power changes reuse one
        kernel build (the merged total itself materialises lazily on the
        first cluster-total query).  Every untouched node maps to its
        twin's frozen series, and materialised nodes with identical
        traces share one frozen series.
        """
        members = self.members()
        versions = tuple(member.timeline.version for member in members)
        cached = self._series_cache
        if cached is not None and cached[0] == versions:
            return cached[1]
        views = shared_series(member.timeline for member in members)
        series = ClusterSeries(
            {
                node_id: view
                for member, view in zip(members, views)
                for node_id in member.stands_for
            }
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


#: ``(node, twin, successors)`` callback of :meth:`Cluster.on_materialise`
MaterialiseListener = Callable[[Node, Node, List[Node]], None]


def _first_id(node: Node) -> int:
    return node.node_id


def _nic_listener(fabric: NetworkFabric, cluster: Cluster):
    """Closure translating fabric activity flips into node NIC power.

    It holds the cluster weakly: the cluster owns the fabric, and a
    cycle back would keep a finished run's cluster alive until the next
    garbage collection.
    """
    cluster_ref = weakref.ref(cluster)

    def listener(node_id: int) -> None:
        cluster = cluster_ref()
        if cluster is None:
            return  # an abandoned transfer closing after its run ended
        cluster.node(node_id).set_nic_active(fabric.traffic_active(node_id))

    return listener
