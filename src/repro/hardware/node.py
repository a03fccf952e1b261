"""A cluster node: CPU + memory + NIC + power accounting.

The node is the unit the paper measures (one laptop, one battery, one
Baytech outlet).  It wires the CPU's activity changes and the fabric's NIC
activity into a ground-truth :class:`~repro.hardware.timeline.PowerTimeline`
that the emulated instruments sample.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.hardware.cpu import SimCPU
from repro.hardware.dvfs import DVFSTable
from repro.hardware.memory import MemoryHierarchy
from repro.hardware.power import NodePowerModel, _row_watts
from repro.hardware.procstat import ProcStat
from repro.hardware.timeline import PowerTimeline
from repro.sim.engine import Engine
from repro.util.copying import shallow_copy

__all__ = ["Node", "NodeFaultState"]


class NodeFaultState:
    """Mutable sensor-fault switches the injector flips on a live node.

    Kept at the hardware layer so the telemetry sampler can consult it
    without knowing anything about :mod:`repro.faults`.  Both fields
    model *measurement* faults — the node itself keeps running:

    ``telemetry_dark``
        The node's monitoring agent is down; the cluster sampler reports
        no window sample for it (a crashed node is additionally dark
        because its agent died with it — see ``Node.telemetry_visible``).
    ``power_noise``
        Optional ``(true_watts, now) -> observed_watts`` transform
        applied to the node's reported window average (meter noise /
        outlier spikes).  ``None`` means the meter reads true.

    Setting a switch moves the owning node's change stamp.
    """

    def __init__(self, node: Optional["Node"] = None) -> None:
        self.telemetry_dark: bool = False
        self.power_noise: Optional[Callable[[float, float], float]] = None
        self._node = node  # last, so that setting up moves no stamp

    def __setattr__(self, name: str, value: object) -> None:
        object.__setattr__(self, name, value)
        node = self.__dict__.get("_node")
        if node is not None and name != "_node":
            node.stamp += 1


class Node:
    """One simulated laptop of the Beowulf cluster."""

    def __init__(
        self,
        engine: Engine,
        node_id: int,
        table: DVFSTable,
        power_model: NodePowerModel,
        memory: MemoryHierarchy,
        spin_block_threshold: float = 0.005,
        spin_counts_busy: bool = True,
        cycles_per_work: float = 1.0,
    ):
        self.engine = engine
        self.node_id = node_id
        #: the ids whose state this node carries: its own, or a cluster
        #: twin's run of untouched ids
        self.stands_for: Sequence[int] = (node_id,)
        if power_model.cpu.table.points != table.points:
            raise ValueError("the power model is built on another DVFS ladder")
        self.table = table
        self.power_model = power_model
        #: the power model's watts per ladder position (see CpuPowerModel.rows)
        self._rows = power_model.cpu.rows
        self.memory = memory

        self.procstat = ProcStat(spin_counts_busy=spin_counts_busy)
        self.cpu = SimCPU(
            engine,
            table,
            procstat=self.procstat,
            on_change=self._update_power,
            spin_block_threshold=spin_block_threshold,
            cycles_per_work=cycles_per_work,
        )
        self._nic_active = False
        #: change stamp: moves whenever anything telemetry reads of the
        #: node may have changed (every power write, every fault switch)
        self.stamp = 0
        self.faults = NodeFaultState(self)
        cpu = self.cpu
        self.timeline = PowerTimeline(
            engine.now,
            power_model.power(
                cpu.operating_point, cpu.state, cpu.utilization, False, cpu.floor
            ),
        )

    # ------------------------------------------------------------------
    @property
    def nic_active(self) -> bool:
        return self._nic_active

    def set_nic_active(self, active: bool) -> None:
        """Fabric callback: the node's tx/rx activity flipped."""
        if active == self._nic_active:
            return
        self._nic_active = active
        self._update_power()

    @property
    def telemetry_visible(self) -> bool:
        """Whether the node's monitoring agent is reporting samples."""
        return self.cpu.powered and not self.faults.telemetry_dark

    def _update_power(self) -> None:
        """Write the node's draw now to its timeline.  Runs after every
        CPU flip, so it reads the CPU's validated fields directly."""
        self.stamp += 1
        cpu = self.cpu
        model = self.power_model
        if cpu._powered:
            watts = _row_watts(
                model.base_power,
                self._rows[cpu._index],
                cpu._state,
                cpu._utilization,
                cpu._floor,
                cpu._core_scale,
                model.nic_active_power if self._nic_active else 0.0,
            )
        elif cpu._suspended:
            # An orderly power-gate keeps the platform's wake state alive.
            watts = model.gated_power
        else:
            watts = 0.0  # a crash draws nothing at all
        self.timeline._set_power(self.engine._now, watts)

    def finalize(self) -> None:
        """Close open accounting segments at the end of a run."""
        self.cpu.finalize()

    def clone(self, node_id: int) -> "Node":
        """A node in this node's exact state, as ``node_id``.

        The clone shares the models (ladder, power model, memory) and
        copies the mutable state: the CPU's point, state, segment start
        and counters, the ``/proc/stat`` totals, the power timeline and
        the fault switches.
        """
        node = shallow_copy(self)
        node.node_id = node_id
        node.stands_for = (node_id,)
        node.procstat = shallow_copy(self.procstat)
        node.cpu = self.cpu.clone(node.procstat, node._update_power)
        node.faults = shallow_copy(self.faults)
        node.faults._node = node
        node.timeline = self.timeline.copy()
        return node

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Node {self.node_id} f={self.cpu.frequency / 1e6:.0f}MHz>"
