"""Actuators: the hands of the governor's control plane.

An :class:`Actuator` executes one kind of
:mod:`~repro.powercap.actions` against live hardware.  The governor
never touches :class:`~repro.dvs.capped.CappedCpuFreq` (or node power
switches, or core gates) directly any more — it emits a
:class:`~repro.powercap.actions.GovernorPlan` and routes each action to
the actuator registered for its type.  Splitting decision from
execution is what lets one control loop drive three knobs:

* :class:`DvfsActuator` — frequency ceilings.  Its ``apply`` performs
  *exactly* the operations (in exactly the order) the pre-refactor
  governor inlined, so DVFS-only control trajectories are bit-identical
  (``tests/powercap/test_bit_identity.py``).
* :class:`NodeGateActuator` — orderly drain/wake built on the
  crash/rejoin machinery of :mod:`repro.hardware.cpu`: gating suspends
  the node at platform suspend power; waking pays a boot-latency
  penalty before the node rejoins at the requested (default: floor)
  clock.
* :class:`CoreAllocationActuator` — powered-core fractions.

``default_actuators`` builds the set every
:class:`~repro.powercap.governor.CapGovernor` routes its plans through.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Protocol, Tuple, Type, runtime_checkable

from repro.dvs.capped import CappedCpuFreq
from repro.hardware.activity import CpuActivity
from repro.hardware.cluster import Cluster

from repro.powercap.actions import (
    Action,
    GateNode,
    GovernorPlan,
    SetCoreAllocation,
    SetFreqCeiling,
    WakeNode,
)

__all__ = [
    "Actuator",
    "CoreAllocationActuator",
    "DvfsActuator",
    "NodeGateActuator",
    "default_actuators",
    "dispatch_plan",
]


@runtime_checkable
class Actuator(Protocol):
    """Structural type: executes the action kinds it declares.

    ``kinds`` lists the action classes this actuator owns; ``apply``
    executes one instance of any of them.  Actuators run in governor
    (daemon) context — ordinary Python calls, never inside a simulated
    process of the node they actuate.
    """

    @property
    def kinds(self) -> Tuple[Type, ...]: ...

    def apply(self, action: Action) -> None: ...


class DvfsActuator:
    """Frequency-ceiling execution through :class:`CappedCpuFreq`.

    ``pending_target`` is the governor's believed-applied bookkeeping
    dict (shared by reference): the hardened control path checks next
    window's telemetry against it to catch stuck regulators, so the
    actuator must record every ceiling it installs there.
    """

    kinds = (SetFreqCeiling,)

    def __init__(
        self,
        cpufreqs: Dict[int, CappedCpuFreq],
        pending_target: Dict[int, float],
    ):
        self.cpufreqs = cpufreqs
        self.pending_target = pending_target

    def apply(self, action: SetFreqCeiling) -> None:
        cpufreq = self.cpufreqs[action.node_id]
        frequency = action.frequency
        if (
            frequency == cpufreq.ceiling
            and not action.drive_down
            and cpufreq.current_frequency >= frequency
        ):
            # The ceiling in place, already reached: set_ceiling would
            # no-op and nothing below would switch the clock.
            self.pending_target[action.node_id] = frequency
            return
        cpufreq.set_ceiling(frequency)
        if action.drive_down:
            # Containment (rejoin/reboot): force the actual clock down
            # even when the bookkept ceiling did not change —
            # set_ceiling alone no-ops in that case.
            if cpufreq.current_frequency > frequency:
                cpufreq.set_speed_now(frequency)
        else:
            # For plain capped runs there is no inner controller to
            # claim new headroom, so the governor drives the frequency
            # to the ceiling itself; an inner controller's next request
            # simply re-resolves against the new ceiling.
            if cpufreq.current_frequency < frequency:
                cpufreq.set_speed_now(frequency)
        self.pending_target[action.node_id] = frequency


class NodeGateActuator:
    """Orderly node drain/wake (the horizontal knob).

    Gating is a *drain*, not a plug-pull: an idle node suspends on the
    spot; a busy one is marked draining and suspends the moment its CPU
    next returns to idle (hooked on the CPU's accounting callback, so
    in-flight service completes instead of parking behind the gate —
    which would otherwise strand the request until a wake that a tight
    budget may never grant).  Either way the node ends at platform
    suspend power.  Waking spawns a boot process: after
    ``wake_latency_s`` of continued suspend draw the node powers on at
    the requested clock resolved on the node's own ladder (default: its
    floor — the governor's containment default); a wake issued while a
    drain is still pending simply cancels the drain.  ``waking`` tracks nodes whose boot is
    still in flight and ``draining`` nodes whose suspend is, so
    policies and the governor's gating books don't double-act on them.
    """

    kinds = (GateNode, WakeNode)

    def __init__(self, cluster: Cluster, wake_latency_s: float = 0.5):
        if wake_latency_s < 0:
            raise ValueError(
                f"wake_latency_s must be >= 0, got {wake_latency_s}"
            )
        self.cluster = cluster
        self.wake_latency_s = wake_latency_s
        #: node ids with a wake in flight (boot latency not yet elapsed)
        self.waking: set = set()
        #: node ids gated while busy, suspending at their next idle
        self.draining: set = set()
        self._drain_hooks: Dict[int, object] = {}
        #: (time, node_id, "gate" | "drain" | "wake" | "booted") audit log
        self.log: List[Tuple[float, int, str]] = []

    def apply(self, action: Action) -> None:
        if isinstance(action, GateNode):
            self._gate(action.node_id)
        else:
            assert isinstance(action, WakeNode)
            self._wake(action.node_id, action.boot_frequency)

    def _gate(self, node_id: int) -> None:
        node = self.cluster.nodes[node_id]
        if not node.cpu.powered or node_id in self.draining:
            return
        node.cpu.enable_power_gating()
        if node.cpu.state == CpuActivity.IDLE:
            node.cpu.suspend()
            self.log.append((self.cluster.engine.now, node_id, "gate"))
            return
        # Busy: drain.  Wrap the CPU's accounting callback so the
        # suspend fires from the state change that returns it to idle.
        self.draining.add(node_id)
        self.log.append((self.cluster.engine.now, node_id, "drain"))
        original = node.cpu._on_change

        def hook() -> None:
            original()
            if node.cpu.powered and node.cpu.state == CpuActivity.IDLE:
                self._cancel_drain(node_id)
                node.cpu.suspend()
                self.log.append((self.cluster.engine.now, node_id, "gate"))

        self._drain_hooks[node_id] = original
        node.cpu._on_change = hook

    def _cancel_drain(self, node_id: int) -> None:
        original = self._drain_hooks.pop(node_id, None)
        if original is not None:
            self.cluster.nodes[node_id].cpu._on_change = original
        self.draining.discard(node_id)

    def _wake(self, node_id: int, boot_frequency: Optional[float]) -> None:
        node = self.cluster.nodes[node_id]
        if node_id in self.draining:
            # Drain still pending: the node never actually suspended, so
            # waking it is just cancelling the drain.
            self._cancel_drain(node_id)
            self.log.append((self.cluster.engine.now, node_id, "wake"))
            return
        if node.cpu.powered or node_id in self.waking:
            return
        point = node.table.closest(
            boot_frequency
            if boot_frequency is not None
            else node.table.slowest.frequency
        )
        self.waking.add(node_id)
        self.log.append((self.cluster.engine.now, node_id, "wake"))
        engine = self.cluster.engine

        def boot():
            if self.wake_latency_s > 0:
                yield engine.timeout(self.wake_latency_s)
            node.cpu.power_on(boot_point=point)
            self.waking.discard(node_id)
            self.log.append((engine.now, node_id, "booted"))

        engine.process(boot(), name=f"wake-node{node_id}")


class CoreAllocationActuator:
    """Powered-core fraction execution (the vertical knob)."""

    kinds = (SetCoreAllocation,)

    def __init__(self, cluster: Cluster):
        self.cluster = cluster
        #: (time, node_id, fraction) audit log of applied reallocations
        self.log: List[Tuple[float, int, float]] = []

    def apply(self, action: SetCoreAllocation) -> None:
        self.cluster.nodes[action.node_id].cpu.set_core_allocation(
            action.fraction
        )
        self.log.append(
            (self.cluster.engine.now, action.node_id, action.fraction)
        )


def default_actuators(
    cluster: Cluster,
    cpufreqs: Dict[int, CappedCpuFreq],
    pending_target: Dict[int, float],
) -> Tuple[DvfsActuator, NodeGateActuator, CoreAllocationActuator]:
    """The standard actuator set: DVFS + node gating + core allocation."""
    return (
        DvfsActuator(cpufreqs, pending_target),
        NodeGateActuator(cluster),
        CoreAllocationActuator(cluster),
    )


def dispatch_plan(
    plan: GovernorPlan, routes: Dict[Type, Actuator]
) -> None:
    """Apply a plan's actions in order through the routing table."""
    for action in plan.actions:
        actuator = routes.get(type(action))
        if actuator is None:
            raise TypeError(
                f"no actuator registered for {type(action).__name__}; "
                f"routes cover {sorted(k.__name__ for k in routes)}"
            )
        actuator.apply(action)
