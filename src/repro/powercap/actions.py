"""The governor's action taxonomy: what a control window may decide.

The original governor had exactly one verb — *set this node's frequency
ceiling* — hard-wired into :class:`~repro.powercap.governor.CapGovernor`
as direct :class:`~repro.dvs.capped.CappedCpuFreq` calls.  Krzywda et
al. (PAPERS.md) show that under a power budget the winning knob flips
with load and budget depth: sometimes DVFS, sometimes core allocation,
sometimes switching whole nodes off.  This module is the frozen
vocabulary that lets one control loop speak all three:

* :class:`SetFreqCeiling` — the DVFS knob (the paper's own);
* :class:`GateNode` / :class:`WakeNode` — the horizontal knob: an
  orderly drain/wake built on the crash/rejoin machinery of
  :mod:`repro.faults` (a gated node idles at platform suspend power and
  wakes with a boot-latency penalty);
* :class:`SetCoreAllocation` — the vertical knob: scale the share of a
  node's cores that stay powered, rescaling both ``run_cycles``
  throughput and the CPU's dynamic power.

A :class:`GovernorPlan` is one window's decision: an ordered tuple of
actions plus the policy's power prediction.  Plans are *data* —
emitting one performs nothing; the governor routes each action to the
matching :mod:`~repro.powercap.actuators` entry.  A
:class:`~repro.powercap.policy.CapPolicy` plans by lowering its
frequency allocation to a pure-DVFS plan with
:meth:`GovernorPlan.from_allocation`, which is bit-identical to the
pre-refactor direct-call path (asserted in
``tests/powercap/test_bit_identity.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Tuple, Union

if TYPE_CHECKING:
    from repro.powercap.policy import CapAllocation

__all__ = [
    "Action",
    "GateNode",
    "GovernorPlan",
    "SetCoreAllocation",
    "SetFreqCeiling",
    "WakeNode",
]


@dataclass(frozen=True)
class SetFreqCeiling:
    """Move one node's frequency ceiling (and drive the clock to it).

    ``drive_down=False`` is the ordinary allocation move: lower ceilings
    clamp immediately (the ceiling setter forces the switch), higher
    ones are claimed with an explicit daemon-context speed-up so plain
    capped runs (no inner controller) use the new headroom at once.
    ``drive_down=True`` is the containment move used on rejoin/reboot:
    force the *actual* clock down to the ceiling even when the bookkept
    ceiling did not change (a rebooted node comes up at full clock).
    """

    node_id: int
    frequency: float  #: ceiling in Hz (a legal ladder point)
    drive_down: bool = False


@dataclass(frozen=True)
class GateNode:
    """Power-gate one node: orderly drain to platform suspend power.

    The gated node stops executing (in-flight work parks, exactly as
    under a :class:`~repro.faults.spec.NodeCrash`) but, unlike a crash,
    keeps drawing the platform's suspend power
    (:attr:`~repro.hardware.power.NodePowerModel.gated_power`) — wake
    state must be retained.  The node reports no telemetry while gated.
    """

    node_id: int


@dataclass(frozen=True)
class WakeNode:
    """Wake a gated node after the actuator's boot-latency penalty.

    ``boot_frequency`` is the clock the node comes up at; ``None``
    means the ladder's floor (the governor's containment default — a
    woken node must not blow the budget in its first window).
    """

    node_id: int
    boot_frequency: Optional[float] = None


@dataclass(frozen=True)
class SetCoreAllocation:
    """Set the powered-core fraction of one node (the vertical knob).

    ``fraction`` ∈ (0, 1]: both ``run_cycles`` throughput and the CPU's
    dynamic power scale by it.  1.0 is the exact no-op (all cores
    powered — the float identity ``f × 1.0 == f`` keeps full-core runs
    bit-identical to pre-refactor trajectories).
    """

    node_id: int
    fraction: float


#: Everything a plan may contain — the frozen action vocabulary.
Action = Union[SetFreqCeiling, GateNode, WakeNode, SetCoreAllocation]


@dataclass(frozen=True)
class GovernorPlan:
    """One control window's decision: ordered actions + the prediction.

    ``predicted_watts``/``feasible`` carry the policy's estimate for the
    cluster total after the plan applies, exactly as
    :class:`~repro.powercap.policy.CapAllocation` does for the pure-DVFS
    case (``feasible=False`` = the target cannot be met with the knobs
    the policy was allowed to use).
    """

    actions: Tuple[Action, ...]
    predicted_watts: float
    feasible: bool

    @classmethod
    def from_allocation(cls, allocation: "CapAllocation") -> "GovernorPlan":
        """Lower a DVFS allocation to a pure-ceiling plan.

        Actions are emitted in the allocation dict's iteration order, so
        applying the plan performs exactly the operations (in exactly
        the order) the pre-refactor governor performed.
        """
        return cls(
            actions=tuple(
                SetFreqCeiling(node_id, frequency)
                for node_id, frequency in allocation.frequencies.items()
            ),
            predicted_watts=allocation.predicted_watts,
            feasible=allocation.feasible,
        )

    @property
    def frequencies(self) -> Dict[int, float]:
        """node id → ceiling for every DVFS action in the plan."""
        return {
            a.node_id: a.frequency
            for a in self.actions
            if isinstance(a, SetFreqCeiling)
        }

    @property
    def gated_node_ids(self) -> Tuple[int, ...]:
        return tuple(
            a.node_id for a in self.actions if isinstance(a, GateNode)
        )
