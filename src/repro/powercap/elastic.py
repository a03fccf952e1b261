"""The elastic multi-knob policy: choose DVFS, cores, or node gating.

Krzywda et al. (PAPERS.md) measured that under a power budget the
winning knob flips with load and budget depth: shallow cuts are best
served by DVFS (smooth, fast, no capacity loss); deeper cuts by core
allocation (dynamic power falls with the powered-core share while the
platform stays up); and cuts below the cluster's all-floors draw can
*only* be met by switching whole nodes to suspend power — the DVFS
ladder bottoms out at ``n × (base + floor)`` watts and no frequency
choice goes lower.

:class:`ElasticPolicy` encodes that escalation as a deterministic
per-window procedure over the same telemetry the DVFS allocators see:

1. **DVFS first** — delegate to the ``inner``
   :class:`~repro.powercap.policy.CapPolicy` (slack redistribution by
   default) against the target minus the known draw of already-gated
   nodes.  When the inner allocation is feasible, the plan is pure DVFS
   — with every knob at its neutral position this degenerates *exactly*
   (bit-for-bit) to the inner policy, the property the hypothesis
   suite pins.
2. **Then cores** — while infeasible, step the powered-core fraction of
   the slackest node down one notch (:attr:`ElasticPolicy.CORE_STEPS`)
   and re-allocate; dynamic CPU power scales with the fraction, so each
   notch buys watts the ladder alone cannot.
3. **Then gate** — still infeasible, power-gate the slackest
   non-protected node (at most one per window: an orderly drain, not a
   panic).  Its draw drops to the platform's suspend power and its
   budget share redistributes to the survivors.
4. **Recovery** — once feasible with hysteresis headroom
   (``wake_fraction``), restore in reverse order: cores step back up
   first, then gated nodes wake (at the ladder floor, after the
   actuator's boot latency).

Every choice breaks ties by node id, and the policy holds no hidden
state beyond what the governor already tracks — a window's plan is a
pure function of its :class:`PlanContext`.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.hardware.dvfs import OperatingPoint

from repro.powercap.actions import (
    Action,
    GateNode,
    GovernorPlan,
    SetCoreAllocation,
    SetFreqCeiling,
    WakeNode,
)
from repro.powercap.policy import (
    CapAllocation,
    CapPolicy,
    PlanContext,
    SlackRedistributionPolicy,
)
from repro.powercap.telemetry import NodeWindowSample

__all__ = ["ELASTIC_KNOBS", "ElasticPolicy", "PlanContext"]

#: The knobs an :class:`ElasticPolicy` may be allowed to use, in the
#: escalation order the policy applies them.
ELASTIC_KNOBS = ("dvfs", "cores", "gate")


class ElasticPolicy:
    """Multi-knob allocation: DVFS → core allocation → node gating.

    Parameters
    ----------
    knobs:
        Subset of :data:`ELASTIC_KNOBS` the policy may use.  ``"dvfs"``
        is always required — the other knobs refine it.  A pure
        ``("dvfs",)`` policy degenerates bit-exactly to ``inner``.
    inner:
        The DVFS allocator (default
        :class:`~repro.powercap.policy.SlackRedistributionPolicy`).
    wake_fraction:
        Hysteresis: restore a knob (core step up, node wake) only while
        the predicted total *including* the restore cost stays under
        ``wake_fraction × target`` — prevents gate/wake flapping at the
        budget boundary.
    boot_frequency:
        Clock a woken node comes back at (``None`` = the ladder floor).
    """

    name = "elastic"

    #: powered-core fractions the vertical knob walks, full first
    CORE_STEPS: Tuple[float, ...] = (1.0, 0.75, 0.5, 0.25)

    def __init__(
        self,
        knobs: Sequence[str] = ELASTIC_KNOBS,
        inner: Optional[CapPolicy] = None,
        wake_fraction: float = 0.7,
        boot_frequency: Optional[float] = None,
    ):
        self.knobs = tuple(knobs)
        unknown = [k for k in self.knobs if k not in ELASTIC_KNOBS]
        if unknown:
            raise ValueError(
                f"unknown knobs {unknown}; pick from {ELASTIC_KNOBS}"
            )
        if "dvfs" not in self.knobs:
            raise ValueError("the 'dvfs' knob is required (it is the base)")
        if not 0.0 < wake_fraction <= 1.0:
            raise ValueError(
                f"wake_fraction must be in (0, 1], got {wake_fraction}"
            )
        self.inner = inner if inner is not None else SlackRedistributionPolicy()
        self.wake_fraction = wake_fraction
        self.boot_frequency = boot_frequency
        #: set before planning by the embedding layer (e.g. the serving
        #: policy protects one node per tier); frozen during a window
        self.protected: FrozenSet[int] = frozenset()

    # ------------------------------------------------------------------
    def plan(self, ctx: PlanContext) -> GovernorPlan:
        """One window's decision (deterministic, stateless)."""
        samples: List[NodeWindowSample] = list(ctx.samples)
        intensity = ctx.intensity
        planned_cores: Dict[int, float] = {
            s.node_id: ctx.core_allocation.get(s.node_id, 1.0)
            for s in samples
        }
        reserve = ctx.gated_draw_watts * len(ctx.gated)
        actions: List[Action] = []
        gate_action: Optional[GateNode] = None
        wake_action: Optional[WakeNode] = None

        def scaled_predict(
            sample: NodeWindowSample, point: OperatingPoint
        ) -> float:
            # Dynamic CPU power scales with the powered-core share; the
            # platform base does not.  The 1.0 guard keeps the all-cores
            # case bit-identical to the raw predictor (``base + (w −
            # base)`` is *not* a float identity).
            fraction = planned_cores.get(sample.node_id, 1.0)
            watts = ctx.predict(sample, point)
            if fraction == 1.0:
                return watts
            return ctx.base_power + fraction * (watts - ctx.base_power)

        def allocate() -> CapAllocation:
            target = ctx.target_watts
            if reserve:
                target = target - reserve
            if not samples:
                return CapAllocation(
                    frequencies={},
                    predicted_watts=0.0,
                    feasible=reserve <= ctx.target_watts,
                )
            return self.inner.allocate(
                samples,
                target,
                ctx.table,
                ctx.floor,
                ctx.ceiling,
                scaled_predict,
                intensity,
            )

        allocation = allocate()

        # --- escalate: vertical knob (core allocation) ----------------
        if not allocation.feasible and "cores" in self.knobs:
            steps = list(self.CORE_STEPS)
            for _ in range(len(samples) * max(len(steps) - 1, 0)):
                shrinkable = [
                    s
                    for s in samples
                    if planned_cores[s.node_id] > steps[-1]
                ]
                if not shrinkable:
                    break
                victim = min(
                    shrinkable,
                    key=lambda s: (intensity(s), s.node_id),
                )
                current = planned_cores[victim.node_id]
                below = [f for f in steps if f < current]
                planned_cores[victim.node_id] = max(below)
                allocation = allocate()
                if allocation.feasible:
                    break

        # --- escalate: horizontal knob (gate one node per window) -----
        if not allocation.feasible and "gate" in self.knobs:
            gateable = [
                s for s in samples if s.node_id not in ctx.protected
            ]
            if gateable and len(samples) > 1:
                victim = min(
                    gateable,
                    key=lambda s: (intensity(s), s.node_id),
                )
                gate_action = GateNode(node_id=victim.node_id)
                planned_cores.pop(victim.node_id, None)
                samples = [s for s in samples if s is not victim]
                reserve += ctx.gated_draw_watts
                allocation = allocate()

        predicted_total = allocation.predicted_watts + reserve
        feasible = allocation.feasible and predicted_total <= ctx.target_watts
        if not allocation.feasible:
            feasible = False

        # --- recover: restore knobs under the hysteresis margin -------
        margin = self.wake_fraction * ctx.target_watts
        if feasible and gate_action is None:
            shrunk = sorted(
                nid for nid, f in planned_cores.items() if f < 1.0
            )
            woken_candidates = sorted(ctx.gated - ctx.waking)
            if shrunk:
                nid = shrunk[0]
                current = planned_cores[nid]
                above = [f for f in self.CORE_STEPS if f > current]
                restored = min(above)
                # Worst-case cost of the restored share: the extra
                # fraction fully active at the node's allocated point.
                extra = (restored - current) * (
                    ctx.wake_cost_watts - ctx.base_power
                )
                if predicted_total + extra <= margin:
                    planned_cores[nid] = restored
                    allocation = allocate()
                    predicted_total = allocation.predicted_watts + reserve
                    feasible = (
                        allocation.feasible
                        and predicted_total <= ctx.target_watts
                    )
            elif woken_candidates and "gate" in self.knobs:
                cost = ctx.wake_cost_watts - ctx.gated_draw_watts
                if predicted_total + cost <= margin:
                    wake_action = WakeNode(
                        node_id=woken_candidates[0],
                        boot_frequency=self.boot_frequency,
                    )

        # --- assemble the plan (cores, gate, ceilings, wake) ----------
        for nid in sorted(planned_cores):
            if planned_cores[nid] != ctx.core_allocation.get(nid, 1.0):
                actions.append(
                    SetCoreAllocation(node_id=nid, fraction=planned_cores[nid])
                )
        if gate_action is not None:
            actions.append(gate_action)
        for node_id, frequency in allocation.frequencies.items():
            actions.append(
                SetFreqCeiling(node_id=node_id, frequency=frequency)
            )
        if wake_action is not None:
            actions.append(wake_action)
        return GovernorPlan(
            actions=tuple(actions),
            predicted_watts=predicted_total,
            feasible=feasible,
        )
