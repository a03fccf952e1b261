"""Frequency-allocation policies for enforcing a cluster power budget.

Given one telemetry window (per-node average watts + inferred activity)
and a target cluster power, a policy decides every node's next frequency
ceiling.  Two policies bracket the design space:

* :class:`UniformCapPolicy` — the naive operator move and the baseline to
  beat: scale *every* node to the same highest ladder frequency whose
  predicted cluster total fits the target.  Power-fair, performance-blind:
  a compute-bound rank on the critical path is throttled exactly as hard
  as a rank that spends the window waiting for messages.
* :class:`SlackRedistributionPolicy` — slack-aware redistribution in the
  spirit of Medhat et al.'s MPI power redistribution: rank nodes by their
  windowed *compute intensity* (power-inferred, so busy-wait spinning
  doesn't masquerade as computation) and take frequency away from the
  slackest nodes first.  Communication- and memory-bound ranks give up
  headroom they weren't converting into progress; compute-bound ranks
  keep their clocks, so at an equal budget the job finishes sooner.

Both are deterministic: ties in intensity break by node id, and every
allocation is recomputed from the ceiling each window (no hidden state),
so a run is reproducible from its telemetry alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Sequence, Tuple

from repro.hardware.dvfs import DVFSTable, OperatingPoint
from repro.util.records import record

from repro.powercap.actions import GovernorPlan
from repro.powercap.telemetry import NodeWindowSample

__all__ = [
    "CapAllocation",
    "CapPolicy",
    "PlanContext",
    "UniformCapPolicy",
    "SlackRedistributionPolicy",
]

#: predicted node watts for (sample, candidate operating point)
PowerPredictor = Callable[[NodeWindowSample, OperatingPoint], float]


@record
class CapAllocation:
    """One window's decision: node id → frequency (Hz)."""

    frequencies: Dict[int, float]
    predicted_watts: float  #: policy's estimate of the resulting total
    feasible: bool  #: False when even the all-floors allocation predicts
    #: above target (the budget cannot be met on this ladder)


@dataclass
class PlanContext:
    """Everything one window's plan is a function of.

    The governor assembles this once per window from its telemetry and
    gating bookkeeping; tests construct it directly to drive a policy as
    a pure function.  Policies treat it as read-only; it is not frozen
    because a frozen dataclass costs twice as much to build, once per
    control window.
    """

    samples: Tuple[NodeWindowSample, ...]  #: allocatable nodes
    target_watts: float  #: the governor's derated allocation target
    table: DVFSTable
    floor: OperatingPoint
    ceiling: OperatingPoint
    predict: PowerPredictor  #: full-core node power at a ladder point
    base_power: float  #: frequency-independent node watts (for scaling)
    gated_draw_watts: float  #: suspend draw of one gated node
    #: worst-case draw of a just-woken node (fully active at the floor)
    wake_cost_watts: float
    gated: FrozenSet[int] = frozenset()  #: node ids currently gated
    waking: FrozenSet[int] = frozenset()  #: gated ids with boot in flight
    #: node id → current powered-core fraction (missing = 1.0)
    core_allocation: Dict[int, float] = field(default_factory=dict)
    #: node ids the policy must never gate (e.g. one server per tier)
    protected: FrozenSet[int] = frozenset()


class CapPolicy:
    """Interface: map one telemetry window to a frequency allocation."""

    #: short label used in experiment tables ("uniform", "redist")
    name: str = "abstract"

    def plan(self, ctx: PlanContext) -> GovernorPlan:
        """One window's decision: :meth:`allocate` as DVFS ceilings.

        Gated nodes are absent from ``ctx.samples`` but still draw
        suspend power, so the allocation target is net of that reserve.
        """
        target = ctx.target_watts
        if ctx.gated:
            target = target - ctx.gated_draw_watts * len(ctx.gated)
        return GovernorPlan.from_allocation(
            self.allocate(
                ctx.samples, target, ctx.table, ctx.floor, ctx.ceiling,
                ctx.predict,
            )
        )

    def allocate(
        self,
        samples: Sequence[NodeWindowSample],
        target_watts: float,
        table: DVFSTable,
        floor: OperatingPoint,
        ceiling: OperatingPoint,
        predict: PowerPredictor,
    ) -> CapAllocation:  # pragma: no cover - abstract
        raise NotImplementedError


class UniformCapPolicy(CapPolicy):
    """Every node at the same frequency: the PDU-style naive baseline."""

    name = "uniform"

    def allocate(
        self,
        samples: Sequence[NodeWindowSample],
        target_watts: float,
        table: DVFSTable,
        floor: OperatingPoint,
        ceiling: OperatingPoint,
        predict: PowerPredictor,
    ) -> CapAllocation:
        lo = table.index_of(floor.frequency)
        hi = table.index_of(ceiling.frequency)
        # Highest common frequency whose predicted total fits the target.
        for idx in range(hi, lo - 1, -1):
            point = table[idx]
            total = sum(predict(s, point) for s in samples)
            if total <= target_watts:
                return CapAllocation(
                    frequencies={s.node_id: point.frequency for s in samples},
                    predicted_watts=total,
                    feasible=True,
                )
        total = sum(predict(s, floor) for s in samples)
        return CapAllocation(
            frequencies={s.node_id: floor.frequency for s in samples},
            predicted_watts=total,
            feasible=False,
        )


class SlackRedistributionPolicy(CapPolicy):
    """Take frequency from slack-heavy nodes first, keep compute fast.

    Greedy descent: start every node at the ceiling, then repeatedly step
    down (one ladder notch) the node whose step frees the most watts per
    unit of predicted critical-path stretch, until the predicted cluster
    total fits the target.  Slack-heavy nodes' steps are near-free, so
    compute headroom concentrates on the nodes converting it into
    progress — the redistribution that Medhat et al. perform with
    per-node power caps, done here directly in frequency space.  When
    the measured intensities are too uniform to tell anyone apart
    (:attr:`_BALANCE_THRESHOLD`), the policy defers to the uniform
    allocation, which is optimal for a balanced bulk-synchronous job; a
    window with no sample (every node dark) gets the uniform answer too.

    Parameters
    ----------
    intensity_of:
        Maps a sample to its compute intensity in [0, 1] (the governor
        wires in the power-inferred metric from
        :func:`repro.powercap.telemetry.compute_intensity`).
    """

    name = "redist"

    #: guards the cost ratio when a node has zero compute intensity
    #: (pure slack: stepping it down is free, so its score is huge)
    _EPSILON_PENALTY = 1e-6

    #: intensity at which a node counts as compute-saturated.  A 100 %
    #: busy node's intensity is *censored* at 1.0 — the telemetry cannot
    #: see the backlog queued behind the window — so "the measured work
    #: still fits at this frequency" is meaningless for it: any notch
    #: down stretches its critical path proportionally.
    _SATURATION = 0.95

    #: intensity spread (max − min across nodes) below which the cluster
    #: counts as *balanced* and redistribution defers to the uniform
    #: allocation.  With nothing to redistribute, equal frequencies are
    #: optimal for a bulk-synchronous job (the slowest node sets the
    #: pace), and the telemetry cannot split a small α gap between
    #: memory stalls (critical-path, non-absorbing) and busy-wait spin
    #: (pure slack) — both draw ≈0.4–0.45 of full power.
    _BALANCE_THRESHOLD = 0.1

    def __init__(
        self, intensity_of: Callable[[NodeWindowSample], float] | None = None
    ):
        self._intensity_of = intensity_of

    def allocate(
        self,
        samples: Sequence[NodeWindowSample],
        target_watts: float,
        table: DVFSTable,
        floor: OperatingPoint,
        ceiling: OperatingPoint,
        predict: PowerPredictor,
    ) -> CapAllocation:
        if self._intensity_of is None:
            raise RuntimeError(
                "SlackRedistributionPolicy needs an intensity metric; "
                "the CapGovernor wires one in automatically"
            )
        by_id = {s.node_id: s for s in samples}
        intensity = {nid: self._intensity_of(s) for nid, s in by_id.items()}
        if (
            not intensity
            or max(intensity.values()) - min(intensity.values())
            < self._BALANCE_THRESHOLD
        ):
            # Nothing to tell apart (or no node to allocate at all).
            return UniformCapPolicy().allocate(
                samples, target_watts, table, floor, ceiling, predict
            )
        lo = table.index_of(floor.frequency)
        hi = table.index_of(ceiling.frequency)
        idx = {s.node_id: hi for s in samples}
        watts = {s.node_id: predict(s, table[hi]) for s in samples}
        total = sum(watts.values())

        def overrun(nid: int, point: OperatingPoint) -> float:
            """Predicted fraction by which the node overshoots the barrier.

            ``intensity`` is the share of the sampled window spent on
            frequency-sensitive work at the sampled frequency; at a
            candidate frequency that work stretches by ``f_sampled/f``.
            While the stretched work still fits inside the window
            (ratio ≤ 1) the node is merely converting slack into useful
            time and the critical path is untouched.
            """
            ratio = intensity[nid] * (by_id[nid].frequency / point.frequency)
            return max(0.0, ratio - 1.0)

        def step_score(nid: int):
            """Watts freed per unit of *critical-path* stretch for a notch.

            Slack-heavy nodes overrun nothing until their slack is used
            up, so their steps are near-free (epsilon penalty) and they
            are stripped first — the redistribution.  Saturated nodes
            (see :attr:`_SATURATION`) pay the full proportional stretch
            for every notch, which grows as a node drops further, so
            reductions spread across nodes instead of piling onto one:
            on a balanced workload the policy degenerates to (roughly)
            the uniform allocation instead of underbidding it.
            """
            cur, nxt = table[idx[nid]], table[idx[nid] - 1]
            freed = watts[nid] - predict(by_id[nid], nxt)
            if intensity[nid] >= self._SATURATION:
                penalty = cur.frequency / nxt.frequency - 1.0
            else:
                penalty = overrun(nid, nxt) - overrun(nid, cur)
            return freed / (penalty + self._EPSILON_PENALTY)

        while total > target_watts:
            candidates = [nid for nid in idx if idx[nid] > lo]
            if not candidates:  # everyone is at the floor already
                return CapAllocation(
                    frequencies={
                        nid: table[i].frequency for nid, i in idx.items()
                    },
                    predicted_watts=total,
                    feasible=False,
                )
            # Best watts-per-slowdown first; node id breaks ties so the
            # allocation is deterministic.
            best = max(candidates, key=lambda nid: (step_score(nid), -nid))
            idx[best] -= 1
            new_watts = predict(by_id[best], table[idx[best]])
            total += new_watts - watts[best]
            watts[best] = new_watts
        return CapAllocation(
            frequencies={nid: table[i].frequency for nid, i in idx.items()},
            predicted_watts=total,
            feasible=True,
        )
