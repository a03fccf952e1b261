"""Chaos-run scoring: budget compliance in the presence of faults.

A faulted run cannot be judged like a fault-free one — a node crash or a
stuck regulator legitimately knocks the control loop off its setpoint
for a bounded moment.  What separates a hardened governor from a naive
one is that its violations are *transient*: every breach clusters within
an allowed recovery latency of some fault transition (activation or
clearance), after which the loop is back inside the budget.

:func:`build_chaos_report` encodes exactly that.  A violating window
``w`` is **excused** iff some fault transition ``τ`` satisfies
``w.t1 > τ and w.t0 < τ + allowed_recovery_s`` — i.e. the window
overlaps the grace interval ``[τ, τ + allowed_recovery_s)``.  Windows
violating outside every grace interval are **post-recovery violations**:
the number the acceptance criteria require to be zero for the hardened
governor and demonstrably non-zero for the fair-weather baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.metrics.ed2p import DELTA_HPC, weighted_ed2p
from repro.metrics.protocol import ReportBase
from repro.powercap.budget import PowerBudget

__all__ = ["ChaosReport", "build_chaos_report"]


@dataclass(frozen=True)
class ChaosReport(ReportBase):
    """Outcome of one run under one budget and one fault plan."""

    label: str  #: e.g. "cap@120W/redist+selfheal"
    cap_watts: float
    tolerance: float
    energy_j: float
    delay_s: float
    total_windows: int
    violation_windows: int  #: windows over cap × (1 + tolerance), total
    excused_violations: int  #: violations inside some recovery grace interval
    post_recovery_violations: int  #: violations no transition excuses
    #: worst time-to-recover observed: max over transitions of (end of the
    #: last violating window attributed to that transition − the
    #: transition instant); 0 when no violation followed any transition
    worst_recovery_latency_s: float
    n_transitions: int  #: fault activations + clearances in the plan
    repair_events: int  #: defensive actions the governor logged
    invariant_violations: int  #: InvariantMonitor record count
    allowed_recovery_s: float

    @property
    def recovered(self) -> bool:
        """Every violation was transient (excused by a fault transition)."""
        return self.post_recovery_violations == 0

    @property
    def average_power_w(self) -> float:
        return self.energy_j / self.delay_s

    def ed2p(self, delta: float = DELTA_HPC) -> float:
        """Weighted ED²P of the faulted run (lower is better)."""
        return weighted_ed2p(self.energy_j, self.delay_s, delta)

    def summary_lines(self) -> List[str]:
        verdict = (
            "recovered (all violations transient)"
            if self.recovered
            else f"{self.post_recovery_violations} post-recovery violations"
        )
        return [
            f"{self.label}: cap {self.cap_watts:.1f} W, "
            f"{self.n_transitions} fault transitions — {verdict}",
            f"  {self.violation_windows}/{self.total_windows} windows over "
            f"cap ({self.excused_violations} excused within "
            f"{self.allowed_recovery_s:.2f} s grace)",
            f"  worst recovery latency {self.worst_recovery_latency_s:.3f} s, "
            f"{self.repair_events} repairs, "
            f"{self.invariant_violations} invariant violations",
            f"  E={self.energy_j:.2f} J  D={self.delay_s:.4f} s  "
            f"wED2P={self.ed2p():.4g}",
        ]


def build_chaos_report(
    label: str,
    windows: Sequence,
    transitions: Sequence[float],
    budget: PowerBudget,
    allowed_recovery_s: float,
    energy_j: float,
    delay_s: float,
    repair_events: int = 0,
    invariant_violations: int = 0,
) -> ChaosReport:
    """Score a faulted run's governor windows against its fault plan.

    ``windows`` are the governor's closed
    :class:`~repro.powercap.governor.GovernorWindow` records;
    ``transitions`` are the plan's fault activation/clearance instants
    (:meth:`repro.faults.spec.FaultPlan.transition_times`).  A window
    violates when its measured average exceeds
    ``budget.cluster_watts × (1 + tolerance)``; see the module docstring
    for the excusal rule.

    Recovery latency is attributed per transition: a violating window is
    charged to the latest transition at or before its start (windows
    violating before the first transition are unexcused by
    construction), and the transition's latency is the end of its last
    charged violating window minus the transition instant.
    """
    if allowed_recovery_s < 0:
        raise ValueError(
            f"allowed_recovery_s must be >= 0, got {allowed_recovery_s}"
        )
    ordered = sorted(transitions)
    violating = [w for w in windows if not budget.complies(w.cluster_avg_watts)]

    excused = 0
    for w in violating:
        if any(
            w.t1 > t and w.t0 < t + allowed_recovery_s for t in ordered
        ):
            excused += 1

    worst_latency = 0.0
    for i, t in enumerate(ordered):
        next_t = ordered[i + 1] if i + 1 < len(ordered) else float("inf")
        charged: List[float] = [
            w.t1 for w in violating if t <= w.t0 < next_t
        ]
        if charged:
            worst_latency = max(worst_latency, max(charged) - t)

    return ChaosReport(
        label=label,
        cap_watts=budget.cluster_watts,
        tolerance=budget.tolerance,
        energy_j=energy_j,
        delay_s=delay_s,
        total_windows=len(windows),
        violation_windows=len(violating),
        excused_violations=excused,
        post_recovery_violations=len(violating) - excused,
        worst_recovery_latency_s=worst_latency,
        n_transitions=len(ordered),
        repair_events=repair_events,
        invariant_violations=invariant_violations,
        allowed_recovery_s=allowed_recovery_s,
    )
