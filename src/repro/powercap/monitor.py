"""Runtime assertion layer for the cap control loop.

Yu et al. (*Assertion-Based Design Exploration of DVS*, PAPERS.md) argue
that DVS control logic needs runtime monitors: control bugs do not crash,
they silently overdraw.  :class:`InvariantMonitor` is that monitor for
the cap governor — a passive recorder, attached to every governor by
default, that checks each closed window against the invariants the
control loop is supposed to maintain:

* ``window-over-budget`` — the measured cluster average exceeded the
  budget's enforcement limit (``cluster_watts × (1 + tolerance)``);
* ``node-over-ceiling`` — a powered node ended the window running above
  the frequency ceiling the governor believes it applied (a reboot at
  full clock, a stuck regulator);
* ``allocation-over-target`` — the policy claimed feasibility but its
  own predicted total exceeds the allocation target (a policy bug).

Recording is deliberately decoupled from reaction: the hardened governor
*reads* the same symptoms to repair them, the monitor just keeps the
evidence.  Chaos reports count violations before/after the configured
recovery latency from this record.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from repro.powercap.budget import PowerBudget
from repro.util.records import record

__all__ = ["InvariantViolation", "InvariantMonitor"]

#: relative slack applied to >-comparisons so float dust never flags
_EPSILON = 1e-9


@record
class InvariantViolation:
    """One recorded invariant breach (a fact, not an exception)."""

    time: float  #: sim time the enclosing window closed
    kind: str  #: one of the ``InvariantMonitor.*`` kind constants
    detail: str
    node_id: Optional[int] = None


class InvariantMonitor:
    """Passive per-window invariant checker for one governor."""

    WINDOW_OVER_BUDGET = "window-over-budget"
    NODE_OVER_CEILING = "node-over-ceiling"
    ALLOCATION_OVER_TARGET = "allocation-over-target"

    def __init__(self, budget: PowerBudget, nodes: Iterable[tuple]):
        """``nodes`` lists the watched nodes as ``(node id, cpu, cpufreq)``
        in node-id order: each window compares a powered ``cpu``'s clock
        with its ``cpufreq``'s ceiling, the one the governor applied."""
        self.budget = budget
        self._nodes: Tuple[tuple, ...] = tuple(nodes)
        #: every violation observed, in window order
        self.violations: List[InvariantViolation] = []

    # ------------------------------------------------------------------
    def observe_window(
        self,
        window,
        *,
        target_watts: float,
        allocated: bool = True,
    ) -> List[InvariantViolation]:
        """Check one closed :class:`~repro.powercap.governor.GovernorWindow`
        against the watched nodes as they stand at the window close.

        ``allocated=False`` (the trailing partial window) skips the
        allocation-consistency check, which only makes sense when a
        policy actually produced the window's allocation.  A window with
        no breach builds nothing and returns ``[]``.
        """
        found: List[InvariantViolation] = []
        limit = self.budget.limit_watts
        if window.cluster_avg_watts > limit * (1.0 + _EPSILON):
            found.append(
                InvariantViolation(
                    time=window.t1,
                    kind=self.WINDOW_OVER_BUDGET,
                    detail=(
                        f"measured {window.cluster_avg_watts:.2f} W over "
                        f"limit {limit:.2f} W"
                    ),
                )
            )
        if (
            allocated
            and window.feasible
            and window.predicted_watts > target_watts * (1.0 + _EPSILON)
        ):
            found.append(
                InvariantViolation(
                    time=window.t1,
                    kind=self.ALLOCATION_OVER_TARGET,
                    detail=(
                        f"policy predicted {window.predicted_watts:.2f} W "
                        f"above target {target_watts:.2f} W yet claimed "
                        "feasible"
                    ),
                )
            )
        # One comparison per powered node, on the fields that ``powered``,
        # ``frequency`` and ``ceiling`` return.
        for node_id, cpu, cpufreq in self._nodes:
            if not cpu._powered:
                continue
            actual = cpu._point.frequency
            ceiling = cpufreq._ceiling
            if actual > ceiling * (1.0 + _EPSILON):
                found.append(
                    InvariantViolation(
                        time=window.t1,
                        kind=self.NODE_OVER_CEILING,
                        detail=(
                            f"running {actual / 1e6:.0f} MHz above ceiling "
                            f"{ceiling / 1e6:.0f} MHz"
                        ),
                        node_id=node_id,
                    )
                )
        self.violations.extend(found)
        return found

    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        return len(self.violations)

    def count_of(self, kind: str) -> int:
        return sum(1 for v in self.violations if v.kind == kind)

    def after(self, time: float) -> Tuple[InvariantViolation, ...]:
        """Violations recorded strictly after ``time`` (recovery checks)."""
        return tuple(v for v in self.violations if v.time > time)
