"""Budget-constrained efficiency reporting (the cap governor's scoreboard).

A capped run is judged on three axes at once: did it *hold the budget*
(windowed compliance), what power did it *actually draw* (achieved
average, worst window), and what performance did it *give up* for that
(slowdown versus the uncapped run, plus the paper's weighted ED²P so
capped operating points drop into the existing selection machinery).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.metrics.ed2p import DELTA_HPC, weighted_ed2p
from repro.metrics.protocol import ReportBase

__all__ = ["PowerCapReport", "build_cap_report"]


@dataclass(frozen=True)
class PowerCapReport(ReportBase):
    """Outcome of one run under one power budget."""

    label: str  #: e.g. "cap@150W/redist"
    cap_watts: float
    tolerance: float
    energy_j: float
    delay_s: float
    achieved_avg_watts: float  #: whole-run average cluster power
    peak_window_watts: float  #: worst windowed average observed
    violation_windows: int
    total_windows: int
    #: D_capped / D_uncapped − 1; None when no uncapped reference was run
    slowdown_vs_uncapped: Optional[float] = None

    @property
    def compliant(self) -> bool:
        """No window exceeded cap × (1 + tolerance)."""
        return self.violation_windows == 0

    @property
    def average_power_w(self) -> float:
        """E/D (Eq. 3) — the meter's-eye view of the whole run."""
        return self.energy_j / self.delay_s

    def ed2p(self, delta: float = DELTA_HPC) -> float:
        """Weighted ED²P of the capped run (lower is better)."""
        return weighted_ed2p(self.energy_j, self.delay_s, delta)

    def summary_lines(self) -> List[str]:
        verdict = "compliant" if self.compliant else (
            f"{self.violation_windows}/{self.total_windows} windows over cap"
        )
        lines = [
            f"{self.label}: cap {self.cap_watts:.1f} W "
            f"(+{self.tolerance:.0%} tolerance) — {verdict}",
            f"  achieved {self.achieved_avg_watts:.1f} W avg, "
            f"{self.peak_window_watts:.1f} W peak window",
            f"  E={self.energy_j:.2f} J  D={self.delay_s:.4f} s  "
            f"wED2P={self.ed2p():.4g}",
        ]
        if self.slowdown_vs_uncapped is not None:
            lines.append(
                f"  slowdown vs uncapped: {self.slowdown_vs_uncapped:+.1%}"
            )
        return lines


def build_cap_report(
    label: str,
    cap_watts: float,
    tolerance: float,
    energy_j: float,
    delay_s: float,
    window_watts: Sequence[float],
    window_durations: Sequence[float],
    uncapped_delay_s: Optional[float] = None,
) -> PowerCapReport:
    """Assemble a report from raw run measurements.

    ``window_watts``/``window_durations`` are the governor's closed
    control windows (see
    :class:`repro.powercap.governor.GovernorWindow`); violations are
    counted against ``cap_watts × (1 + tolerance)``.
    """
    if len(window_watts) != len(window_durations):
        raise ValueError(
            f"{len(window_watts)} window powers vs "
            f"{len(window_durations)} durations"
        )
    limit = cap_watts * (1.0 + tolerance)
    total_t = sum(window_durations)
    achieved = (
        sum(w * d for w, d in zip(window_watts, window_durations)) / total_t
        if total_t > 0
        else 0.0
    )
    slowdown = (
        delay_s / uncapped_delay_s - 1.0 if uncapped_delay_s else None
    )
    return PowerCapReport(
        label=label,
        cap_watts=cap_watts,
        tolerance=tolerance,
        energy_j=energy_j,
        delay_s=delay_s,
        achieved_avg_watts=achieved,
        peak_window_watts=max(window_watts, default=0.0),
        violation_windows=sum(1 for w in window_watts if w > limit),
        total_windows=len(window_watts),
        slowdown_vs_uncapped=slowdown,
    )
