"""The ED²P family of power-performance metrics (paper §2.2).

* Eq. 4, ``ED2P = E · D²`` — Martonosi et al.'s energy-delay-squared
  product, the DVS-appropriate efficiency metric: under ideal scaling
  (``P ∝ f³``, ``D ∝ 1/f``) it is frequency-invariant, so any *real*
  improvement reflects exploited slack rather than mere slowdown.
* Eq. 5, ``weighted ED2P = E^(1-δ) · D^(2(1+δ))`` with δ ∈ [-1, 1] —
  the paper's generalisation.  δ>0 weights performance more heavily,
  δ<0 weights energy; the extremes degenerate to pure energy² (δ=-1)
  and pure delay⁴ (δ=+1); δ=0 recovers Eq. 4.

The paper's HPC setting is δ=0.2 (:data:`DELTA_HPC`): for two operating
points 5 % apart in performance, the slower one must save ≥13 % energy to
win — "significant yet practically feasible".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.metrics.protocol import ReportBase
from repro.util.validation import check_positive

__all__ = [
    "DELTA_ENERGY",
    "DELTA_HPC",
    "DELTA_ED2P",
    "DELTA_PERFORMANCE",
    "ed2p",
    "weighted_ed2p",
    "check_delta",
    "Ed2pRow",
    "Ed2pReport",
    "build_ed2p_report",
]

#: All weight on energy: metric degenerates to E² (paper's "energy" rows).
DELTA_ENERGY = -1.0
#: The plain ED2P of Eq. 4.
DELTA_ED2P = 0.0
#: The paper's experimentally chosen HPC weighting.
DELTA_HPC = 0.2
#: All weight on performance: metric degenerates to D⁴ ("performance").
DELTA_PERFORMANCE = 1.0


def check_delta(delta: float) -> float:
    """Validate the user weight factor (−1 ≤ δ ≤ 1)."""
    if not -1.0 <= delta <= 1.0:
        raise ValueError(f"delta must be in [-1, 1], got {delta!r}")
    return delta


def ed2p(energy: float, delay: float) -> float:
    """Energy-delay-squared product (Eq. 4)."""
    check_positive("energy", energy)
    check_positive("delay", delay)
    return energy * delay * delay


def weighted_ed2p(energy: float, delay: float, delta: float = DELTA_ED2P) -> float:
    """Weighted ED²P, ``E^(1-δ) · D^(2(1+δ))`` (Eq. 5).

    Lower is better.  Absolute values are only comparable at equal δ;
    the paper always compares operating points of one application under
    one δ.
    """
    check_positive("energy", energy)
    check_positive("delay", delay)
    check_delta(delta)
    return energy ** (1.0 - delta) * delay ** (2.0 * (1.0 + delta))


@dataclass(frozen=True)
class Ed2pRow(ReportBase):
    """One operating point scored under one δ."""

    label: str
    frequency: float  #: Hz; 0.0 when the point has no single frequency
    energy_j: float
    delay_s: float
    weighted: float  #: ``weighted_ed2p(energy, delay, delta)``


@dataclass(frozen=True)
class Ed2pReport(ReportBase):
    """A crescendo's operating points scored under one δ (Eq. 5)."""

    label: str
    delta: float
    rows: Tuple[Ed2pRow, ...]

    @property
    def best(self) -> Ed2pRow:
        """The winning point (minimum weighted ED²P — lower is better)."""
        if not self.rows:
            raise ValueError("empty Ed2pReport has no best point")
        return min(self.rows, key=lambda row: row.weighted)

    def summary_lines(self) -> List[str]:
        lines = [f"{self.label}: weighted ED²P at δ={self.delta:g}"]
        best = self.best if self.rows else None
        for row in self.rows:
            marker = "  <- best" if row is best else ""
            mhz = f"{row.frequency / 1e6:7.0f} MHz" if row.frequency else "        - "
            lines.append(
                f"  {row.label:24s} {mhz}  E={row.energy_j:9.2f} J  "
                f"D={row.delay_s:8.4f} s  wED2P={row.weighted:.4g}{marker}"
            )
        return lines


def build_ed2p_report(
    points: Sequence,
    delta: float = DELTA_HPC,
    label: str = "ed2p",
) -> Ed2pReport:
    """Score :class:`~repro.metrics.records.EnergyDelayPoint`\\ s under δ."""
    check_delta(delta)
    rows = tuple(
        Ed2pRow(
            label=p.label,
            frequency=p.frequency or 0.0,
            energy_j=p.energy,
            delay_s=p.delay,
            weighted=weighted_ed2p(p.energy, p.delay, delta),
        )
        for p in points
    )
    return Ed2pReport(label=label, delta=delta, rows=rows)
