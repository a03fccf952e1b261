"""Power-performance efficiency metrics (the paper's §2 contribution):
ED²P, the user-weighted ED²P generalisation, best-operating-point
selection, and the iso-efficiency trade-off curves of Figure 2."""

from repro.metrics.ed2p import (
    DELTA_ENERGY,
    DELTA_HPC,
    DELTA_PERFORMANCE,
    ed2p,
    weighted_ed2p,
)
from repro.metrics.knobmap import KnobCell, KnobMapReport, best_knob
from repro.metrics.powercap import PowerCapReport, build_cap_report
from repro.metrics.protocol import ReportProtocol
from repro.metrics.records import EnergyDelayPoint, normalize_points
from repro.metrics.selection import best_operating_point, select_paper_rows
from repro.metrics.tradeoff import (
    iso_efficiency_energy_fraction,
    required_energy_savings,
    tradeoff_curves,
)

__all__ = [
    "ed2p",
    "weighted_ed2p",
    "DELTA_ENERGY",
    "DELTA_HPC",
    "DELTA_PERFORMANCE",
    "EnergyDelayPoint",
    "PowerCapReport",
    "build_cap_report",
    "KnobCell",
    "KnobMapReport",
    "best_knob",
    "ReportProtocol",
    "normalize_points",
    "best_operating_point",
    "select_paper_rows",
    "iso_efficiency_energy_fraction",
    "required_energy_savings",
    "tradeoff_curves",
]
