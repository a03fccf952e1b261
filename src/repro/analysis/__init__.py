"""Analysis layer: measured runs, crescendo sweeps, records, reporting."""

from repro.analysis.phases import TrackedStrategy, phase_breakdown
from repro.analysis.report import (
    format_best_points,
    format_crescendo,
    format_table,
)
from repro.analysis.runner import (
    full_strategy_sweep,
    run_measured,
    static_crescendo,
)

__all__ = [
    "run_measured",
    "static_crescendo",
    "full_strategy_sweep",
    "format_table",
    "format_crescendo",
    "format_best_points",
    "TrackedStrategy",
    "phase_breakdown",
]
