"""Analysis layer: measured runs, crescendo sweeps, records, reporting."""

from repro.analysis.parallel import SweepTask, run_sweep
from repro.analysis.phases import (
    PhaseEnergy,
    PhaseInterval,
    TrackedStrategy,
    TrackingController,
    phase_breakdown,
)
from repro.analysis.records import Comparison, ExperimentResult, SeriesData
from repro.analysis.report import (
    ascii_series_chart,
    format_best_points,
    format_crescendo,
    format_table,
)
from repro.analysis.runner import (
    MeasuredRun,
    cpuspeed_run,
    dynamic_crescendo,
    full_strategy_sweep,
    run_measured,
    static_crescendo,
)

__all__ = [
    "MeasuredRun",
    "run_measured",
    "static_crescendo",
    "dynamic_crescendo",
    "cpuspeed_run",
    "full_strategy_sweep",
    "ExperimentResult",
    "SeriesData",
    "Comparison",
    "format_table",
    "format_crescendo",
    "format_best_points",
    "ascii_series_chart",
    "PhaseInterval",
    "PhaseEnergy",
    "TrackingController",
    "TrackedStrategy",
    "phase_breakdown",
    "SweepTask",
    "run_sweep",
]
