"""Shared helpers for experiment drivers.

The point-sweep helpers (:func:`static_points`, :func:`dynamic_points`,
:func:`cpuspeed_point`, :func:`strategy_point_sweep`) are how every
driver runs its crescendos, and :func:`context_sweep` is how the chaos
and serving drivers run theirs: they honour the ambient
:class:`~repro.cache.context.SweepContext`, so installing a context (as
:func:`repro.experiments.registry.run_experiment` does for its
``use_cache``/``jobs`` arguments) transparently gives any experiment a
run cache and a worker pool.  With the default context they execute
serially in-process — the exact pre-cache behaviour.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from repro.analysis.parallel import SweepTask, run_sweep
from repro.analysis.records import ExperimentResult
from repro.analysis.report import format_best_points, format_crescendo
from repro.analysis.runner import MeasuredRun
from repro.cache.context import active_context
from repro.hardware.calibration import Calibration
from repro.hardware.dvfs import PENTIUM_M_1400
from repro.hardware.spec import ClusterSpec
from repro.metrics.records import EnergyDelayPoint
from repro.metrics.selection import select_paper_rows
from repro.workloads.base import Workload

__all__ = [
    "LADDER_FREQUENCIES",
    "context_sweep",
    "points_of",
    "static_points",
    "dynamic_points",
    "cpuspeed_point",
    "strategy_point_sweep",
    "normalize_series",
    "find_static",
    "energy_saving",
    "delay_increase",
    "attach_standard_tables",
]

#: The Table-2 ladder, slowest first (Hz).
LADDER_FREQUENCIES = PENTIUM_M_1400.frequencies


def points_of(runs: Sequence[MeasuredRun]) -> List[EnergyDelayPoint]:
    return [run.point for run in runs]


def context_sweep(tasks: Sequence) -> List:
    """:func:`~repro.analysis.parallel.run_sweep` under the ambient
    :class:`~repro.cache.context.SweepContext` (tasks of any family)."""
    ctx = active_context()
    return run_sweep(
        tasks,
        jobs=ctx.jobs,
        use_cache=ctx.cache if ctx.cache is not None else False,
        backend=ctx.backend,
        retry=ctx.retry,
    )


def static_points(
    workload: Workload,
    frequencies: Sequence[float],
    calibration: Optional[Calibration] = None,
    spec: Optional[ClusterSpec] = None,
) -> List[EnergyDelayPoint]:
    """One static point per frequency, honouring the sweep context."""
    return context_sweep(
        [
            SweepTask(
                workload, "stat", frequency=f, calibration=calibration,
                spec=spec,
            )
            for f in frequencies
        ]
    )


def dynamic_points(
    workload: Workload,
    frequencies: Sequence[float],
    regions: Optional[Sequence[str]] = None,
    calibration: Optional[Calibration] = None,
    spec: Optional[ClusterSpec] = None,
) -> List[EnergyDelayPoint]:
    """One dynamic point per base frequency, honouring the sweep context."""
    return context_sweep(
        [
            SweepTask(
                workload,
                "dyn",
                frequency=f,
                regions=tuple(regions) if regions else None,
                calibration=calibration,
                spec=spec,
            )
            for f in frequencies
        ]
    )


def cpuspeed_point(
    workload: Workload,
    calibration: Optional[Calibration] = None,
    spec: Optional[ClusterSpec] = None,
) -> EnergyDelayPoint:
    """The cpuspeed operating point, honouring the sweep context."""
    return context_sweep(
        [SweepTask(workload, "cpuspeed", calibration=calibration, spec=spec)]
    )[0]


def strategy_point_sweep(
    workload: Workload,
    frequencies: Sequence[float],
    regions: Optional[Sequence[str]] = None,
    calibration: Optional[Calibration] = None,
    include_dynamic: bool = True,
    spec: Optional[ClusterSpec] = None,
) -> Dict[str, List[EnergyDelayPoint]]:
    """The paper's full comparison as raw point series.

    Point-level counterpart of
    :func:`repro.analysis.runner.full_strategy_sweep`, routed through the
    sweep context so one worker pool (and one cache) covers the whole
    comparison instead of one per series.
    """
    tasks: List[SweepTask] = [
        SweepTask(workload, "cpuspeed", calibration=calibration, spec=spec)
    ]
    for f in frequencies:
        tasks.append(
            SweepTask(
                workload, "stat", frequency=f, calibration=calibration,
                spec=spec,
            )
        )
    if include_dynamic:
        for f in frequencies:
            tasks.append(
                SweepTask(
                    workload,
                    "dyn",
                    frequency=f,
                    regions=tuple(regions) if regions else None,
                    calibration=calibration,
                    spec=spec,
                )
            )
    points = context_sweep(tasks)
    out: Dict[str, List[EnergyDelayPoint]] = {"cpuspeed": [points[0]]}
    n = len(frequencies)
    out["stat"] = points[1 : 1 + n]
    if include_dynamic:
        out["dyn"] = points[1 + n : 1 + 2 * n]
    return out


def normalize_series(
    series: Mapping[str, Sequence[EnergyDelayPoint]],
    reference: Optional[EnergyDelayPoint] = None,
) -> Dict[str, List[EnergyDelayPoint]]:
    """Normalize every series to the fastest static point (paper style)."""
    if reference is None:
        statics = series.get("stat")
        if not statics:
            raise ValueError("normalize_series needs a 'stat' series or reference")
        reference = max(statics, key=lambda p: p.frequency or 0.0)
    return {
        name: [p.normalized_to(reference) for p in points]
        for name, points in series.items()
    }


def find_static(
    points: Sequence[EnergyDelayPoint], mhz: float
) -> EnergyDelayPoint:
    """The static point at ``mhz`` from a crescendo."""
    for p in points:
        if p.frequency is not None and abs(p.frequency - mhz * 1e6) < 1:
            return p
    raise KeyError(f"no point at {mhz} MHz in {[p.label for p in points]}")


def energy_saving(normalized: EnergyDelayPoint) -> float:
    """1 − normalized energy (the paper's 'energy savings')."""
    return 1.0 - normalized.energy


def delay_increase(normalized: EnergyDelayPoint) -> float:
    """normalized delay − 1 (the paper's 'performance impact')."""
    return normalized.delay - 1.0


def attach_standard_tables(
    result: ExperimentResult,
    series: Mapping[str, Sequence[EnergyDelayPoint]],
    best_from: str = "stat",
    crescendo_title: str = "",
) -> None:
    """Render the crescendo table and the best-operating-point table."""
    result.tables["crescendo"] = format_crescendo(
        series, title=crescendo_title or result.title
    )
    if best_from in series:
        rows = select_paper_rows(list(series[best_from]))
        result.tables["best_points"] = format_best_points(
            rows, title=f"best operating points (from {best_from} series)"
        )
