"""repro — reproduction of *Improvement of Power-Performance Efficiency
for High-End Computing* (Ge, Feng, Cameron; IPPS 2005).

A PowerPack-style framework for analysing and optimising the
power-performance of distributed scientific applications under dynamic
voltage scaling, built on a calibrated discrete-event simulation of the
paper's platform (16 Pentium M laptops, 100 Mb Ethernet, MPICH-1).

The names exported here are the **stable public API** (see
``docs/API.md``): everything a script or notebook needs without deep
imports, re-exported lazily (PEP 562) so ``import repro`` stays cheap::

    from repro import Session, SweepTask, Tracer

    s = Session(use_cache=True, tracer=Tracer())
    run = s.run(workload, strategy)
    report = s.attribution(run)

Layers (bottom-up), for when you do want the deep modules:

* :mod:`repro.sim` — discrete-event simulation kernel;
* :mod:`repro.hardware` — DVFS ladder, CMOS power model, CPU/memory/
  network models, cluster assembly;
* :mod:`repro.simmpi` — simulated MPI (eager/rendezvous, collectives,
  progress-engine wait policy);
* :mod:`repro.dvs` — CPUFreq interface, cpuspeed daemon, the paper's
  three DVS strategies;
* :mod:`repro.measurement` — ACPI battery and Baytech meter emulation,
  PowerPack session, data alignment;
* :mod:`repro.metrics` — ED²P and weighted ED²P, operating-point
  selection, trade-off curves, per-phase energy attribution;
* :mod:`repro.workloads` — NAS FT, parallel matrix transpose, SPEC-like
  kernels, microbenchmarks;
* :mod:`repro.obs` — structured tracing/profiling and trace exporters;
* :mod:`repro.powercap` / :mod:`repro.faults` — cluster power-budget
  governor and fault-injection drills;
* :mod:`repro.serving` — request-driven multi-tier serving with
  per-request energy attribution and per-tier DVS;
* :mod:`repro.cache` — content-addressed run cache;
* :mod:`repro.analysis` / :mod:`repro.experiments` — crescendo sweeps,
  reporting, and one driver per paper table/figure.
"""

from typing import TYPE_CHECKING

__version__ = "1.2.0"

#: public name → defining module, the single source of truth for the
#: lazy facade below.  Every entry is importable as ``from repro import
#: <name>`` and asserted stable in ``tests/test_facade.py``.
_EXPORTS = {
    # front door
    "Session": "repro.session",
    # tracing / profiling (repro.obs)
    "Tracer": "repro.obs.tracer",
    "tracing": "repro.obs.tracer",
    "active_tracer": "repro.obs.tracer",
    "export_chrome_trace": "repro.obs.export",
    "export_jsonl": "repro.obs.export",
    "load_trace_file": "repro.obs.export",
    "power_counter_records": "repro.obs.export",
    "validate_chrome_trace": "repro.obs.export",
    # simulation engine (repro.sim)
    "Engine": "repro.sim.engine",
    "EngineStats": "repro.sim.engine",
    # power-series kernel (repro.hardware)
    "PowerTimeline": "repro.hardware.timeline",
    "EnergyCursor": "repro.hardware.timeline",
    "PowerSeries": "repro.hardware.series",
    "ClusterSeries": "repro.hardware.series",
    # cluster construction + technology scaling (repro.hardware)
    "Cluster": "repro.hardware.cluster",
    "NodeSpec": "repro.hardware.spec",
    "ClusterSpec": "repro.hardware.spec",
    "TechNode": "repro.hardware.scaling",
    "CoreKind": "repro.hardware.scaling",
    "CORE_O3": "repro.hardware.scaling",
    "CORE_IO": "repro.hardware.scaling",
    "TECH_NODES": "repro.hardware.scaling",
    "tech_node": "repro.hardware.scaling",
    "scaled_table": "repro.hardware.scaling",
    "scaled_calibration": "repro.hardware.scaling",
    # runs and sweeps
    "run_measured": "repro.analysis.runner",
    "traced_run": "repro.analysis.runner",
    "run_sweep": "repro.analysis.parallel",
    "SweepTask": "repro.analysis.parallel",
    "SweepError": "repro.analysis.parallel",
    "SweepEvent": "repro.analysis.parallel",
    # execution backends (repro.exec)
    "BACKENDS": "repro.exec.backends",
    "ExecBackend": "repro.exec.backends",
    "SerialBackend": "repro.exec.backends",
    "ProcessPoolBackend": "repro.exec.backends",
    "MpiBackend": "repro.exec.mpi",
    "resolve_backend": "repro.exec.backends",
    "mpi_available": "repro.exec.mpi",
    "RetryPolicy": "repro.exec.retry",
    "AttemptRecord": "repro.exec.retry",
    "WorkerLostError": "repro.exec.retry",
    "SweepTimeoutError": "repro.exec.retry",
    # chaos
    "run_chaos_sweep": "repro.faults.sweep",
    "ChaosTask": "repro.faults.sweep",
    "ChaosOutcome": "repro.faults.sweep",
    "FaultPlan": "repro.faults.spec",
    "FaultInjector": "repro.faults.injector",
    # serving
    "ServingWorkload": "repro.serving.spec",
    "TierSpec": "repro.serving.spec",
    "PoissonArrivals": "repro.serving.arrivals",
    "MMPPArrivals": "repro.serving.arrivals",
    "DiurnalArrivals": "repro.serving.arrivals",
    "run_serving": "repro.serving.runner",
    "TierDvsPolicy": "repro.serving.policy",
    "ServingTask": "repro.serving.sweep",
    "ServingOutcome": "repro.serving.sweep",
    "run_serving_sweep": "repro.serving.sweep",
    "ServingReport": "repro.metrics.serving",
    "build_serving_report": "repro.metrics.serving",
    # power capping (elastic control plane)
    "PowerBudget": "repro.powercap.budget",
    "PowerCapStrategy": "repro.powercap.strategy",
    "Action": "repro.powercap.actions",
    "GovernorPlan": "repro.powercap.actions",
    "Actuator": "repro.powercap.actuators",
    "ElasticPolicy": "repro.powercap.elastic",
    "ELASTIC_KNOBS": "repro.powercap.elastic",
    "ElasticServingPolicy": "repro.serving.elastic",
    # cache
    "RunCache": "repro.cache.store",
    "sweep_context": "repro.cache.context",
    # metrics
    "EnergyDelayPoint": "repro.metrics.records",
    "AttributionReport": "repro.metrics.attribution",
    "build_attribution_report": "repro.metrics.attribution",
    "ScalingReport": "repro.metrics.scaling",
    "build_scaling_report": "repro.metrics.scaling",
    "KnobCell": "repro.metrics.knobmap",
    "KnobMapReport": "repro.metrics.knobmap",
    # experiments
    "run_experiment": "repro.experiments.registry",
    "list_experiments": "repro.experiments.registry",
    # workloads
    "Workload": "repro.workloads.base",
}

__all__ = ["__version__", *sorted(_EXPORTS)]


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(module_name), name)
    globals()[name] = value  # cache: next access skips __getattr__
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))


if TYPE_CHECKING:  # pragma: no cover - static analysis only
    from repro.analysis.parallel import (
        SweepError,
        SweepEvent,
        SweepTask,
        run_sweep,
    )
    from repro.analysis.runner import run_measured, traced_run
    from repro.cache.context import sweep_context
    from repro.cache.store import RunCache
    from repro.exec.backends import (
        BACKENDS,
        ExecBackend,
        ProcessPoolBackend,
        SerialBackend,
        resolve_backend,
    )
    from repro.exec.mpi import MpiBackend, mpi_available
    from repro.exec.retry import (
        AttemptRecord,
        RetryPolicy,
        SweepTimeoutError,
        WorkerLostError,
    )
    from repro.experiments.registry import list_experiments, run_experiment
    from repro.faults.injector import FaultInjector
    from repro.faults.spec import FaultPlan
    from repro.faults.sweep import ChaosOutcome, ChaosTask, run_chaos_sweep
    from repro.hardware.cluster import Cluster
    from repro.hardware.scaling import (
        CORE_IO,
        CORE_O3,
        CoreKind,
        TECH_NODES,
        TechNode,
        scaled_calibration,
        scaled_table,
        tech_node,
    )
    from repro.hardware.spec import ClusterSpec, NodeSpec
    from repro.metrics.attribution import (
        AttributionReport,
        build_attribution_report,
    )
    from repro.metrics.knobmap import KnobCell, KnobMapReport
    from repro.metrics.scaling import ScalingReport, build_scaling_report
    from repro.metrics.records import EnergyDelayPoint
    from repro.metrics.serving import ServingReport, build_serving_report
    from repro.obs.export import (
        export_chrome_trace,
        export_jsonl,
        load_trace_file,
        validate_chrome_trace,
    )
    from repro.obs.tracer import Tracer, active_tracer, tracing
    from repro.powercap.actions import Action, GovernorPlan
    from repro.powercap.actuators import Actuator
    from repro.powercap.budget import PowerBudget
    from repro.powercap.elastic import ELASTIC_KNOBS, ElasticPolicy
    from repro.powercap.strategy import PowerCapStrategy
    from repro.serving.arrivals import (
        DiurnalArrivals,
        MMPPArrivals,
        PoissonArrivals,
    )
    from repro.serving.elastic import ElasticServingPolicy
    from repro.serving.policy import TierDvsPolicy
    from repro.sim.engine import Engine, EngineStats
    from repro.serving.runner import run_serving
    from repro.serving.spec import ServingWorkload, TierSpec
    from repro.serving.sweep import (
        ServingOutcome,
        ServingTask,
        run_serving_sweep,
    )
    from repro.session import Session
    from repro.workloads.base import Workload
