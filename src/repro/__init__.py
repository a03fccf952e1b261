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
#: <name>``, and ``tests/test_facade.py`` asserts that README, EXPERIMENTS,
#: ``docs/``, ``examples/``, ``benchmarks/`` or ``perfbench/`` use it that
#: way; every other public name is imported from its defining module.
_EXPORTS = {
    # front door
    "Session": "repro.session",
    # tracing / profiling (repro.obs)
    "Tracer": "repro.obs.tracer",
    "load_trace_file": "repro.obs.export",
    "validate_chrome_trace": "repro.obs.export",
    # simulation engine (repro.sim)
    "Engine": "repro.sim.engine",
    # power-series kernel (repro.hardware)
    "PowerTimeline": "repro.hardware.timeline",
    # cluster construction + technology scaling (repro.hardware)
    "Cluster": "repro.hardware.cluster",
    "NodeSpec": "repro.hardware.spec",
    "ClusterSpec": "repro.hardware.spec",
    "CORE_IO": "repro.hardware.scaling",
    "TECH_NODES": "repro.hardware.scaling",
    "tech_node": "repro.hardware.scaling",
    "scaled_table": "repro.hardware.scaling",
    "scaled_calibration": "repro.hardware.scaling",
    # runs and sweeps
    "run_measured": "repro.analysis.runner",
    "run_sweep": "repro.analysis.parallel",
    "SweepTask": "repro.analysis.parallel",
    "SweepEvent": "repro.analysis.parallel",
    # execution backends (repro.exec)
    "SerialBackend": "repro.exec.backends",
    "MpiBackend": "repro.exec.mpi",
    "resolve_backend": "repro.exec.backends",
    "mpi_available": "repro.exec.mpi",
    "RetryPolicy": "repro.exec.retry",
    # serving
    "ServingWorkload": "repro.serving.spec",
    "TierSpec": "repro.serving.spec",
    "MMPPArrivals": "repro.serving.arrivals",
    "DiurnalArrivals": "repro.serving.arrivals",
    "run_serving": "repro.serving.runner",
    "TierDvsPolicy": "repro.serving.policy",
    "ServingTask": "repro.serving.sweep",
    "run_serving_sweep": "repro.serving.sweep",
    "build_serving_report": "repro.metrics.serving",
    # power capping (elastic control plane)
    "GovernorPlan": "repro.powercap.actions",
    "ElasticPolicy": "repro.powercap.elastic",
    "ELASTIC_KNOBS": "repro.powercap.elastic",
    "ElasticServingPolicy": "repro.serving.elastic",
    # cache
    "RunCache": "repro.cache.store",
    # metrics
    "KnobMapReport": "repro.metrics.knobmap",
    # experiments
    "list_experiments": "repro.experiments.registry",
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
    from repro.analysis.parallel import SweepEvent, SweepTask, run_sweep
    from repro.analysis.runner import run_measured
    from repro.cache.store import RunCache
    from repro.exec.backends import SerialBackend, resolve_backend
    from repro.exec.mpi import MpiBackend, mpi_available
    from repro.exec.retry import RetryPolicy
    from repro.experiments.registry import list_experiments
    from repro.hardware.cluster import Cluster
    from repro.hardware.scaling import (
        CORE_IO,
        TECH_NODES,
        scaled_calibration,
        scaled_table,
        tech_node,
    )
    from repro.hardware.spec import ClusterSpec, NodeSpec
    from repro.hardware.timeline import PowerTimeline
    from repro.metrics.knobmap import KnobMapReport
    from repro.metrics.serving import build_serving_report
    from repro.obs.export import load_trace_file, validate_chrome_trace
    from repro.obs.tracer import Tracer
    from repro.powercap.actions import GovernorPlan
    from repro.powercap.elastic import ELASTIC_KNOBS, ElasticPolicy
    from repro.serving.arrivals import DiurnalArrivals, MMPPArrivals
    from repro.serving.elastic import ElasticServingPolicy
    from repro.serving.policy import TierDvsPolicy
    from repro.serving.runner import run_serving
    from repro.serving.spec import ServingWorkload, TierSpec
    from repro.serving.sweep import ServingTask, run_serving_sweep
    from repro.session import Session
    from repro.sim.engine import Engine
