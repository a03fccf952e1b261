"""Deterministic fault injection for the simulated cluster.

The paper motivates DVS partly on reliability (§1: components fail at
2–3 %/year; every 10 °C halves life expectancy), and
:mod:`repro.hardware.reliability` quantifies it — this package makes the
repo *exercise* failures instead of only pricing them.  A
:class:`~repro.faults.spec.FaultPlan` (declared, or rate-sampled from
the reliability model, always seed-deterministic) is driven against a
live cluster by a :class:`~repro.faults.injector.FaultInjector`:
fail-stop node crashes with reboot-at-max restarts, stuck DVFS
regulators, telemetry dropout and meter noise, and degraded links.

The defense lives in :mod:`repro.powercap` (the hardened
``CapGovernor`` with a :class:`~repro.powercap.resilience.ResilienceConfig`);
the offense/defense match-up is swept by the ``chaos`` experiment via
:mod:`repro.faults.sweep`, cached and resumable like every other sweep.
"""

from repro.faults.injector import FaultInjector
from repro.faults.spec import (
    DvfsStuck,
    FaultPlan,
    LinkDegraded,
    NodeCrash,
    TelemetryDropout,
    TelemetryNoise,
    acceleration_for,
)
from repro.faults.sweep import ChaosTask, chaos_task_key, run_chaos_sweep

__all__ = [
    "FaultInjector",
    "FaultPlan",
    "NodeCrash",
    "DvfsStuck",
    "TelemetryDropout",
    "TelemetryNoise",
    "LinkDegraded",
    "acceleration_for",
    "ChaosTask",
    "chaos_task_key",
    "run_chaos_sweep",
]
