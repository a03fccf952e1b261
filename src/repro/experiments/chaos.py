"""Chaos drill: fault rate × governor hardening under a power cap.

Extension beyond the paper (which assumes perfectly healthy hardware):
inject the failures §1 motivates DVS with — fail-stop crashes at the
reliability model's rate, telemetry dropout, stuck DVFS regulators —
and measure what each control-plane variant pays to stay inside the
budget.  Three variants face *identical* fault timelines at each rate:

* ``selfheal+redist`` — the hardened governor over the slack-aware
  policy (the full defense);
* ``selfheal+uniform`` — the hardened governor over the uniform
  baseline policy (how much of the defense is policy-independent);
* ``fairweather+redist`` — the unhardened governor (the control):
  it believes every sample, never re-applies a refused cap, and keeps
  allocating a dead node's budget.

Scoring (:mod:`repro.metrics.chaos`): violations within the allowed
recovery latency of a fault transition are excused; *post-recovery*
violations are the failures of the control plane itself.  The hardened
variants must score zero; the fair-weather control demonstrably does
not.  Energy/delay/ED²P degradation is reported against each variant's
own fault-free run at the same budget.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.parallel import ReportOutcome
from repro.analysis.records import ExperimentResult
from repro.analysis.report import format_table
from repro.analysis.runner import run_measured
from repro.dvs.strategy import StaticStrategy
from repro.faults.spec import (
    DvfsStuck,
    FaultPlan,
    NodeCrash,
    TelemetryDropout,
    acceleration_for,
)
from repro.experiments.common import context_sweep
from repro.faults.sweep import ChaosTask
from repro.hardware.reliability import ReliabilityModel
from repro.metrics.chaos import ChaosReport
from repro.workloads.synthetic import SyntheticMix

__all__ = ["run", "CHAOS_MODES", "build_tasks", "drill_plan"]

#: (mode label, policy, hardened) — every mode faces the same plans.
CHAOS_MODES: Tuple[Tuple[str, str, bool], ...] = (
    ("selfheal+redist", "redist", True),
    ("selfheal+uniform", "uniform", True),
    ("fairweather+redist", "redist", False),
)


def drill_plan(interval: float, seed: int = 0) -> FaultPlan:
    """The fixed composite scenario the guard bands *cannot* absorb.

    Poisson-sampled single faults mostly hide inside the governor's
    safety margin plus the budget's tolerance band (a finding the rate
    sweep records); this drill stacks the failure modes the hardening
    exists for, scaled off the control interval:

    * simultaneous telemetry dropout on two nodes — the fair-weather
      governor spreads the whole target over the visible survivors
      while the dark pair keeps drawing, a persistent overdraw;
    * a DVFS regulator that sticks *after* the dropout raised its node,
      so the post-fault down-shift is silently refused (stuck-high);
    * a late crash whose reboot comes back at the ladder's fastest
      point with no ceiling honoured (reboot-at-max).
    """
    return FaultPlan(
        faults=(
            TelemetryDropout(0, at=2.4 * interval, duration=7.2 * interval),
            TelemetryDropout(1, at=2.4 * interval, duration=7.2 * interval),
            DvfsStuck(2, at=3.3 * interval, duration=7.8 * interval),
            NodeCrash(3, at=10.8 * interval, downtime=2.4 * interval),
        ),
        seed=seed,
    )


def build_tasks(
    workload,
    budget_watts: float,
    plans: Sequence[FaultPlan],
    interval: float,
    allowed_recovery_s: float,
) -> List[ChaosTask]:
    """The full mode × plan grid, plan-major (modes adjacent per plan)."""
    return [
        ChaosTask(
            workload=workload,
            plan=plan,
            budget_watts=budget_watts,
            policy=policy,
            hardened=hardened,
            interval=interval,
            allowed_recovery_s=allowed_recovery_s,
        )
        for plan in plans
        for _, policy, hardened in CHAOS_MODES
    ]


def _row(
    mode: str, rate_label: str, seed: object, r: ChaosReport, base: ChaosReport
) -> List[object]:
    return [
        rate_label,
        str(seed),
        mode,
        f"{r.violation_windows}/{r.total_windows}",
        f"{r.post_recovery_violations}",
        f"{r.worst_recovery_latency_s:.2f}",
        f"{r.repair_events}",
        f"{(r.energy_j / base.energy_j - 1.0) * 100:+.1f}%",
        f"{(r.delay_s / base.delay_s - 1.0) * 100:+.1f}%",
        f"{r.ed2p() / base.ed2p():.3f}",
    ]


def run(
    expected_faults: Sequence[float] = (2.0, 4.0),
    seeds: Sequence[int] = (0, 1, 2),
    n_ranks: int = 8,
    cap_fraction: float = 0.85,
    annual_failure_rate: float = 0.025,
) -> ExperimentResult:
    """Chaos drill: fault-rate sweep across control-plane variants."""
    result = ExperimentResult(
        "chaos",
        "fault injection vs the self-healing cap governor: recovery "
        "latency, budget violations, and efficiency degradation "
        "(extension beyond the paper)",
    )
    # All-compute, no synchronisation: every node draws steadily, so a
    # control-plane lapse shows up as power, not as barrier slack — and
    # a crashed rank never deadlocks the survivors.
    workload = SyntheticMix(
        1.0, 0.0, 0.0, iteration_seconds=0.5, iterations=4, n_ranks=n_ranks
    )

    # Budget and horizon from the uncapped reference, exactly like the
    # powercap sweep: the cap is a fraction of the healthy average draw.
    base = run_measured(workload, StaticStrategy(1.4e9))
    uncapped_avg = base.point.energy / base.point.delay
    budget_watts = cap_fraction * uncapped_avg
    interval = max(0.02, min(0.25, base.point.delay / 12.0))
    # Faults restart fast enough that a crashed rank rejoins well before
    # the job ends.  The recovery grace covers detection (the hardened
    # governor needs stale/dead windows to trip) plus the containment
    # window that follows; dropout/stuck durations deliberately exceed
    # it, so a governor that merely waits faults out — instead of
    # repairing — accumulates post-recovery violations.
    downtime = 4 * interval
    allowed_recovery = 4 * interval
    fault_duration = 10 * interval
    horizon = base.point.delay
    reliability = ReliabilityModel(annual_failure_rate=annual_failure_rate)

    # One plan per (rate, seed); every mode replays the identical plan.
    plans: Dict[Tuple[float, int], FaultPlan] = {}
    for rate in expected_faults:
        acceleration = acceleration_for(reliability, n_ranks, horizon, rate)
        for seed in seeds:
            plans[(rate, seed)] = FaultPlan.from_reliability(
                reliability,
                n_ranks,
                horizon,
                seed=seed,
                acceleration=acceleration,
                downtime_s=downtime,
                dropout_weight=1.0,
                dropout_s=fault_duration,
                stuck_weight=1.0,
                stuck_s=fault_duration,
            )

    fault_free = [FaultPlan()]
    drill = drill_plan(interval)
    all_plans = list(fault_free) + [drill] + [
        plans[(rate, seed)] for rate in expected_faults for seed in seeds
    ]
    tasks = build_tasks(
        workload, budget_watts, all_plans, interval, allowed_recovery
    )
    outcomes = context_sweep(tasks)
    by_task: Dict[Tuple[int, str], ReportOutcome] = {}
    for task, outcome in zip(tasks, outcomes):
        mode = next(
            m
            for m, p, h in CHAOS_MODES
            if p == task.policy and h == task.hardened
        )
        by_task[(id(task.plan), mode)] = outcome

    def report_of(plan: FaultPlan, mode: str) -> ChaosReport:
        return by_task[(id(plan), mode)].report

    rows: List[List[object]] = []
    for mode, _, _ in CHAOS_MODES:
        ff = report_of(fault_free[0], mode)
        rows.append(_row(mode, "0 (fault-free)", "-", ff, ff))
        rows.append(_row(mode, "drill", "-", report_of(drill, mode), ff))
        for rate in expected_faults:
            for seed in seeds:
                rows.append(
                    _row(
                        mode,
                        f"{rate:g}",
                        seed,
                        report_of(plans[(rate, seed)], mode),
                        ff,
                    )
                )
    result.tables[workload.name] = format_table(
        [
            "E[faults]",
            "seed",
            "mode",
            "violations",
            "post-recovery",
            "worst latency s",
            "repairs",
            "ΔE",
            "ΔD",
            "wED2P×",
        ],
        rows,
        title=(
            f"{workload.name}: cap {budget_watts:.1f} W "
            f"({cap_fraction:.2f}× uncapped avg), AFR "
            f"{annual_failure_rate:.1%}/year accelerated to the listed "
            f"expected fault count per run"
        ),
    )

    # The robustness claims, recorded as comparisons (no paper values —
    # this extension is ours): hardened variants fully recover on every
    # plan including the drill; the fair-weather control demonstrably
    # does not survive the drill.
    for mode, _, _ in CHAOS_MODES:
        faulted = [report_of(drill, mode)] + [
            report_of(plans[(rate, seed)], mode)
            for rate in expected_faults
            for seed in seeds
        ]
        result.compare(
            f"{mode} worst post-recovery violations",
            None,
            float(max(r.post_recovery_violations for r in faulted)),
        )
        result.compare(
            f"{mode} worst recovery latency (s)",
            None,
            max(r.worst_recovery_latency_s for r in faulted),
        )
        result.compare(
            f"{mode} drill post-recovery violations",
            None,
            float(report_of(drill, mode).post_recovery_violations),
        )

    result.notes.append(
        "every mode replays identical seed-deterministic fault timelines "
        "(crashes at the reliability model's accelerated rate, plus "
        "telemetry dropout and stuck-DVFS processes at the same rate)"
    )
    result.notes.append(
        "a violation is excused when its window overlaps "
        f"[transition, transition + {allowed_recovery:.2f} s); "
        "post-recovery violations are breaches no fault transition "
        "explains — the hardened governor must score 0"
    )
    result.notes.append(
        "ΔE/ΔD/wED2P× are against the same mode's fault-free run at the "
        "same budget: the price of the faults, not of the cap"
    )
    return result
