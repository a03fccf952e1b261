"""Cached, resumable chaos sweeps: fault plans × cap strategies.

A :class:`ChaosTask` is the picklable description of one faulted capped
run — workload, :class:`~repro.faults.spec.FaultPlan`, budget, policy,
hardened or fair-weather governor.  Because every field (including the
plan, a tree of frozen dataclasses) lowers through
:func:`repro.cache.keys.canonical_encode`, a task has a content hash
(:func:`chaos_task_key`), and it implements the sweep task protocol
(:class:`repro.analysis.parallel.Task`).  Chaos sweeps therefore get the
same caching contract as ordinary sweeps: :func:`run_chaos_sweep` (an
alias of :func:`repro.analysis.parallel.run_sweep`) short-circuits
stored outcomes and persists each fresh one the moment it completes, so
an interrupted chaos sweep resumes where it stopped.

The stored record reuses the run cache unchanged: the energy/delay point
goes in as the point, the :class:`~repro.metrics.chaos.ChaosReport`
rides in the record's ``meta`` dict
(:class:`~repro.analysis.parallel.ReportCodec`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.analysis.parallel import ReportCodec, ReportOutcome, run_sweep
from repro.analysis.runner import run_measured
from repro.cache.keys import tagged_task_key
from repro.hardware.calibration import Calibration
from repro.hardware.cluster import Cluster
from repro.hardware.spec import ClusterSpec
from repro.metrics.chaos import ChaosReport, build_chaos_report
from repro.powercap import (
    CapGovernorConfig,
    PowerBudget,
    PowerCapStrategy,
    ResilienceConfig,
    SlackRedistributionPolicy,
    UniformCapPolicy,
)
from repro.util.validation import check_nonnegative, check_positive
from repro.workloads.base import Workload

from repro.faults.injector import FaultInjector
from repro.faults.spec import FaultPlan

__all__ = [
    "CHAOS_POLICIES",
    "ChaosTask",
    "chaos_task_key",
    "run_chaos_sweep",
]

#: Allocation policies a :class:`ChaosTask` can name.
CHAOS_POLICIES = ("uniform", "redist")


@dataclass(frozen=True)
class ChaosTask(ReportCodec):
    """One faulted capped run (picklable, content-hashable).

    ``hardened=True`` runs the self-healing governor
    (:class:`~repro.powercap.resilience.ResilienceConfig` defaults);
    ``False`` runs the fair-weather baseline against the same faults.
    """

    workload: Workload
    plan: FaultPlan
    budget_watts: float
    policy: str = "redist"  #: one of :data:`CHAOS_POLICIES`
    hardened: bool = True
    interval: float = 0.25  #: governor control interval (seconds)
    #: grace period after each fault transition within which budget
    #: violations are excused (see :mod:`repro.metrics.chaos`)
    allowed_recovery_s: float = 1.0
    calibration: Optional[Calibration] = None

    meta_kind = "chaos-report"
    report_type = ChaosReport

    def __post_init__(self) -> None:
        if self.policy not in CHAOS_POLICIES:
            raise ValueError(
                f"unknown policy {self.policy!r}; "
                f"valid policies: {', '.join(CHAOS_POLICIES)}"
            )
        check_positive("budget_watts", self.budget_watts)
        check_positive("interval", self.interval)
        check_nonnegative("allowed_recovery_s", self.allowed_recovery_s)

    def build_strategy(self) -> PowerCapStrategy:
        policy = (
            UniformCapPolicy()
            if self.policy == "uniform"
            else SlackRedistributionPolicy()
        )
        return PowerCapStrategy(
            PowerBudget(cluster_watts=self.budget_watts),
            policy=policy,
            config=CapGovernorConfig(interval=self.interval),
            resilience=ResilienceConfig() if self.hardened else None,
        )

    @property
    def label(self) -> str:
        mode = "hardened" if self.hardened else "fairweather"
        return f"{self.policy}/{mode}"

    def key(self) -> str:
        return chaos_task_key(self)

    def run(self) -> ReportOutcome:
        """One faulted run on a fresh cluster, scored."""
        strategy = self.build_strategy()

        def factory() -> Cluster:
            cluster = Cluster.from_spec(
                ClusterSpec.homogeneous(self.workload.n_ranks),
                calibration=self.calibration,
            )
            FaultInjector(cluster, self.plan).install()
            return cluster

        run = run_measured(self.workload, strategy, cluster_factory=factory)
        governor = strategy.governor
        assert governor is not None
        report = build_chaos_report(
            label=strategy.name,
            windows=governor.windows,
            transitions=self.plan.transition_times(),
            budget=strategy.budget,
            allowed_recovery_s=self.allowed_recovery_s,
            energy_j=run.point.energy,
            delay_s=run.point.delay,
            repair_events=len(governor.repair_log),
            invariant_violations=governor.monitor.count,
        )
        return ReportOutcome(point=run.point, report=report)


def chaos_task_key(task: ChaosTask, salt: Optional[str] = None) -> str:
    """SHA-256 content hash of one chaos task (hex digest).

    A :func:`~repro.cache.keys.tagged_task_key` under the chaos tag: the
    version salt is folded in, a ``calibration`` of ``None`` is
    normalised to the default, and the fault plan is part of the hash,
    so two sweeps differing only in fault timelines never collide.
    """
    return tagged_task_key(task, ChaosTask.meta_kind, salt)


#: The chaos family's name for :func:`repro.analysis.parallel.run_sweep`.
run_chaos_sweep = run_sweep
