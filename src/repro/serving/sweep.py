"""Cached, resumable serving sweeps: workloads × policies.

A :class:`ServingTask` is the picklable description of one serving run
— workload spec plus a policy recipe.  Every field lowers through
:func:`repro.cache.keys.canonical_encode` (the workload is a tree of
frozen dataclasses, arrival generators included), so a task has a
content hash (:func:`serving_task_key`), and it implements the sweep
task protocol (:class:`repro.analysis.parallel.Task`).  Serving sweeps
therefore get the same caching contract as ordinary and chaos sweeps:
:func:`run_serving_sweep` (an alias of
:func:`repro.analysis.parallel.run_sweep`) short-circuits stored
outcomes and persists each fresh one the moment it completes, so an
interrupted sweep resumes where it stopped — and a warm re-run is
bit-identical to the cold one (asserted in the tests).

The stored record reuses the run cache unchanged: the energy/delay
point goes in as the point, the
:class:`~repro.metrics.serving.ServingReport` rides in the record's
``meta`` dict (:class:`~repro.analysis.parallel.ReportCodec`).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional, Tuple

from repro.analysis.parallel import ReportCodec, ReportOutcome, run_sweep
from repro.cache.keys import tagged_task_key
from repro.hardware.calibration import Calibration
from repro.metrics.records import EnergyDelayPoint
from repro.metrics.serving import ServingReport, build_serving_report
from repro.serving.elastic import ELASTIC_ALLOCATORS, ElasticServingPolicy
from repro.serving.policy import (
    CpuspeedServingPolicy,
    ServingPolicy,
    StaticServingPolicy,
    TierDvsPolicy,
)
from repro.serving.runner import run_serving
from repro.serving.spec import ServingWorkload
from repro.util.validation import check_in, check_positive

__all__ = [
    "SERVING_POLICIES",
    "ServingTask",
    "run_serving_sweep",
    "serving_task_key",
]

#: Policy recipes a :class:`ServingTask` can name.
SERVING_POLICIES = ("static", "cpuspeed", "tierdvs", "elastic")

#: Recipe-specific fields and the recipes that read them.  Any other
#: recipe rejects a non-default value: it would run the same as the
#: default under a different cache key.
_RECIPE_FIELDS = (
    ("knobs", ("elastic",)),
    ("budget_watts", ("elastic",)),
    ("allocator", ("elastic",)),
    ("frequency", ("static",)),
    ("interval", ("tierdvs", "elastic")),
    ("safety", ("tierdvs",)),
)


@dataclass(frozen=True)
class ServingTask(ReportCodec):
    """One serving run (picklable, content-hashable).

    ``frequency`` applies to ``"static"`` (``None`` = ladder fastest);
    ``budget_watts`` is required for ``"elastic"``; ``interval`` tunes
    the control loops of ``"tierdvs"``/``"elastic"`` and ``safety`` that
    of ``"tierdvs"``; ``knobs`` and ``allocator`` select the elastic
    policy's knob set (``None`` = all three) and inner DVFS allocator.
    A recipe rejects a non-default value of a field it does not read.
    """

    workload: ServingWorkload
    policy: str = "tierdvs"  #: one of :data:`SERVING_POLICIES`
    frequency: Optional[float] = None
    budget_watts: Optional[float] = None
    interval: float = 0.25
    safety: float = 1.5
    calibration: Optional[Calibration] = None
    knobs: Optional[Tuple[str, ...]] = None
    allocator: str = "redist"

    meta_kind = "serving-report"
    report_type = ServingReport

    def __post_init__(self) -> None:
        check_in("policy", self.policy, SERVING_POLICIES)
        if self.policy == "elastic" and self.budget_watts is None:
            raise ValueError(
                "elastic task needs budget_watts "
                "(ServingTask(workload, 'elastic', budget_watts=...))"
            )
        if self.budget_watts is not None:
            check_positive("budget_watts", self.budget_watts)
        if self.frequency is not None:
            check_positive("frequency", self.frequency)
        check_positive("interval", self.interval)
        check_positive("safety", self.safety)
        check_in("allocator", self.allocator, ELASTIC_ALLOCATORS)
        defaults = {f.name: f.default for f in fields(self)}
        for name, recipes in _RECIPE_FIELDS:
            if self.policy in recipes or getattr(self, name) == defaults[name]:
                continue
            raise ValueError(
                f"{name} only applies to policy "
                + " or ".join(repr(r) for r in recipes)
            )

    def build_policy(self) -> ServingPolicy:
        if self.policy == "static":
            return StaticServingPolicy(self.frequency)
        if self.policy == "cpuspeed":
            return CpuspeedServingPolicy()
        if self.policy == "elastic":
            assert self.budget_watts is not None
            kwargs = {} if self.knobs is None else {"knobs": self.knobs}
            return ElasticServingPolicy(
                self.budget_watts,
                interval=self.interval,
                allocator=self.allocator,
                **kwargs,
            )
        return TierDvsPolicy(interval=self.interval, safety=self.safety)

    @property
    def label(self) -> str:
        if self.policy == "static" and self.frequency is not None:
            return f"static@{self.frequency / 1e6:.0f}MHz"
        if self.policy == "elastic":
            # Delegate so sweep tables and the policy's own decision
            # logs agree on the label, knob subset included.
            return self.build_policy().name
        return self.policy

    def key(self) -> str:
        return serving_task_key(self)

    def run(self) -> ReportOutcome:
        """One serving run on a fresh cluster, scored."""
        run = run_serving(
            self.workload, self.build_policy(), calibration=self.calibration
        )
        report = build_serving_report(run, label=self.label)
        point = EnergyDelayPoint(
            label=self.label,
            energy=run.energy_j,
            delay=run.duration_s,
            frequency=self.frequency,
        )
        return ReportOutcome(point=point, report=report)


def serving_task_key(task: ServingTask, salt: Optional[str] = None) -> str:
    """SHA-256 content hash of one serving task (hex digest).

    A :func:`~repro.cache.keys.tagged_task_key` under the serving tag:
    the version salt is folded in, a ``calibration`` of ``None`` is
    normalised to the default, and the workload (tiers, arrival
    generator, seeds) is part of the hash, so two sweeps differing only
    in arrival seed never collide.
    """
    return tagged_task_key(task, ServingTask.meta_kind, salt)


#: The serving family's name for :func:`repro.analysis.parallel.run_sweep`.
run_serving_sweep = run_sweep
