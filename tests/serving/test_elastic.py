"""ElasticServingPolicy: the multi-knob governor inside the serving stack.

Small diurnal workloads keep the runs fast; the full knob-map claims
live in the ``knobmap`` experiment (tests/experiments).
"""

import pytest

from repro.metrics.serving import build_serving_report
from repro.serving import (
    DiurnalArrivals,
    ELASTIC_ALLOCATORS,
    ElasticServingPolicy,
    ServingTask,
    ServingWorkload,
    TierSpec,
    run_serving,
)

WORKLOAD = ServingWorkload(
    tiers=(
        TierSpec("web", nodes=2, service_cycles=2.0e6),
        TierSpec("app", nodes=2, service_cycles=4.0e6),
    ),
    arrivals=DiurnalArrivals(base_rate=30.0, swing=0.6, period_s=3.0, seed=7),
    horizon_s=6.0,
    name="diurnal-mini",
    seed=7,
)


def run_elastic(budget_watts, **kwargs):
    policy = ElasticServingPolicy(budget_watts=budget_watts, **kwargs)
    run = run_serving(WORKLOAD, policy)
    return run, build_serving_report(run)


class TestNames:
    def test_full_knob_set_label(self):
        assert ElasticServingPolicy(30.0).name == "elastic@30W"

    def test_restricted_knobs_label(self):
        assert (
            ElasticServingPolicy(30.0, knobs=("dvfs",)).name
            == "elastic[dvfs]@30W"
        )

    def test_uniform_allocator_label(self):
        assert (
            ElasticServingPolicy(30.0, knobs=("dvfs",), allocator="uniform").name
            == "elastic[dvfs]/uniform@30W"
        )

    def test_rejects_unknown_allocator(self):
        with pytest.raises(ValueError, match="allocator"):
            ElasticServingPolicy(30.0, allocator="greedy")
        assert ELASTIC_ALLOCATORS == ("redist", "uniform")


class TestElasticServingRuns:
    def test_every_request_is_served_despite_gating(self):
        # A deep budget forces node gating; drain + the runner's
        # re-enqueue guard must still serve every request.
        run, report = run_elastic(26.0)
        assert report.completed == report.n_requests
        assert report.dropped == 0
        gov = run.policy.governor
        assert gov is not None and gov.windows

    def test_deep_budget_beats_the_dvfs_only_floor(self):
        # The DVFS floor for this 4-node cluster sits near 38 W; an
        # elastic run at 26 W must land under what dvfs-only can reach.
        _, elastic = run_elastic(26.0)
        _, dvfs_only = run_elastic(26.0, knobs=("dvfs",))
        assert elastic.average_power_w < dvfs_only.average_power_w
        assert elastic.average_power_w <= 26.0
        assert dvfs_only.average_power_w > 26.0

    def test_cap_escalation_is_reported(self):
        _, elastic = run_elastic(26.0)
        assert elastic.cap_escalation == "gate"
        _, dvfs_only = run_elastic(26.0, knobs=("dvfs",))
        assert dvfs_only.cap_escalation == "dvfs"
        assert dvfs_only.cap_total_windows > 0
        assert dvfs_only.cap_feasible_windows < dvfs_only.cap_total_windows

    def test_protected_tier_heads_stay_powered(self):
        run, _ = run_elastic(26.0)
        protected = run.policy.governor.policy.protected
        assert protected, "no tier heads were protected"
        for nid in protected:
            assert run.cluster.nodes[nid].cpu.powered


class TestSweepIntegration:
    def test_elastic_task_round_trips_through_the_sweep(self):
        task = ServingTask(
            WORKLOAD, "elastic", budget_watts=26.0, knobs=("dvfs", "gate")
        )
        assert task.label == "elastic[dvfs+gate]@26W"
        policy = task.build_policy()
        assert isinstance(policy, ElasticServingPolicy)
        assert policy.knobs == ("dvfs", "gate")

    def test_knobs_require_the_elastic_recipe(self):
        with pytest.raises(ValueError, match="knobs"):
            ServingTask(
                WORKLOAD, "tierdvs", budget_watts=26.0, knobs=("dvfs",)
            )

    def test_elastic_requires_a_budget(self):
        with pytest.raises(ValueError, match="budget"):
            ServingTask(WORKLOAD, "elastic")
