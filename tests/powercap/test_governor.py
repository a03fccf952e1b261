"""End-to-end cap-governor tests (the PR's acceptance criteria).

(a) Enforcement: with a cap at ~80 % of the uncapped peak, every closed
    control window — including the trailing partial one — averages within
    the budget's tolerance, for the whole run.
(b) Redistribution beats the naive uniform cap: on a slack-imbalanced
    workload, :class:`SlackRedistributionPolicy` finishes strictly sooner
    than :class:`UniformCapPolicy` at the same budget, both compliant.
"""

import pytest

from repro.analysis.runner import run_measured
from repro.dvs.strategy import DynamicStrategy, StaticStrategy
from repro.faults import FaultInjector, FaultPlan, TelemetryDropout
from repro.hardware import PENTIUM_M_1400
from repro.hardware.cluster import Cluster
from repro.powercap import (
    CapGovernorConfig,
    ElasticPolicy,
    PowerBudget,
    PowerCapStrategy,
    SlackRedistributionPolicy,
    UniformCapPolicy,
)
from repro.hardware.scaling import CORE_IO, tech_node
from repro.hardware.spec import ClusterSpec, NodeSpec
from repro.workloads.imbalanced import ImbalancedMix
from repro.workloads.nas_ft import NasFT
from repro.workloads.synthetic import SyntheticMix


@pytest.fixture(scope="module")
def uncapped():
    """One uncapped reference run of the imbalanced workload."""
    workload = ImbalancedMix(n_ranks=8)
    run = run_measured(workload, StaticStrategy(1.4e9))
    peak = run.cluster.peak_power(run.spmd.start, run.spmd.end)
    return workload, run, peak


def capped_run(workload, budget, policy, config=None):
    strategy = PowerCapStrategy(budget, policy=policy, config=config)
    run = run_measured(workload, strategy)
    return run, strategy.governor


class TestEnforcement:
    def test_cap_at_80pct_of_peak_holds_for_the_whole_run(self, uncapped):
        workload, base, peak = uncapped
        budget = PowerBudget(0.8 * peak)
        for policy in (UniformCapPolicy(), SlackRedistributionPolicy()):
            run, governor = capped_run(workload, budget, policy)
            assert governor.windows, "governor closed no windows"
            assert governor.violation_count == 0
            assert all(w.compliant for w in governor.windows)
            assert governor.max_window_watts <= budget.limit_watts

    def test_windows_cover_the_run_including_the_trailing_partial(
        self, uncapped
    ):
        workload, base, peak = uncapped
        run, governor = capped_run(
            workload, PowerBudget(0.8 * peak), SlackRedistributionPolicy()
        )
        windows = governor.windows
        assert windows[0].t0 <= run.spmd.start
        assert windows[-1].t1 >= run.spmd.end
        for prev, nxt in zip(windows, windows[1:]):
            assert nxt.t0 == pytest.approx(prev.t1)
        # The trailing window is partial (the run does not end on a
        # control-interval boundary) and still judged for compliance.
        assert windows[-1].duration < governor.config.interval

    def test_compliant_from_the_first_window(self, uncapped):
        # The worst-case initial allocation must protect the interval
        # before any telemetry exists.
        workload, base, peak = uncapped
        run, governor = capped_run(
            workload, PowerBudget(0.8 * peak), SlackRedistributionPolicy()
        )
        assert governor.windows[0].compliant

    def test_achieved_average_stays_under_the_cap(self, uncapped):
        workload, base, peak = uncapped
        budget = PowerBudget(0.8 * peak)
        run, governor = capped_run(
            workload, budget, SlackRedistributionPolicy()
        )
        assert governor.achieved_average_watts() <= budget.limit_watts
        # And the governor's windowed view agrees with the ground-truth
        # timeline integral over the same span.
        t0 = governor.windows[0].t0
        t1 = governor.windows[-1].t1
        assert governor.achieved_average_watts() == pytest.approx(
            run.cluster.average_power(t0, t1), rel=1e-6
        )

    def test_enforcement_on_a_paper_workload(self):
        # NAS FT (class S) under a tight interval so several control
        # windows close within the short run.
        workload = NasFT(n_ranks=8, iterations=3)
        base = run_measured(workload, StaticStrategy(1.4e9))
        peak = base.cluster.peak_power(base.spmd.start, base.spmd.end)
        budget = PowerBudget(0.8 * peak)
        config = CapGovernorConfig(interval=0.02)
        run, governor = capped_run(
            workload, budget, SlackRedistributionPolicy(), config=config
        )
        assert len(governor.windows) > 3
        assert governor.violation_count == 0


class TestRedistributionBeatsUniform:
    def test_strictly_faster_at_the_same_budget(self, uncapped):
        workload, base, peak = uncapped
        budget = PowerBudget(0.8 * peak)
        uniform, gov_u = capped_run(workload, budget, UniformCapPolicy())
        redist, gov_r = capped_run(
            workload, budget, SlackRedistributionPolicy()
        )
        assert gov_u.violation_count == 0
        assert gov_r.violation_count == 0
        assert redist.point.delay < uniform.point.delay
        # The margin is structural, not noise: the uniform cap throttles
        # the compute-bound half of the cluster that redistribution
        # protects.
        assert redist.point.delay < 0.9 * uniform.point.delay

    def test_redistribution_stays_close_to_uncapped(self, uncapped):
        workload, base, peak = uncapped
        run, governor = capped_run(
            workload, PowerBudget(0.8 * peak), SlackRedistributionPolicy()
        )
        slowdown = run.point.delay / base.point.delay - 1.0
        assert slowdown < 0.15

    def test_capped_runs_are_deterministic(self, uncapped):
        workload, base, peak = uncapped
        budget = PowerBudget(0.8 * peak)
        first, _ = capped_run(workload, budget, SlackRedistributionPolicy())
        second, _ = capped_run(workload, budget, SlackRedistributionPolicy())
        assert first.point.delay == second.point.delay
        assert first.point.energy == second.point.energy


class TestComposition:
    def test_inner_dynamic_strategy_runs_under_the_cap(self, uncapped):
        workload, base, peak = uncapped
        budget = PowerBudget(0.8 * peak)
        strategy = PowerCapStrategy(
            budget,
            policy=SlackRedistributionPolicy(),
            inner=DynamicStrategy(1.4e9),
        )
        run = run_measured(workload, strategy)
        governor = strategy.governor
        assert governor.violation_count == 0
        assert "dyn" in run.strategy.name

    def test_governor_cannot_be_started_twice(self, uncapped):
        workload, base, peak = uncapped
        strategy = PowerCapStrategy(PowerBudget(0.8 * peak))
        run = run_measured(workload, strategy)
        with pytest.raises(RuntimeError, match="already started"):
            strategy.governor.start(run.cluster.engine)


class TestReusedStrategy:
    """A strategy run a second time plans as a fresh one: each governor
    ranks nodes by its own demand marks, not a finished run's."""

    @pytest.mark.parametrize(
        "policy",
        [SlackRedistributionPolicy, ElasticPolicy],
        ids=lambda cls: cls.__name__,
    )
    def test_second_run_matches_a_fresh_strategy(self, policy):
        workload = ImbalancedMix(n_ranks=8)
        budget = PowerBudget(150.0)
        reused = PowerCapStrategy(budget, policy=policy())
        run_measured(workload, reused)
        second = run_measured(workload, reused)
        fresh = PowerCapStrategy(budget, policy=policy())
        first = run_measured(workload, fresh)
        assert second.point.energy == first.point.energy
        assert second.point.delay == first.point.delay
        assert reused.governor.windows == fresh.governor.windows
        assert reused.governor._plans_from_key is True

    def test_a_metric_the_caller_passed_survives(self):
        def metric(sample):
            return 1.0

        policy = ElasticPolicy(intensity_of=metric)
        strategy = PowerCapStrategy(PowerBudget(150.0), policy=policy)
        for _ in range(2):
            run_measured(ImbalancedMix(n_ranks=8), strategy)
            assert policy._intensity_of is metric
            assert policy.inner._intensity_of is metric


class TestOneModelPerCluster:
    """The governor predicts every node on one ladder and power model."""

    WORKLOAD = SyntheticMix(0.6, 0.2, 0.2, iterations=2, n_ranks=8)

    def capped(self, spec):
        strategy = PowerCapStrategy(PowerBudget(cluster_watts=150.0))
        run = run_measured(self.WORKLOAD, strategy, spec=spec)
        return run, strategy.governor

    def test_a_mixed_generation_cluster_is_rejected(self):
        spec = ClusterSpec(
            groups=(
                NodeSpec(count=4),
                NodeSpec(count=4, tech=tech_node(22, "itrs")),
            )
        )
        with pytest.raises(ValueError, match=r"nodes 0-3: .*; nodes 4-7: "):
            self.capped(spec)

    def test_a_core_kind_mix_on_one_ladder_is_rejected(self):
        spec = ClusterSpec(
            groups=(NodeSpec(count=4), NodeSpec(count=4, core=CORE_IO))
        )
        with pytest.raises(ValueError, match="groups differ"):
            self.capped(spec)

    def test_groups_that_build_equal_models_run_as_one(self):
        split = ClusterSpec(groups=(NodeSpec(count=4), NodeSpec(count=4)))
        run, governor = self.capped(split)
        one_run, one_governor = self.capped(ClusterSpec.homogeneous(8))
        assert governor.windows == one_governor.windows
        assert (run.point.energy, run.point.delay) == (
            one_run.point.energy,
            one_run.point.delay,
        )


class TestEveryNodeDark:
    """A fair-weather governor whose every node goes telemetry-dark in
    the same window allocates nothing that window, whatever the policy
    (redistribution used to raise on the empty window)."""

    WORKLOAD = SyntheticMix(
        1.0, 0.0, 0.0, iteration_seconds=0.5, iterations=2, n_ranks=4
    )
    DARK = (0.4, 0.3)  # (at, duration): six 0.05 s windows

    def dark_run(self, policy):
        def factory():
            cluster = Cluster.from_spec(ClusterSpec.homogeneous(4))
            at, duration = self.DARK
            plan = FaultPlan(
                tuple(
                    TelemetryDropout(node_id=nid, at=at, duration=duration)
                    for nid in range(4)
                )
            )
            FaultInjector(cluster, plan).install()
            return cluster

        strategy = PowerCapStrategy(
            PowerBudget(cluster_watts=100.0),
            policy=policy,
            config=CapGovernorConfig(interval=0.05),
        )
        run_measured(self.WORKLOAD, strategy, cluster_factory=factory)
        return strategy.governor

    @pytest.mark.parametrize(
        "policy",
        [UniformCapPolicy, SlackRedistributionPolicy, ElasticPolicy],
        ids=lambda cls: cls.__name__,
    )
    def test_a_blind_window_allocates_nothing(self, policy):
        governor = self.dark_run(policy())
        at, duration = self.DARK
        blind = [
            w
            for w in governor.windows
            if w.t0 >= at + 1e-9 and w.t1 <= at + duration - 1e-9
        ]
        assert blind, "no window fell inside the blackout"
        for window in blind:
            assert window.frequencies == {}
            assert window.predicted_watts == 0.0
            assert window.feasible

    def test_redistribution_allocates_an_empty_window_as_uniform(self):
        table = PENTIUM_M_1400
        for target in (10.0, 0.0, -1.0):
            args = ([], target, table, table.slowest, table.fastest, None)
            policy = SlackRedistributionPolicy(intensity_of=lambda s: 1.0)
            assert policy.allocate(*args) == UniformCapPolicy().allocate(*args)
