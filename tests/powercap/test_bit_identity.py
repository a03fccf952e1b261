"""Bit-identity: the actuator control plane vs the pre-refactor path.

The control-plane refactor's contract is that with legacy policies the
governor's behaviour did not change *at all*: every window's applied
frequencies, predicted watts, and measured cluster power must match the
pre-refactor direct-call trajectory within 1e-9 (in practice exactly).

Two layers pin this:

* closed loop — the imbalanced powercap run (the PR-4 acceptance
  workload) driven twice over identical clusters: once through the
  current actuator path, once through a governor whose one apply method
  (``_apply_plan``) is the pre-refactor inline code, verbatim — and the
  oracle is asserted to have run for the initial install and every
  reallocating window;
* property — a pure-DVFS :class:`ElasticPolicy` degenerates bit-exactly
  to its inner legacy policy on arbitrary telemetry windows
  (hypothesis-generated).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.powercap.strategy as strategy_module
from repro.analysis.runner import run_measured
from repro.dvs.strategy import StaticStrategy
from repro.hardware import PENTIUM_M_1400
from repro.hardware.calibration import DEFAULT_CALIBRATION
from repro.powercap import (
    CapGovernor,
    CapGovernorConfig,
    ElasticPolicy,
    NodeWindowSample,
    PlanContext,
    PowerBudget,
    PowerCapStrategy,
    SetFreqCeiling,
    SlackRedistributionPolicy,
    UniformCapPolicy,
    compute_intensity,
)
from repro.powercap.telemetry import demand_power, predict_node_power
from repro.workloads.imbalanced import ImbalancedMix

TOL = 1e-9
TABLE = PENTIUM_M_1400
MODEL = DEFAULT_CALIBRATION.node_power_model(TABLE)


class LegacyInlineGovernor(CapGovernor):
    """The pre-refactor apply step: direct CappedCpuFreq calls, verbatim.

    This is the exact loop the governor inlined before the actuator
    refactor (same operations, same order, same bookkeeping) — the
    oracle the actuator path is asserted against.  It replaces the
    governor's one apply method, so every plan the governor installs
    (the initial worst case and each window's) bypasses the actuators.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.oracle_installs = 0
        self.reallocating_windows = 0

    def _apply_plan(self, plan) -> None:
        assert all(isinstance(a, SetFreqCeiling) for a in plan.actions)
        self.oracle_installs += 1
        for node_id, frequency in plan.frequencies.items():
            cpufreq = self.cpufreqs[node_id]
            cpufreq.set_ceiling(frequency)
            if cpufreq.current_frequency < frequency:
                cpufreq.set_speed_now(frequency)
            self._pending_target[node_id] = frequency

    def _close_window(self, reallocate: bool):
        self.reallocating_windows += reallocate
        return super()._close_window(reallocate)


def assert_oracle_ran(governor):
    """The oracle installed the initial plan and every window's plan."""
    assert isinstance(governor, LegacyInlineGovernor)
    assert governor.reallocating_windows > 0
    assert governor.oracle_installs == governor.reallocating_windows + 1


def closed_loop(policy, governor_cls=CapGovernor, budget_watts=None):
    """One capped imbalanced run; returns (run, governor)."""
    workload = ImbalancedMix(n_ranks=8)
    original = strategy_module.CapGovernor
    strategy_module.CapGovernor = governor_cls
    try:
        strategy = PowerCapStrategy(
            PowerBudget(cluster_watts=budget_watts),
            policy=policy,
            config=CapGovernorConfig(interval=0.25),
        )
        run = run_measured(workload, strategy)
    finally:
        strategy_module.CapGovernor = original
    return run, strategy.governor


@pytest.fixture(scope="module")
def budget_watts():
    """A cap at 80 % of the uncapped peak — tight enough to bite."""
    base = run_measured(ImbalancedMix(n_ranks=8), StaticStrategy(1.4e9))
    return 0.8 * base.cluster.peak_power(base.spmd.start, base.spmd.end)


def assert_trajectories_identical(gov_a, gov_b):
    assert len(gov_a.windows) == len(gov_b.windows)
    assert gov_a.windows, "no control windows closed"
    for wa, wb in zip(gov_a.windows, gov_b.windows):
        assert wa.t0 == wb.t0 and wa.t1 == wb.t1
        assert abs(wa.cluster_avg_watts - wb.cluster_avg_watts) <= TOL
        assert abs(wa.predicted_watts - wb.predicted_watts) <= TOL
        assert wa.feasible == wb.feasible
        assert wa.frequencies.keys() == wb.frequencies.keys()
        for nid in wa.frequencies:
            assert abs(wa.frequencies[nid] - wb.frequencies[nid]) <= TOL


class TestClosedLoopIdentity:
    """Imbalanced closed-loop run: actuator path == pre-refactor path."""

    @pytest.mark.parametrize(
        "policy_cls", [UniformCapPolicy, SlackRedistributionPolicy]
    )
    def test_actuator_path_matches_legacy_inline(
        self, policy_cls, budget_watts
    ):
        legacy_run, legacy_gov = closed_loop(
            policy_cls(),
            governor_cls=LegacyInlineGovernor,
            budget_watts=budget_watts,
        )
        actuated_run, actuated_gov = closed_loop(
            policy_cls(), budget_watts=budget_watts
        )
        assert_oracle_ran(legacy_gov)
        assert_trajectories_identical(legacy_gov, actuated_gov)
        assert abs(legacy_run.point.delay - actuated_run.point.delay) <= TOL
        assert abs(legacy_run.point.energy - actuated_run.point.energy) <= TOL

    def test_pure_dvfs_elastic_matches_legacy_closed_loop(
        self, budget_watts
    ):
        """ElasticPolicy restricted to the DVFS knob == the inner policy,
        through the whole closed loop, not just one window."""
        legacy_run, legacy_gov = closed_loop(
            SlackRedistributionPolicy(),
            governor_cls=LegacyInlineGovernor,
            budget_watts=budget_watts,
        )
        elastic_run, elastic_gov = closed_loop(
            ElasticPolicy(knobs=("dvfs",), inner=SlackRedistributionPolicy()),
            budget_watts=budget_watts,
        )
        assert_oracle_ran(legacy_gov)
        assert_trajectories_identical(legacy_gov, elastic_gov)
        assert abs(legacy_run.point.delay - elastic_run.point.delay) <= TOL


# ---------------------------------------------------------------------------
# property: pure-DVFS ElasticPolicy degenerates to the legacy policies
# ---------------------------------------------------------------------------

_POINTS = list(TABLE)


def _sample(node_id, busy, point_idx):
    point = _POINTS[point_idx]
    watts = (
        MODEL.base_power
        + busy * MODEL.cpu.max_power * TABLE.relative_fv2(point)
    )
    return NodeWindowSample(
        node_id=node_id,
        t0=0.0,
        t1=0.25,
        avg_watts=watts,
        busy_fraction=busy,
        frequency=point.frequency,
    )


def _predict(sample, point):
    return predict_node_power(MODEL, TABLE, sample, point)


def _intensity(sample):
    return compute_intensity(MODEL, TABLE, sample)


def _context(samples, target):
    return PlanContext(
        samples=tuple(samples),
        target_watts=target,
        table=TABLE,
        floor=TABLE.slowest,
        ceiling=TABLE.fastest,
        predict=_predict,
        intensity=_intensity,
        base_power=MODEL.base_power,
        gated_draw_watts=MODEL.gated_power,
        wake_cost_watts=demand_power(MODEL, TABLE, 1.0, TABLE.slowest),
    )


windows = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=0, max_value=len(_POINTS) - 1),
    ),
    min_size=1,
    max_size=6,
)
targets = st.floats(min_value=5.0, max_value=400.0)


class TestDegeneracyProperty:
    """plan(knobs=('dvfs',)) ≡ inner.allocate, on arbitrary windows."""

    @given(windows=windows, target=targets)
    @settings(max_examples=120, deadline=None)
    def test_degenerates_to_slack_redistribution(self, windows, target):
        samples = [
            _sample(nid, busy, idx) for nid, (busy, idx) in enumerate(windows)
        ]
        legacy = SlackRedistributionPolicy().allocate(
            samples, target, TABLE, TABLE.slowest, TABLE.fastest, _predict,
            _intensity,
        )
        plan = ElasticPolicy(
            knobs=("dvfs",),
            inner=SlackRedistributionPolicy(),
        ).plan(_context(samples, target))
        assert all(isinstance(a, SetFreqCeiling) for a in plan.actions)
        assert plan.frequencies == legacy.frequencies
        assert plan.predicted_watts == legacy.predicted_watts
        assert plan.feasible == legacy.feasible

    @given(windows=windows, target=targets)
    @settings(max_examples=120, deadline=None)
    def test_degenerates_to_uniform(self, windows, target):
        samples = [
            _sample(nid, busy, idx) for nid, (busy, idx) in enumerate(windows)
        ]
        legacy = UniformCapPolicy().allocate(
            samples, target, TABLE, TABLE.slowest, TABLE.fastest, _predict,
            _intensity,
        )
        plan = ElasticPolicy(
            knobs=("dvfs",),
            inner=UniformCapPolicy(),
        ).plan(_context(samples, target))
        assert all(isinstance(a, SetFreqCeiling) for a in plan.actions)
        assert plan.frequencies == legacy.frequencies
        assert plan.predicted_watts == legacy.predicted_watts
        assert plan.feasible == legacy.feasible

    def test_action_order_matches_legacy_application_order(self):
        """from_allocation preserves dict order — the exact op sequence
        the pre-refactor loop performed."""
        samples = [_sample(nid, 1.0, len(_POINTS) - 1) for nid in range(4)]
        legacy = UniformCapPolicy().allocate(
            samples, 80.0, TABLE, TABLE.slowest, TABLE.fastest, _predict,
            _intensity,
        )
        from repro.powercap import GovernorPlan

        plan = GovernorPlan.from_allocation(legacy)
        assert [a.node_id for a in plan.actions] == list(
            legacy.frequencies.keys()
        )
