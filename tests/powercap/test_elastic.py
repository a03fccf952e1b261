"""ElasticPolicy unit tests: escalation order, gating rules, recovery.

The policy is a pure function of its :class:`PlanContext`, so every test
builds a context directly and inspects the emitted plan — no engine, no
cluster.  (Closed-loop behaviour and the pure-DVFS degeneracy live in
``test_bit_identity.py``; actuator execution in ``test_actuators.py``.)
"""

import pytest

from repro.hardware import PENTIUM_M_1400
from repro.hardware.calibration import DEFAULT_CALIBRATION
from repro.hardware.cluster import Cluster
from repro.hardware.spec import ClusterSpec
from repro.powercap import (
    CapGovernor,
    ELASTIC_KNOBS,
    ElasticPolicy,
    GateNode,
    NodeWindowSample,
    PlanContext,
    PowerBudget,
    SetCoreAllocation,
    SetFreqCeiling,
    WakeNode,
    compute_intensity,
)
from repro.powercap.resilience import ResilienceConfig
from repro.powercap.telemetry import demand_power, predict_node_power

TABLE = PENTIUM_M_1400
MODEL = DEFAULT_CALIBRATION.node_power_model(TABLE)
MIN_STEP = ElasticPolicy.CORE_STEPS[-1]


def _sample(node_id, busy):
    point = TABLE.fastest
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


def make_policy(knobs=ELASTIC_KNOBS, **kwargs):
    return ElasticPolicy(knobs=knobs, **kwargs)


def make_context(samples, target, **overrides):
    defaults = dict(
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
    defaults.update(overrides)
    return PlanContext(**defaults)


def floors_total(samples):
    """Predicted cluster draw with every node at the ladder floor."""
    return sum(_predict(s, TABLE.slowest) for s in samples)


def cores_floor_total(samples):
    """Floor draw with every node additionally at the smallest core step."""
    return sum(
        MODEL.base_power
        + MIN_STEP * (_predict(s, TABLE.slowest) - MODEL.base_power)
        for s in samples
    )


# Three busy nodes, node 0 slackest (lowest intensity) by construction.
SAMPLES = [_sample(0, 0.3), _sample(1, 0.8), _sample(2, 1.0)]


class TestConstruction:
    def test_rejects_unknown_knobs(self):
        with pytest.raises(ValueError, match="unknown knobs"):
            ElasticPolicy(knobs=("dvfs", "warp"))

    def test_requires_the_dvfs_knob(self):
        with pytest.raises(ValueError, match="dvfs"):
            ElasticPolicy(knobs=("gate",))

    def test_rejects_bad_wake_fraction(self):
        with pytest.raises(ValueError, match="wake_fraction"):
            ElasticPolicy(wake_fraction=0.0)

    def test_governor_rejects_elastic_plus_resilience(self):
        cluster = Cluster.from_spec(ClusterSpec.homogeneous(2))
        with pytest.raises(ValueError, match="cannot be combined"):
            CapGovernor(
                cluster,
                PowerBudget(cluster_watts=50.0),
                policy=ElasticPolicy(),
                resilience=ResilienceConfig(),
            )


class TestCoreEscalation:
    def test_shrinks_cores_when_the_ladder_bottoms_out(self):
        # Just below the all-floors draw: DVFS alone cannot get there,
        # one or two core notches can.
        target = floors_total(SAMPLES) - 0.5
        plan = make_policy(knobs=("dvfs", "cores")).plan(
            make_context(SAMPLES, target)
        )
        shrinks = [a for a in plan.actions if isinstance(a, SetCoreAllocation)]
        assert shrinks, "expected a core-allocation escalation"
        assert plan.feasible
        assert plan.predicted_watts <= target
        # The slackest node gives up cores first.
        assert shrinks[0].node_id == 0

    def test_dvfs_only_policy_reports_infeasible_instead(self):
        target = floors_total(SAMPLES) - 0.5
        plan = make_policy(knobs=("dvfs",)).plan(
            make_context(SAMPLES, target)
        )
        assert not plan.feasible
        assert not any(
            isinstance(a, SetCoreAllocation) for a in plan.actions
        )

    def test_no_op_reallocation_emits_no_core_actions(self):
        # Feasible by DVFS alone: every core fraction stays at 1.0 and
        # the plan must not carry redundant SetCoreAllocation actions.
        plan = make_policy().plan(make_context(SAMPLES, 200.0))
        assert not any(
            isinstance(a, SetCoreAllocation) for a in plan.actions
        )


class TestGateEscalation:
    def test_gates_the_slackest_node_when_cores_bottom_out(self):
        # Reachable only after gating node 0: survivors at min cores +
        # the gated node's suspend draw.
        target = cores_floor_total(SAMPLES[1:]) + MODEL.gated_power + 0.5
        assert target < cores_floor_total(SAMPLES)
        plan = make_policy().plan(make_context(SAMPLES, target))
        gates = [a for a in plan.actions if isinstance(a, GateNode)]
        assert [g.node_id for g in gates] == [0]
        assert plan.feasible
        assert plan.predicted_watts <= target
        # The gated node receives no frequency ceiling.
        assert 0 not in plan.frequencies

    def test_at_most_one_gate_per_window(self):
        plan = make_policy().plan(make_context(SAMPLES, 1.0))
        gates = [a for a in plan.actions if isinstance(a, GateNode)]
        assert len(gates) == 1
        assert not plan.feasible  # even the gate was not enough

    def test_protected_nodes_are_never_gated(self):
        target = cores_floor_total(SAMPLES[1:]) + MODEL.gated_power + 0.5
        plan = make_policy().plan(
            make_context(SAMPLES, target, protected=frozenset({0}))
        )
        gates = [a for a in plan.actions if isinstance(a, GateNode)]
        assert all(g.node_id != 0 for g in gates)

    def test_never_gates_the_last_node(self):
        lone = [SAMPLES[0]]
        plan = make_policy().plan(make_context(lone, 1.0))
        assert not any(isinstance(a, GateNode) for a in plan.actions)
        assert not plan.feasible

    def test_fully_protected_cluster_cannot_gate(self):
        plan = make_policy().plan(
            make_context(SAMPLES, 1.0, protected=frozenset({0, 1, 2}))
        )
        assert not any(isinstance(a, GateNode) for a in plan.actions)


class TestRecovery:
    IDLE = [_sample(0, 0.05), _sample(1, 0.05)]

    def test_wakes_a_gated_node_under_the_hysteresis_margin(self):
        plan = make_policy().plan(
            make_context(self.IDLE, 80.0, gated=frozenset({2}))
        )
        wakes = [a for a in plan.actions if isinstance(a, WakeNode)]
        assert [w.node_id for w in wakes] == [2]
        assert wakes[0].boot_frequency is None  # ladder floor default

    def test_no_wake_while_a_boot_is_already_in_flight(self):
        plan = make_policy().plan(
            make_context(
                self.IDLE, 80.0, gated=frozenset({2}), waking=frozenset({2})
            )
        )
        assert not any(isinstance(a, WakeNode) for a in plan.actions)

    def test_no_wake_near_the_budget_boundary(self):
        # Feasible, but without enough headroom to absorb a wake: the
        # hysteresis must hold the gate.
        busy_pair = [_sample(0, 1.0), _sample(1, 1.0)]
        target = floors_total(busy_pair) + MODEL.gated_power + 1.0
        plan = make_policy().plan(
            make_context(busy_pair, target, gated=frozenset({2}))
        )
        assert not any(isinstance(a, WakeNode) for a in plan.actions)

    def test_cores_restore_before_gates_wake(self):
        plan = make_policy().plan(
            make_context(
                self.IDLE,
                80.0,
                gated=frozenset({2}),
                core_allocation={0: 0.5, 1: 1.0},
            )
        )
        restores = [
            a for a in plan.actions if isinstance(a, SetCoreAllocation)
        ]
        assert restores == [SetCoreAllocation(node_id=0, fraction=0.75)]
        assert not any(isinstance(a, WakeNode) for a in plan.actions)

    def test_dvfs_only_policy_never_wakes(self):
        plan = make_policy(knobs=("dvfs",)).plan(
            make_context(self.IDLE, 80.0, gated=frozenset({2}))
        )
        assert not any(isinstance(a, WakeNode) for a in plan.actions)


class TestEmptyWindow:
    def test_all_nodes_gated_is_feasible_while_reserve_fits(self):
        plan = make_policy().plan(
            make_context([], 20.0, gated=frozenset({0, 1, 2}))
        )
        assert plan.feasible
        assert not plan.frequencies

    def test_all_nodes_gated_is_infeasible_below_the_suspend_floor(self):
        plan = make_policy().plan(
            make_context(
                [], 3 * MODEL.gated_power - 0.1, gated=frozenset({0, 1, 2})
            )
        )
        assert not plan.feasible


class TestPlanShape:
    def test_actions_order_cores_gate_ceilings_wake(self):
        target = cores_floor_total(SAMPLES[1:]) + MODEL.gated_power + 0.5
        plan = make_policy().plan(make_context(SAMPLES, target))
        kinds = [type(a).__name__ for a in plan.actions]
        order = {"SetCoreAllocation": 0, "GateNode": 1, "SetFreqCeiling": 2,
                 "WakeNode": 3}
        assert kinds == sorted(kinds, key=order.__getitem__)
        assert any(isinstance(a, SetFreqCeiling) for a in plan.actions)

    def test_plan_is_deterministic(self):
        target = floors_total(SAMPLES) - 0.5
        ctx = make_context(SAMPLES, target)
        policy = make_policy()
        assert policy.plan(ctx) == policy.plan(ctx)
