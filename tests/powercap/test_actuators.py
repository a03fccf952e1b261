"""Actuator unit tests: the control plane's hands, one knob at a time."""

import pytest

from repro.dvs.capped import CappedCpuFreq
from repro.hardware.activity import CpuActivity
from repro.hardware.cluster import Cluster
from repro.hardware.scaling import tech_node
from repro.hardware.spec import ClusterSpec, NodeSpec
from repro.powercap import (
    Actuator,
    CapGovernor,
    CoreAllocationActuator,
    DvfsActuator,
    GateNode,
    GovernorPlan,
    NodeGateActuator,
    PowerBudget,
    SetCoreAllocation,
    SetFreqCeiling,
    WakeNode,
    default_actuators,
    dispatch_plan,
)
from repro.util.units import MHZ


def make_cluster(n=2):
    return Cluster.from_spec(ClusterSpec.homogeneous(n))


def busy(node, seconds):
    yield from node.cpu.run_cycles(seconds * node.cpu.frequency)


class TestProtocol:
    def test_default_actuators_satisfy_the_protocol(self):
        cluster = make_cluster()
        cpufreqs = {
            node.node_id: CappedCpuFreq(node, cluster.calibration)
            for node in cluster.nodes
        }
        actuators = default_actuators(cluster, cpufreqs, {})
        assert len(actuators) == 3
        for actuator in actuators:
            assert isinstance(actuator, Actuator)
        kinds = [k for a in actuators for k in a.kinds]
        assert set(kinds) == {
            SetFreqCeiling,
            GateNode,
            WakeNode,
            SetCoreAllocation,
        }
        assert len(kinds) == len(set(kinds)), "overlapping routes"

    def test_dispatch_rejects_unrouted_action_kinds(self):
        cluster = make_cluster()
        core = CoreAllocationActuator(cluster)
        routes = {kind: core for kind in core.kinds}
        plan = GovernorPlan(
            actions=(GateNode(node_id=0),), predicted_watts=0.0, feasible=True
        )
        with pytest.raises(TypeError, match="no actuator registered"):
            dispatch_plan(plan, routes)


class TestDvfsActuator:
    def test_lowering_clamps_and_raising_claims_headroom(self):
        cluster = make_cluster(1)
        node = cluster.nodes[0]
        cpufreq = CappedCpuFreq(node, cluster.calibration)
        pending = {}
        dvfs = DvfsActuator({0: cpufreq}, pending)
        dvfs.apply(SetFreqCeiling(node_id=0, frequency=600 * MHZ))
        assert node.cpu.frequency == 600 * MHZ
        assert pending[0] == 600 * MHZ
        # Raising the ceiling drives the clock up (no inner controller).
        dvfs.apply(SetFreqCeiling(node_id=0, frequency=1000 * MHZ))
        assert node.cpu.frequency == 1000 * MHZ
        assert pending[0] == 1000 * MHZ

    def test_drive_down_forces_the_clock_at_an_unchanged_ceiling(self):
        cluster = make_cluster(1)
        node = cluster.nodes[0]
        cpufreq = CappedCpuFreq(node, cluster.calibration)
        dvfs = DvfsActuator({0: cpufreq}, {})
        # A rebooted node at full clock with the ceiling already floored
        # on the books: set_ceiling alone would no-op.
        cpufreq.set_ceiling(600 * MHZ)
        node.cpu.set_frequency(cluster.table.point_for(1400 * MHZ))
        dvfs.apply(
            SetFreqCeiling(node_id=0, frequency=600 * MHZ, drive_down=True)
        )
        assert node.cpu.frequency == 600 * MHZ


class TestNodeGateActuator:
    def test_idle_node_suspends_immediately(self):
        cluster = make_cluster()
        gate = NodeGateActuator(cluster, wake_latency_s=0.5)
        gate.apply(GateNode(node_id=0))
        assert not cluster.nodes[0].cpu.powered
        assert cluster.nodes[0].cpu.suspended
        assert [entry[1:] for entry in gate.log] == [(0, "gate")]

    def test_busy_node_drains_then_suspends_at_idle(self):
        cluster = make_cluster()
        engine = cluster.engine
        engine.process(busy(cluster.nodes[0], 0.3))
        engine.run(until=0.1)
        gate = NodeGateActuator(cluster, wake_latency_s=0.5)
        gate.apply(GateNode(node_id=0))
        # Mid-service: still powered, marked draining, suspend deferred.
        assert cluster.nodes[0].cpu.powered
        assert 0 in gate.draining
        engine.run(until=0.5)
        assert not cluster.nodes[0].cpu.powered
        assert 0 not in gate.draining
        assert [entry[2] for entry in gate.log] == ["drain", "gate"]

    def test_wake_during_drain_cancels_the_drain(self):
        cluster = make_cluster()
        engine = cluster.engine
        engine.process(busy(cluster.nodes[0], 0.3))
        engine.run(until=0.1)
        gate = NodeGateActuator(cluster, wake_latency_s=0.5)
        gate.apply(GateNode(node_id=0))
        assert 0 in gate.draining
        gate.apply(WakeNode(node_id=0))
        assert 0 not in gate.draining
        engine.run(until=0.6)
        # The node finished its work and stayed up: no deferred suspend.
        assert cluster.nodes[0].cpu.powered

    def test_wake_pays_the_boot_latency_then_powers_on_at_the_floor(self):
        cluster = make_cluster()
        engine = cluster.engine
        gate = NodeGateActuator(cluster, wake_latency_s=0.5)
        gate.apply(GateNode(node_id=0))
        gate.apply(WakeNode(node_id=0))
        assert 0 in gate.waking
        assert not cluster.nodes[0].cpu.powered
        engine.run(until=0.4)
        assert not cluster.nodes[0].cpu.powered  # still booting
        engine.run(until=0.6)
        assert cluster.nodes[0].cpu.powered
        assert 0 not in gate.waking
        assert cluster.nodes[0].cpu.frequency == cluster.table.slowest.frequency
        assert [entry[2] for entry in gate.log] == ["gate", "wake", "booted"]

    def test_wake_boots_on_the_nodes_own_ladder(self):
        # 8 nm nodes after the 45 nm group: their floor is not 600 MHz
        spec = ClusterSpec((NodeSpec(2), NodeSpec(2, tech=tech_node(8, "itrs"))))
        cluster = Cluster.from_spec(spec)
        gate = NodeGateActuator(cluster, wake_latency_s=0.5)
        gate.apply(GateNode(node_id=3))
        gate.apply(WakeNode(node_id=3))
        cluster.engine.run(until=0.6)
        node = cluster.nodes[3]
        assert node.cpu.powered
        assert node.cpu.frequency == node.table.slowest.frequency
        assert [entry[2] for entry in gate.log] == ["gate", "wake", "booted"]

    def test_gate_and_wake_are_idempotent(self):
        cluster = make_cluster()
        gate = NodeGateActuator(cluster, wake_latency_s=0.5)
        gate.apply(GateNode(node_id=0))
        gate.apply(GateNode(node_id=0))  # already suspended: no-op
        assert [entry[2] for entry in gate.log] == ["gate"]
        gate.apply(WakeNode(node_id=0))
        gate.apply(WakeNode(node_id=0))  # boot already in flight: no-op
        assert [entry[2] for entry in gate.log] == ["gate", "wake"]

    def test_rejects_negative_wake_latency(self):
        with pytest.raises(ValueError, match="wake_latency_s"):
            NodeGateActuator(make_cluster(), wake_latency_s=-0.1)


class TestCoreAllocationActuator:
    def test_applies_the_fraction_and_logs_it(self):
        cluster = make_cluster()
        core = CoreAllocationActuator(cluster)
        core.apply(SetCoreAllocation(node_id=1, fraction=0.5))
        assert cluster.nodes[1].cpu.core_allocation == 0.5
        core.apply(SetCoreAllocation(node_id=1, fraction=1.0))
        assert cluster.nodes[1].cpu.core_allocation == 1.0
        assert [entry[1:] for entry in core.log] == [(1, 0.5), (1, 1.0)]

    def test_half_cores_doubles_run_cycles_time(self):
        def finish_time(fraction):
            cluster = make_cluster(1)
            cluster.nodes[0].cpu.set_core_allocation(fraction)
            done = {}

            def job():
                yield from busy(cluster.nodes[0], 0.1)
                done["t"] = cluster.engine.now

            cluster.engine.process(job())
            cluster.engine.run(until=1.0)
            return done["t"]

        assert finish_time(0.5) == pytest.approx(
            2.0 * finish_time(1.0), rel=1e-9
        )


class TestDeepestKnob:
    """The governor reads its own gate and core actuators' logs."""

    def make_governor(self):
        cluster = make_cluster()
        return cluster, CapGovernor(cluster, PowerBudget(cluster_watts=50.0))

    def apply(self, governor, *actions):
        governor._apply_plan(GovernorPlan(actions, 0.0, True))

    def test_frequency_only_is_dvfs(self):
        _, governor = self.make_governor()
        self.apply(governor, SetFreqCeiling(node_id=0, frequency=600 * MHZ))
        assert governor.deepest_knob == "dvfs"

    def test_a_core_fraction_is_cores(self):
        _, governor = self.make_governor()
        self.apply(governor, SetCoreAllocation(node_id=1, fraction=0.5))
        assert governor.deepest_knob == "cores"

    def test_a_gate_outranks_cores(self):
        _, governor = self.make_governor()
        self.apply(
            governor,
            SetCoreAllocation(node_id=1, fraction=0.5),
            GateNode(node_id=0),
        )
        assert governor.deepest_knob == "gate"

    def test_a_pending_drain_is_gate(self):
        cluster, governor = self.make_governor()
        cluster.engine.process(busy(cluster.nodes[0], 0.3))
        cluster.engine.run(until=0.1)
        self.apply(governor, GateNode(node_id=0))
        assert cluster.nodes[0].cpu.powered  # draining, not yet gated
        assert governor.deepest_knob == "gate"

    def test_a_wake_alone_is_not_gate(self):
        _, governor = self.make_governor()
        self.apply(governor, WakeNode(node_id=0))  # already powered: no-op
        assert governor.deepest_knob == "dvfs"
