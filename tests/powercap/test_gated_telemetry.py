"""The gating/telemetry interaction (the latent-fix satellite).

Before node gating existed, ``telemetry_visible=False`` paths were only
exercised by fault dropouts (dark agents, crashes).  An orderly
power-gated node takes the same exclusion path — and must: a suspended
node draws 2.4 W of suspend power and runs nothing, so including it in
window averages, letting the slack allocator "donate" its (nonexistent)
headroom, or letting the crash watchdog declare it dead would all
corrupt the control loop.  These tests pin the gated case explicitly:

* the cluster sampler reports no window sample for a gated node, and
  resumes the moment it powers back on;
* the fair-weather window hands :class:`SlackRedistributionPolicy`
  only powered nodes, against a target reduced by the gated reserve;
* the resilient path carves the gated node at suspend power instead of
  walking it through the dead/stale machinery;
* a node woken again leaves the gating books under every policy, so
  its suspend reserve stops being charged against the target.
"""

import pytest

from repro.hardware.activity import CpuActivity
from repro.hardware.cluster import Cluster
from repro.hardware.spec import ClusterSpec
from repro.powercap import (
    CapGovernor,
    CapGovernorConfig,
    ClusterTelemetry,
    GateNode,
    NodeGateActuator,
    PowerBudget,
    SlackRedistributionPolicy,
    WakeNode,
)
from repro.powercap.resilience import ResilienceConfig


def make_cluster(n=3):
    return Cluster.from_spec(ClusterSpec.homogeneous(n))


def busy(node, seconds):
    yield from node.cpu.run_cycles(seconds * node.cpu.frequency)


class TestGatedSamplingExclusion:
    def test_gated_node_reports_no_sample(self):
        cluster = make_cluster(2)
        telemetry = ClusterTelemetry(cluster)
        gate = NodeGateActuator(cluster, wake_latency_s=0.0)
        gate.apply(GateNode(node_id=0))
        assert not cluster.nodes[0].cpu.powered
        cluster.engine.process(busy(cluster.nodes[1], 0.1))
        cluster.engine.run(until=0.2)
        assert [s.node_id for s in telemetry.sample()] == [1]

    def test_gated_node_rejoins_sampling_after_wake(self):
        cluster = make_cluster(2)
        telemetry = ClusterTelemetry(cluster)
        gate = NodeGateActuator(cluster, wake_latency_s=0.0)
        gate.apply(GateNode(node_id=0))
        cluster.engine.run(until=0.2)
        assert [s.node_id for s in telemetry.sample()] == [1]
        cluster.nodes[0].cpu.power_on(boot_point=cluster.table.slowest)
        cluster.engine.run(until=0.4)
        samples = telemetry.sample()
        assert [s.node_id for s in samples] == [0, 1]
        # The rejoining node's window integral stayed aligned while it
        # was invisible: its first sample back covers only this window,
        # at suspend-to-idle levels — not an accumulated backlog.
        model = cluster.nodes[0].power_model
        assert samples[0].avg_watts < model.power(
            cluster.table.fastest, state=CpuActivity.ACTIVE, utilization=1.0
        )
        assert samples[0].busy_fraction == pytest.approx(0.0)


class RecordingPolicy(SlackRedistributionPolicy):
    """Records every (visible node ids, target) the governor hands it."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def allocate(self, samples, target, *args, **kwargs):
        self.calls.append(
            (tuple(sorted(s.node_id for s in samples)), target)
        )
        return super().allocate(samples, target, *args, **kwargs)


class TestGatedAllocationExclusion:
    def run_windows(self, resilience=None, until=1.0, wake_at=None):
        cluster = make_cluster(3)
        policy = RecordingPolicy()
        governor = CapGovernor(
            cluster,
            PowerBudget(cluster_watts=80.0),
            policy=policy,
            config=CapGovernorConfig(interval=0.25),
            resilience=resilience,
        )
        governor.start(cluster.engine)
        # Gate node 0 through the governor's own actuator and books —
        # exactly what applying a GateNode plan does.
        governor._routes[GateNode].apply(GateNode(node_id=0))
        governor._gated.add(0)
        for node in cluster.nodes[1:]:
            cluster.engine.process(busy(node, 0.6))
        if wake_at is not None:

            def wake():
                yield cluster.engine.timeout(wake_at)
                governor._routes[WakeNode].apply(WakeNode(node_id=0))

            cluster.engine.process(wake())
        cluster.engine.run(until=until)
        governor.stop()
        return cluster, governor, policy

    def test_slack_policy_never_sees_the_gated_node(self):
        cluster, governor, policy = self.run_windows()
        post_gate = [c for c in policy.calls if c[0] == (1, 2)]
        assert post_gate, "no allocation ran after the gate"
        for node_ids, _target in policy.calls[1:]:
            assert 0 not in node_ids

    def test_target_is_reduced_by_the_gated_reserve(self):
        cluster, governor, policy = self.run_windows()
        model = cluster.nodes[0].power_model
        expected = governor.target_watts - model.gated_power
        for _node_ids, target in policy.calls[1:]:
            assert target == pytest.approx(expected, abs=1e-12)

    def test_gated_node_keeps_no_frequency_allocation(self):
        cluster, governor, policy = self.run_windows()
        for window in governor.windows[1:]:
            assert 0 not in window.frequencies

    def test_resilient_path_carves_instead_of_declaring_dead(self):
        cluster, governor, policy = self.run_windows(
            resilience=ResilienceConfig(), until=2.0
        )
        # Dark + near-zero draw for many windows is exactly the crash
        # signature — the gated carve must keep the watchdog quiet.
        assert governor.dead_nodes == frozenset()
        assert not [e for e in governor.repair_log if e.node_id == 0]
        for node_ids, _target in policy.calls[1:]:
            assert 0 not in node_ids

    def test_woken_node_stops_paying_its_suspend_reserve(self):
        cluster, governor, policy = self.run_windows(wake_at=0.6, until=2.0)
        assert cluster.nodes[0].cpu.powered
        rejoined = [c for c in policy.calls[1:] if c[0] == (0, 1, 2)]
        assert rejoined, "the woken node was never allocated again"
        assert governor._gated == set()
        for _node_ids, target in rejoined:
            assert target == governor.target_watts
