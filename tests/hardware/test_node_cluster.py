"""Tests for node power integration and cluster assembly."""

import gc

import pytest

from repro.hardware.activity import CpuActivity
from repro.hardware.calibration import Calibration, DEFAULT_CALIBRATION
from repro.hardware.cluster import Cluster
from repro.hardware.spec import ClusterSpec
from repro.hardware.dvfs import PENTIUM_M_1400
from repro.obs.export import power_counter_records
from repro.util.units import MIB, MHZ


def test_cluster_build_defaults():
    cluster = Cluster.from_spec(ClusterSpec.homogeneous(4))
    assert cluster.n_nodes == 4
    assert cluster.table is PENTIUM_M_1400
    assert all(n.cpu.frequency == 1400 * MHZ for n in cluster.nodes)


def test_cluster_rejects_empty():
    with pytest.raises(ValueError):
        Cluster.from_spec(ClusterSpec.homogeneous(0))


def test_idle_node_power_is_base_plus_cpu_idle():
    cluster = Cluster.from_spec(ClusterSpec.homogeneous(1))
    node = cluster.nodes[0]
    cal = cluster.calibration
    expected = cal.base_power + cal.cpu_max_power * cal.activity_factors[
        CpuActivity.IDLE
    ]
    assert node.timeline.power_at(0.0) == pytest.approx(expected)


def test_node_energy_integrates_cpu_work():
    cluster = Cluster.from_spec(ClusterSpec.homogeneous(1))
    eng = cluster.engine
    node = cluster.nodes[0]

    def prog():
        yield from node.cpu.run_cycles(1.4e9)  # 1 s fully active

    p = eng.process(prog())
    eng.run(until=p)
    cluster.finalize()
    cal = cluster.calibration
    expected = (cal.base_power + cal.cpu_max_power) * 1.0
    assert node.timeline.energy(0.0, 1.0) == pytest.approx(expected)


def test_nic_power_appears_during_transfer():
    cluster = Cluster.from_spec(ClusterSpec.homogeneous(2))
    eng = cluster.engine
    sender, receiver = cluster.nodes

    def prog():
        yield from cluster.fabric.transfer(0, 1, 2 * MIB)

    p = eng.process(prog())
    eng.run(until=p)
    cal = cluster.calibration
    # Mid-transfer both nodes' power includes the NIC term.
    mid = eng.now / 2
    idle_cpu = cal.cpu_max_power * cal.activity_factors[CpuActivity.IDLE]
    expected = cal.base_power + idle_cpu + cal.nic_active_power
    assert sender.timeline.power_at(mid) == pytest.approx(expected)
    assert receiver.timeline.power_at(mid) == pytest.approx(expected)
    # After the transfer the NIC term is gone.
    assert not sender.nic_active and not receiver.nic_active


def test_total_cluster_energy_sums_nodes():
    cluster = Cluster.from_spec(ClusterSpec.homogeneous(3))
    eng = cluster.engine
    eng.timeout(2.0)
    eng.run()
    cluster.finalize()
    per_node = cluster.nodes[0].timeline.energy(0.0, 2.0)
    assert cluster.total_energy(0.0, 2.0) == pytest.approx(3 * per_node)


def test_frequency_change_reflected_in_power():
    cluster = Cluster.from_spec(ClusterSpec.homogeneous(1))
    eng = cluster.engine
    node = cluster.nodes[0]

    def prog():
        yield eng.timeout(1.0)
        node.cpu.set_frequency(PENTIUM_M_1400.slowest)
        yield eng.timeout(1.0)

    p = eng.process(prog())
    eng.run(until=p)
    assert node.timeline.power_at(0.5) > node.timeline.power_at(1.5)


def test_trace_records_power_changes():
    cluster = Cluster.from_spec(ClusterSpec.homogeneous(1))
    eng = cluster.engine
    node = cluster.nodes[0]

    def prog():
        yield from node.cpu.run_cycles(1e6)

    p = eng.process(prog())
    eng.run(until=p)
    power = power_counter_records(cluster)
    assert len(power) >= 2  # active + back to idle
    assert power[0].value > power[-1].value
    assert len(node.timeline.segments()) == len(power)


def test_from_spec_takes_no_trace_sink():
    with pytest.raises(TypeError):
        Cluster.from_spec(ClusterSpec.homogeneous(1), trace=object())


def test_calibration_overrides():
    cal = DEFAULT_CALIBRATION.with_overrides(base_power=5.0)
    assert cal.base_power == 5.0
    assert cal.cpu_max_power == DEFAULT_CALIBRATION.cpu_max_power
    cluster = Cluster.from_spec(ClusterSpec.homogeneous(1), calibration=cal)
    node = cluster.nodes[0]
    idle_cpu = cal.cpu_max_power * cal.activity_factors[CpuActivity.IDLE]
    assert node.timeline.power_at(0.0) == pytest.approx(5.0 + idle_cpu)


def test_calibration_validation():
    with pytest.raises(ValueError):
        Calibration(cpu_max_power=0.0)
    with pytest.raises(ValueError):
        Calibration(base_power=-1.0)
    with pytest.raises(ValueError):
        Calibration(transition_penalty=-1.0)


def test_nodes_share_one_engine_and_fabric():
    cluster = Cluster.from_spec(ClusterSpec.homogeneous(4))
    engines = {n.engine for n in cluster.nodes}
    assert engines == {cluster.engine}
    assert cluster.fabric.n_nodes == 4


def test_cluster_series_cached_until_any_node_timeline_changes():
    cluster = Cluster.from_spec(ClusterSpec.homogeneous(2))
    series = cluster.series()
    assert cluster.series() is series  # reused while no node changed
    cluster.nodes[1].timeline.set_power(1.0, 99.0)
    fresh = cluster.series()
    assert fresh is not series
    assert fresh.node(1).power_at(2.0) == 99.0


def test_cluster_aggregates_delegate_to_merged_series():
    cluster = Cluster.from_spec(ClusterSpec.homogeneous(2))
    for node in cluster.nodes:
        node.timeline.set_power(1.0, 10.0)
        node.timeline.set_power(3.0, 30.0)
    assert cluster.power_at(2.0) == pytest.approx(20.0)
    assert cluster.peak_power(0.0, 4.0) == pytest.approx(60.0)
    assert cluster.average_power(1.0, 3.0) == pytest.approx(20.0)
    by_node = cluster.node_average_powers(1.0, 3.0)
    assert by_node == {0: pytest.approx(10.0), 1: pytest.approx(10.0)}


def test_abandoned_transfer_closes_after_its_cluster_is_collected():
    # The fabric's NIC listener holds the cluster weakly; a transfer left
    # mid-flight and closed after the cluster is gone must not raise.
    cluster = Cluster.from_spec(ClusterSpec.homogeneous(2))
    engine = cluster.engine
    transfer = cluster.fabric.transfer(0, 1, 10_000_000)
    engine.process(transfer)
    engine.run(until=0.01)
    del cluster
    gc.collect()
    transfer.close()
