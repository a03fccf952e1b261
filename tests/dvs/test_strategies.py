"""Tests for DVS strategies and the dynamic controller."""

import pytest

from repro.dvs import (
    CpuspeedStrategy,
    DynamicController,
    DynamicStrategy,
    NullController,
    StaticStrategy,
)
from repro.dvs.cpufreq import CpuFreq
from repro.hardware.cluster import Cluster
from repro.hardware.spec import ClusterSpec
from repro.simmpi import run_spmd
from repro.util.units import MHZ


def test_static_strategy_sets_all_nodes():
    cluster = Cluster.from_spec(ClusterSpec.homogeneous(4))
    strat = StaticStrategy(800 * MHZ)
    strat.prepare(cluster)
    assert all(n.cpu.frequency == 800 * MHZ for n in cluster.nodes)
    assert strat.name == "stat@800MHz"
    assert isinstance(strat.controller(None), NullController)


def test_cpuspeed_strategy_starts_daemons_at_max():
    cluster = Cluster.from_spec(ClusterSpec.homogeneous(3))
    strat = CpuspeedStrategy()
    strat.prepare(cluster)
    assert len(strat.governors) == 3
    assert all(n.cpu.frequency == 1400 * MHZ for n in cluster.nodes)
    # Idle cluster: daemons scale everyone down over time.
    cluster.engine.timeout(10.0)
    cluster.engine.run(until=10.0)
    strat.teardown(cluster)
    assert all(n.cpu.frequency == 600 * MHZ for n in cluster.nodes)


def test_dynamic_strategy_scales_inside_regions():
    cluster = Cluster.from_spec(ClusterSpec.homogeneous(2))
    strat = DynamicStrategy(base_frequency=1000 * MHZ)
    strat.prepare(cluster)
    seen = []

    def program(comm, strategy):
        dvs = strategy.controller(comm)
        seen.append(comm.cpu.frequency)
        yield from dvs.region_enter("fft")
        seen.append(comm.cpu.frequency)
        yield from comm.cpu.run_cycles(1e6)
        yield from dvs.region_exit("fft")
        seen.append(comm.cpu.frequency)
        return None

    run_spmd(cluster, program, n_ranks=1, program_args=(strat,))
    assert seen == [1000 * MHZ, 600 * MHZ, 1000 * MHZ]


def test_dynamic_strategy_custom_low_frequency():
    cluster = Cluster.from_spec(ClusterSpec.homogeneous(1))
    strat = DynamicStrategy(base_frequency=1400 * MHZ, low_frequency=800 * MHZ)
    strat.prepare(cluster)

    def program(comm, strategy):
        dvs = strategy.controller(comm)
        yield from dvs.region_enter("x")
        freq = comm.cpu.frequency
        yield from dvs.region_exit("x")
        return freq

    result = run_spmd(cluster, program, program_args=(strat,))
    assert result.returns[0] == 800 * MHZ


def test_dynamic_controller_region_filter():
    cluster = Cluster.from_spec(ClusterSpec.homogeneous(1))
    cpufreq = CpuFreq(cluster.nodes[0], cluster.calibration)
    ctl = DynamicController(cpufreq, 600 * MHZ, regions=["fft"])

    def program():
        yield from ctl.region_enter("setup")  # filtered out: no effect
        assert cpufreq.current_frequency == 1400 * MHZ
        yield from ctl.region_enter("fft")
        assert cpufreq.current_frequency == 600 * MHZ
        yield from ctl.region_exit("fft")
        yield from ctl.region_exit("setup")
        return cpufreq.current_frequency

    p = cluster.engine.process(program())
    assert cluster.engine.run(until=p) == 1400 * MHZ


def test_dynamic_controller_mismatched_exit_raises():
    cluster = Cluster.from_spec(ClusterSpec.homogeneous(1))
    cpufreq = CpuFreq(cluster.nodes[0], cluster.calibration)
    ctl = DynamicController(cpufreq, 600 * MHZ)

    def program():
        yield from ctl.region_exit("never-entered")

    with pytest.raises(RuntimeError, match="no open region"):
        p = cluster.engine.process(program())
        cluster.engine.run(until=p)


def test_dynamic_nested_regions_restore_in_order():
    cluster = Cluster.from_spec(ClusterSpec.homogeneous(1))
    cpufreq = CpuFreq(cluster.nodes[0], cluster.calibration)
    cpufreq.set_speed_now(1200 * MHZ)
    ctl = DynamicController(cpufreq, 600 * MHZ)

    def program():
        yield from ctl.region_enter("outer")
        yield from ctl.region_enter("inner")
        yield from ctl.region_exit("inner")
        mid = cpufreq.current_frequency  # back to outer's low speed
        yield from ctl.region_exit("outer")
        return (mid, cpufreq.current_frequency)

    p = cluster.engine.process(program())
    mid, final = cluster.engine.run(until=p)
    assert mid == 600 * MHZ
    assert final == 1200 * MHZ


def test_null_controller_is_free():
    cluster = Cluster.from_spec(ClusterSpec.homogeneous(1))
    ctl = NullController()

    def program():
        yield from ctl.region_enter("fft")
        yield from ctl.region_exit("fft")
        return cluster.engine.now

    p = cluster.engine.process(program())
    assert cluster.engine.run(until=p) == 0.0
