"""Idle nodes cost nothing until touched.

A node no rank, fault or waiter touches is not materialised: its
group's twin stands for it, so it holds no node object, no fabric link
state and no notification events, and its group's strategy setting and
cpuspeed polls happen once on the twin.  The observable contract: an FT
job on the 1024-node four-generation spec dispatches exactly as many
events as the same job on an exact-size cluster, under any strategy,
and touches only the ranked nodes.
"""

import pytest

from repro.analysis.runner import run_measured
from repro.dvs.cpuspeed import CpuspeedConfig
from repro.dvs.strategy import CpuspeedStrategy
from repro.hardware.cluster import Cluster
from repro.hardware.cpu import SimCPU
from repro.hardware.dvfs import PENTIUM_M_1400
from repro.hardware.network import NetworkConfig, NetworkFabric
from repro.hardware.spec import ClusterSpec
from repro.sim import Engine
from repro.workloads.nas_ft import NasFT

from tests.hardware.test_spec_equivalence import LARGE_SPEC_STRATEGIES, SPEC_1024

STRATEGIES = {
    **LARGE_SPEC_STRATEGIES,
    # polls several times within the job, so idle daemons do step down
    "cpuspeed": lambda: CpuspeedStrategy(CpuspeedConfig(interval=0.005)),
}


def _ft_run(spec, strategy):
    return run_measured(
        NasFT("S", n_ranks=8, iterations=1),
        STRATEGIES[strategy](),
        cluster_factory=lambda: Cluster.from_spec(spec),
    )


@pytest.mark.parametrize("strategy", ["cpuspeed", "dyn", "stat"])
def test_idle_nodes_dispatch_no_events(strategy):
    big = _ft_run(SPEC_1024, strategy)
    exact = _ft_run(ClusterSpec.homogeneous(8), strategy)
    assert (
        big.cluster.engine.stats.dispatched
        == exact.cluster.engine.stats.dispatched
    )
    assert big.point.delay == exact.point.delay
    assert big.cluster.touched_nodes == tuple(range(8))


def test_only_ranked_endpoints_hold_link_state():
    run = _ft_run(SPEC_1024, "stat")
    assert run.cluster.fabric.wired_endpoints == tuple(range(8))


# ---------------------------------------------------------------------------
# CPU notification events
# ---------------------------------------------------------------------------
@pytest.fixture
def cpu():
    return SimCPU(Engine(), PENTIUM_M_1400)


def test_frequency_flip_without_waiter_schedules_nothing(cpu):
    cpu.set_frequency(PENTIUM_M_1400.slowest)
    cpu.set_core_allocation(0.5)
    assert cpu.engine.pending == 0
    cpu.engine.run()
    assert cpu.engine.stats.dispatched == 0


def test_late_frequency_waiter_wakes_on_the_next_flip(cpu):
    eng = cpu.engine
    woke = []

    def waiter():
        yield eng.timeout(1.0)
        point = yield cpu.freq_changed
        woke.append((eng.now, point.frequency))

    def driver():
        cpu.set_frequency(PENTIUM_M_1400.slowest)  # nobody waiting yet
        yield eng.timeout(2.0)
        cpu.set_frequency(PENTIUM_M_1400.fastest)

    eng.process(waiter())
    eng.process(driver())
    eng.run()
    assert woke == [(2.0, PENTIUM_M_1400.fastest.frequency)]


def test_power_restored_waiter_wakes_after_an_unwatched_restart(cpu):
    eng = cpu.engine
    cpu.enable_power_gating()
    cpu.power_off()
    cpu.power_on()  # nobody waiting: schedules nothing
    assert eng.pending == 0
    woke = []

    def waiter():
        yield cpu.power_restored
        woke.append(eng.now)

    def driver():
        yield eng.timeout(1.0)
        cpu.power_off()
        yield eng.timeout(1.0)
        cpu.power_on()

    eng.process(waiter())
    eng.process(driver())
    eng.run()
    assert woke == [2.0]


# ---------------------------------------------------------------------------
# fabric endpoints
# ---------------------------------------------------------------------------
def _fabric(engine, n=4):
    return NetworkFabric(engine, n, NetworkConfig(latency=0.0))


def test_activity_flip_without_waiter_schedules_nothing():
    eng = Engine()
    fab = _fabric(eng)

    def sender():
        yield from fab.transfer(0, 1, 1000)

    eng.process(sender())
    eng.run()
    # The transfer's own events only — process start, the tx and rx
    # grants, the wire timeout, process end — and none for the four
    # activity flips nobody waited on.
    assert eng.stats.dispatched == 5


@pytest.mark.parametrize("engine_cls", [Engine])
def test_late_activity_waiter_wakes_on_the_next_flip(engine_cls):
    eng = engine_cls()
    fab = _fabric(eng)
    woke = []

    def sender():
        yield from fab.transfer(0, 1, 1000)  # flips with nobody waiting
        yield eng.timeout(1.0)
        yield from fab.transfer(0, 1, 1000)

    def waiter():
        yield eng.timeout(0.5)
        yield fab.activity_changed(1)
        woke.append((eng.now, fab.traffic_active(1)))

    eng.process(sender())
    eng.process(waiter())
    eng.run()
    first_end = fab.config.wire_time(1000)
    assert woke == [(first_end + 1.0, True)]


def test_untouched_endpoints_hold_no_link_state():
    eng = Engine()
    fab = _fabric(eng, n=1024)
    assert fab.wired_endpoints == ()
    assert not fab.traffic_active(900)
    assert not fab.tx_active(900) and not fab.rx_active(900)

    def sender():
        yield from fab.transfer(3, 7, 1000)
        yield from fab.transfer(5, 5, 1000)  # loopback: no NIC involved

    eng.process(sender())
    eng.run()
    assert fab.wired_endpoints == (3, 7)


def test_latency_penalty_on_an_untouched_endpoint_takes_effect():
    eng = Engine()
    fab = NetworkFabric(eng, 1024, NetworkConfig(latency=1e-4))
    fab.set_link_latency_penalty(900, 0.25)
    assert fab.wired_endpoints == ()
    assert fab.link_latency_penalty(900) == 0.25

    def sender():
        return (yield from fab.transfer(0, 900, 0))

    proc = eng.process(sender())
    assert eng.run(until=proc) == pytest.approx(1e-4 + 0.25)
