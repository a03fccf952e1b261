"""Tests for the Ethernet fabric: timing, contention, activity signals."""

import pytest

from repro.hardware.network import NetworkConfig, NetworkFabric
from repro.sim import Engine
from repro.util.units import KIB, MIB


@pytest.fixture
def eng():
    return Engine()


def make_fabric(eng, n=4, **overrides):
    defaults = dict(latency=0.0, chunk_bytes=64 * KIB)
    defaults.update(overrides)
    return NetworkFabric(eng, n, NetworkConfig(**defaults))


def run(eng, gen):
    p = eng.process(gen)
    return eng.run(until=p)


def test_payload_rate():
    cfg = NetworkConfig(bandwidth_bps=100e6, efficiency=0.9)
    assert cfg.payload_rate == pytest.approx(100e6 * 0.9 / 8)
    assert cfg.wire_time(cfg.payload_rate) == pytest.approx(1.0)


def test_uncontended_transfer_time(eng):
    fab = make_fabric(eng)
    nbytes = 9 * MIB

    def prog():
        duration = yield from fab.transfer(0, 1, nbytes)
        return duration

    duration = run(eng, prog())
    assert duration == pytest.approx(nbytes / fab.config.payload_rate)


def test_latency_added_once_per_message(eng):
    fab = make_fabric(eng, latency=100e-6)

    def prog():
        duration = yield from fab.transfer(0, 1, 128 * KIB)
        return duration

    expected = 100e-6 + (128 * KIB) / fab.config.payload_rate
    assert run(eng, prog()) == pytest.approx(expected)


def test_zero_byte_message_costs_only_latency(eng):
    fab = make_fabric(eng, latency=50e-6)

    def prog():
        return (yield from fab.transfer(0, 1, 0))

    assert run(eng, prog()) == pytest.approx(50e-6)


def test_loopback_uses_memcpy_speed(eng):
    fab = make_fabric(eng, latency=100e-6)
    nbytes = 10 * MIB

    def prog():
        return (yield from fab.transfer(2, 2, nbytes))

    assert run(eng, prog()) == pytest.approx(nbytes / fab.config.loopback_bandwidth)


def test_incast_serialises_on_receiver_link(eng):
    """Two senders into one receiver take ~2x the solo time (rx shared)."""
    fab = make_fabric(eng)
    nbytes = 4 * MIB
    done = {}

    def sender(src):
        yield from fab.transfer(src, 0, nbytes)
        done[src] = eng.now

    eng.process(sender(1))
    eng.process(sender(2))
    eng.run()
    solo = nbytes / fab.config.payload_rate
    assert max(done.values()) == pytest.approx(2 * solo, rel=0.01)


def test_disjoint_flows_do_not_contend(eng):
    fab = make_fabric(eng)
    nbytes = 4 * MIB
    done = {}

    def sender(src, dst):
        yield from fab.transfer(src, dst, nbytes)
        done[src] = eng.now

    eng.process(sender(0, 1))
    eng.process(sender(2, 3))
    eng.run()
    solo = nbytes / fab.config.payload_rate
    assert max(done.values()) == pytest.approx(solo, rel=0.01)


def test_full_duplex_links(eng):
    """A→B and B→A run concurrently (tx and rx are separate resources)."""
    fab = make_fabric(eng)
    nbytes = 4 * MIB
    done = {}

    def sender(src, dst):
        yield from fab.transfer(src, dst, nbytes)
        done[src] = eng.now

    eng.process(sender(0, 1))
    eng.process(sender(1, 0))
    eng.run()
    solo = nbytes / fab.config.payload_rate
    assert max(done.values()) == pytest.approx(solo, rel=0.01)


def test_max_rate_caps_bandwidth(eng):
    fab = make_fabric(eng)
    nbytes = 1 * MIB
    capped_rate = fab.config.payload_rate / 4

    def prog():
        return (yield from fab.transfer(0, 1, nbytes, max_rate=capped_rate))

    assert run(eng, prog()) == pytest.approx(nbytes / capped_rate)


def test_activity_flags_during_transfer(eng):
    fab = make_fabric(eng)
    observed = []

    def sender():
        yield from fab.transfer(0, 1, 1 * MIB)

    def observer():
        yield eng.timeout(0.01)
        observed.append(
            (
                fab.tx_active(0),
                fab.rx_active(1),
                fab.tx_active(1),
                fab.rx_active(0),
                fab.traffic_active(0),
                fab.traffic_active(2),
            )
        )

    eng.process(sender())
    eng.process(observer())
    eng.run()
    assert observed == [(True, True, False, False, True, False)]
    assert not fab.traffic_active(0)  # all released at the end


def test_activity_changed_event_fires(eng):
    fab = make_fabric(eng)
    times = []

    def watcher():
        yield fab.activity_changed(1)
        times.append(eng.now)

    def sender():
        yield eng.timeout(0.5)
        yield from fab.transfer(0, 1, 64 * KIB)

    eng.process(watcher())
    eng.process(sender())
    eng.run()
    assert times == [0.5]


def test_activity_listener_callbacks(eng):
    fab = make_fabric(eng)
    flips = []
    fab.add_activity_listener(
        lambda node: flips.append((node, fab.traffic_active(node)))
    )

    def sender():
        yield from fab.transfer(0, 1, 64 * KIB)

    run(eng, sender())
    assert flips == [(0, True), (1, True), (0, False), (1, False)]


def test_bytes_transferred_accounting(eng):
    fab = make_fabric(eng)

    def prog():
        yield from fab.transfer(0, 1, 1000)
        yield from fab.transfer(2, 2, 999)  # loopback not counted

    run(eng, prog())
    assert fab.bytes_transferred == 1000


def test_endpoint_validation(eng):
    fab = make_fabric(eng, n=2)

    def bad():
        yield from fab.transfer(0, 5, 10)

    with pytest.raises(ValueError):
        run(eng, bad())


def test_config_validation():
    with pytest.raises(ValueError):
        NetworkConfig(bandwidth_bps=0)
    with pytest.raises(ValueError):
        NetworkConfig(efficiency=1.5)
    with pytest.raises(ValueError):
        NetworkConfig(efficiency=0.0)
    with pytest.raises(ValueError):
        NetworkConfig(latency=-1.0)
    with pytest.raises(ValueError):
        NetworkFabric(Engine(), 0)
