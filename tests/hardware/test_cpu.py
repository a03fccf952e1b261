"""Tests for the simulated CPU: work timing, DVS rescaling, wait policy."""

import pytest

from repro.hardware.activity import CpuActivity
from repro.hardware.cpu import SimCPU
from repro.hardware.dvfs import PENTIUM_M_1400
from repro.sim import Engine
from repro.util.units import MHZ


@pytest.fixture
def eng():
    return Engine()


@pytest.fixture
def cpu(eng):
    return SimCPU(eng, PENTIUM_M_1400)


def run(eng, gen):
    p = eng.process(gen)
    return eng.run(until=p)


def test_cycles_take_cycles_over_frequency(eng, cpu):
    def prog():
        yield from cpu.run_cycles(1.4e9)
        return eng.now

    assert run(eng, prog()) == pytest.approx(1.0)


def test_slower_frequency_takes_longer(eng, cpu):
    cpu.set_frequency(PENTIUM_M_1400.point_for(600 * MHZ))

    def prog():
        yield from cpu.run_cycles(1.4e9)
        return eng.now

    assert run(eng, prog()) == pytest.approx(1.4e9 / 600e6)


def test_zero_cycles_completes_instantly(eng, cpu):
    def prog():
        yield from cpu.run_cycles(0)
        return eng.now

    assert run(eng, prog()) == 0.0


def test_negative_cycles_rejected(eng, cpu):
    def prog():
        yield from cpu.run_cycles(-5)

    with pytest.raises(ValueError):
        run(eng, prog())


@pytest.mark.parametrize("utilization", [-0.1, 1.5])
def test_public_state_changes_reject_a_bad_utilization(eng, cpu, utilization):
    with pytest.raises(ValueError):
        cpu.set_state(CpuActivity.PROTO, utilization)

    def prog():
        yield from cpu.stall(0.1, CpuActivity.PROTO, utilization)

    with pytest.raises(ValueError):
        run(eng, prog())
    assert cpu.state is CpuActivity.IDLE and eng.now == 0.0


def test_midwork_frequency_change_retimes_remainder(eng, cpu):
    """Half the work at 1.4 GHz, half at 700M-cycle equivalent at 600 MHz."""

    def governor():
        yield eng.timeout(0.5)  # 0.7e9 cycles done at 1.4 GHz
        cpu.set_frequency(PENTIUM_M_1400.point_for(600 * MHZ))

    def prog():
        yield from cpu.run_cycles(1.4e9)
        return eng.now

    eng.process(governor())
    p = eng.process(prog())
    finish = eng.run(until=p)
    assert finish == pytest.approx(0.5 + 0.7e9 / 600e6)


def test_multiple_frequency_changes(eng, cpu):
    table = PENTIUM_M_1400

    def governor():
        yield eng.timeout(0.25)
        cpu.set_frequency(table.point_for(800 * MHZ))
        yield eng.timeout(0.25)
        cpu.set_frequency(table.point_for(1400 * MHZ))

    def prog():
        yield from cpu.run_cycles(1.4e9)
        return eng.now

    eng.process(governor())
    p = eng.process(prog())
    finish = eng.run(until=p)
    # 0.25s @1.4GHz = 0.35e9; 0.25s @800 = 0.2e9; remaining 0.85e9 @1.4GHz
    assert finish == pytest.approx(0.5 + 0.85e9 / 1.4e9)
    assert cpu.transition_count == 2


def test_stall_duration_is_frequency_independent(eng, cpu):
    cpu.set_frequency(PENTIUM_M_1400.slowest)

    def prog():
        yield from cpu.stall(0.125, CpuActivity.MEMSTALL)
        return eng.now

    assert run(eng, prog()) == pytest.approx(0.125)


def test_state_restored_to_idle_after_work(eng, cpu):
    def prog():
        yield from cpu.run_cycles(1e6)

    run(eng, prog())
    assert cpu.state is CpuActivity.IDLE


def test_procstat_accounts_work_as_busy(eng, cpu):
    def prog():
        yield from cpu.run_cycles(1.4e9)  # 1 s busy
        yield eng.timeout(2.0)  # 2 s idle
        yield from cpu.stall(0.5, CpuActivity.MEMSTALL)

    run(eng, prog())
    cpu.finalize()
    s = cpu.procstat.snapshot()
    assert s.busy == pytest.approx(1.5)
    assert s.idle == pytest.approx(2.0)


def test_set_frequency_rejects_illegal_point(eng, cpu):
    from repro.hardware.dvfs import OperatingPoint

    with pytest.raises(KeyError):
        cpu.set_frequency(OperatingPoint(900 * MHZ, 1.2))


def test_set_same_frequency_is_noop(eng, cpu):
    cpu.set_frequency(PENTIUM_M_1400.fastest)
    assert cpu.transition_count == 0


def test_wait_event_spins_then_blocks(eng, cpu):
    """State is SPIN for the threshold, then IDLE until the event."""
    states = []

    def sampler():
        while True:
            yield eng.timeout(0.001)
            states.append((round(eng.now, 4), cpu.state))

    ev = eng.event()

    def waiter():
        yield from cpu.wait_event(ev, spin_threshold=0.005)
        return eng.now

    def trigger():
        yield eng.timeout(0.02)
        ev.succeed("msg")

    eng.process(sampler())
    p = eng.process(waiter())
    eng.process(trigger())
    eng.run(until=p)

    spin_states = [s for t, s in states if t <= 0.005]
    idle_states = [s for t, s in states if 0.006 <= t <= 0.019]
    assert all(s is CpuActivity.SPIN for s in spin_states)
    assert all(s is CpuActivity.IDLE for s in idle_states)


def test_wait_event_returns_event_value(eng, cpu):
    ev = eng.event()

    def waiter():
        value = yield from cpu.wait_event(ev, spin_threshold=0.0)
        return value

    def trigger():
        yield eng.timeout(1.0)
        ev.succeed(123)

    p = eng.process(waiter())
    eng.process(trigger())
    assert eng.run(until=p) == 123


def test_wait_event_immediate_event_never_blocks(eng, cpu):
    ev = eng.event()
    ev.succeed("now")

    def waiter():
        value = yield from cpu.wait_event(ev, spin_threshold=0.005)
        return (value, eng.now)

    p = eng.process(waiter())
    value, t = eng.run(until=p)
    assert value == "now"
    assert t == 0.0


def test_wait_event_infinite_spin_never_blocks(eng, cpu):
    ev = eng.event()
    samples = []

    def sampler():
        for _ in range(5):
            yield eng.timeout(1.0)
            samples.append(cpu.state)

    def waiter():
        yield from cpu.wait_event(ev, spin_threshold=float("inf"))

    def trigger():
        yield eng.timeout(10.0)
        ev.succeed(None)

    eng.process(sampler())
    p = eng.process(waiter())
    eng.process(trigger())
    eng.run(until=p)
    assert all(s is CpuActivity.SPIN for s in samples)


def test_on_change_callback_fires_on_state_and_freq_changes(eng):
    calls = []
    cpu = SimCPU(eng, PENTIUM_M_1400, on_change=lambda: calls.append(eng.now))
    cpu.set_frequency(PENTIUM_M_1400.slowest)
    cpu.set_state(CpuActivity.ACTIVE)
    cpu.set_state(CpuActivity.ACTIVE)  # no-op, no callback
    assert len(calls) == 2
