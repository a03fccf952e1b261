"""Reference walks that the production fast paths are tested against.

Each function is the plain event-by-event (or segment-by-segment)
version of a fast path in ``repro``:

* :func:`run_cycles_walk` is ``SimCPU.run_cycles`` as one race of a
  completion timeout against ``freq_changed`` per scheduling round,
  instead of one armed quantum re-timed in place;
* :func:`chunk_hold` sends one chunk per link hold, the per-chunk walk
  that ``NetworkFabric._bulk_hold`` folds into one completion;
* :func:`power_at_walk` and :func:`peak_walk` answer timeline queries by
  bisecting and scanning the recorded change points, where the
  ``PowerSeries`` kernel uses its columns.

:func:`using_walks` installs the first two in place of the bulk paths,
so a whole experiment can run on the walks and be compared with the
production run.
"""

import bisect
from contextlib import contextmanager
from typing import Iterator

from repro.hardware.activity import CpuActivity
from repro.hardware.cpu import _CYCLE_EPSILON, SimCPU
from repro.hardware.network import NetworkFabric
from repro.util.validation import check_nonnegative


def run_cycles_walk(cpu, cycles, state=CpuActivity.ACTIVE):
    """``SimCPU.run_cycles`` as a timeout-vs-``freq_changed`` race."""
    check_nonnegative("cycles", cycles)
    if cpu.cycles_per_work != 1.0:
        cycles = cycles * cpu.cycles_per_work
    engine = cpu.engine
    remaining = float(cycles)
    cpu.set_state(state, 1.0)
    try:
        while remaining > _CYCLE_EPSILON:
            if not cpu.powered:
                cpu.set_state(CpuActivity.IDLE, 1.0)
                yield cpu.power_restored
                cpu.set_state(state, 1.0)
                continue
            freq = cpu.effective_frequency
            started = engine.now
            done = engine.timeout(remaining / freq)
            yield engine.any_of([done, cpu.freq_changed])
            if done.processed:
                remaining = 0.0
            else:
                remaining -= (engine.now - started) * freq
    finally:
        cpu.set_state(CpuActivity.IDLE, 1.0)


def chunk_hold(fabric, remaining, rate, tx, rx):
    """Send one chunk per link hold; return the bytes still to send."""
    chunk = min(fabric.config.chunk_bytes, remaining)
    yield fabric.engine.timeout(chunk / rate)
    return remaining - chunk


@contextmanager
def using_walks() -> Iterator[None]:
    """Run ``SimCPU.run_cycles`` and the fabric's link holds as walks."""
    saved = SimCPU.run_cycles, NetworkFabric._bulk_hold
    SimCPU.run_cycles, NetworkFabric._bulk_hold = run_cycles_walk, chunk_hold
    try:
        yield
    finally:
        SimCPU.run_cycles, NetworkFabric._bulk_hold = saved


def power_at_walk(timeline, time):
    """The timeline's power at ``time``, by bisecting its change points."""
    times, watts = zip(*timeline.segments())
    if time < times[0]:
        raise ValueError(f"t={time} precedes timeline start {times[0]}")
    return watts[bisect.bisect_right(times, time) - 1]


def peak_walk(timeline, t0, t1):
    """The timeline's peak power over ``[t0, t1]``, by a scan."""
    times, watts = zip(*timeline.segments())
    if t1 < t0:
        raise ValueError(f"peak interval reversed: [{t0}, {t1}]")
    if t0 < times[0]:
        raise ValueError(f"t0={t0} precedes timeline start {times[0]}")
    idx = bisect.bisect_right(times, t0) - 1
    peak = watts[idx]
    for i in range(idx + 1, len(times)):
        if times[i] > t1:
            break
        peak = max(peak, watts[i])
    return peak
