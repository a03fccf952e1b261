"""Emulation of the Fedora ``cpuspeed`` daemon (paper's first strategy).

The real daemon wakes periodically, derives CPU utilisation from
``/proc/stat``, jumps to the maximum frequency when the CPU looks busy and
steps down one P-state when it looks idle.  Because MPICH-1 busy-waits,
``/proc/stat`` shows communication-bound MPI ranks as ~100 % busy, so the
daemon almost never scales down — the paper's Figure 3 negative result.

The daemon runs *per node* and acts independently (paper §4: "the default
strategy allowing the cpuspeed daemon complete control over the DVS of
each individual node independently").

Every per-node governor (:class:`NodeGovernor`: this daemon, ondemand)
keeps its own node's state, the previous ``/proc/stat`` snapshot and
the decision log, but runs no process of its own: one clock
(:func:`start_poll_clock`) wakes every ``interval``, polls each live
governor in node order and re-arms after the sweep.  During a sweep
nothing but the governors schedules at ``now + interval``, so this is
the order separate per-node processes would be dispatched in, and an
event a poll schedules for ``now`` still runs after the whole sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional, Sequence

from repro.dvs.cpufreq import CpuFreq
from repro.dvs.policy import cpuspeed_decision
from repro.hardware.node import Node
from repro.sim.engine import Engine
from repro.sim.events import Event
from repro.sim.process import Process
from repro.util.validation import check_fraction, check_positive

__all__ = ["CpuspeedConfig", "CpuspeedDaemon", "NodeGovernor", "start_poll_clock"]


@dataclass(frozen=True)
class CpuspeedConfig:
    """Daemon tuning knobs (defaults mirror the Fedora Core 2 package)."""

    interval: float = 1.0  #: seconds between utilisation checks
    up_threshold: float = 0.90  #: utilisation at/above which → max speed
    down_threshold: float = 0.25  #: utilisation at/below which → one step down

    def __post_init__(self) -> None:
        check_positive("interval", self.interval)
        check_fraction("up_threshold", self.up_threshold)
        check_fraction("down_threshold", self.down_threshold)
        if self.down_threshold >= self.up_threshold:
            raise ValueError(
                "down_threshold must be below up_threshold "
                f"({self.down_threshold} >= {self.up_threshold})"
            )


class NodeGovernor:
    """One node's utilisation-driven governor; subclasses set
    ``Config`` (whose ``interval`` is the poll period) and :meth:`poll`."""

    def __init__(self, node: Node, cpufreq: CpuFreq, config=None):
        self.node = node
        self.cpufreq = cpufreq
        self.config = config or self.Config()
        self.stopped = False
        #: the clock process polling this governor, once started
        self.clock: Optional[Process] = None
        #: decision log: (time, utilization, chosen frequency Hz)
        self.decisions: list = []
        self._prev = None

    def start(self, engine: Engine) -> Process:
        """Poll this governor alone, on a clock of one."""
        name = f"{type(self).__name__}[node{self.node.node_id}]"
        return start_poll_clock(engine, self.config.interval, [self], name)

    def stop(self) -> None:
        """Skip this governor from its clock's next wake-up on."""
        self.stopped = True

    def begin(self) -> None:
        """Take the baseline snapshot the first poll measures from."""
        self._prev = self.node.procstat.snapshot()

    def utilization(self) -> float:
        """Busy fraction since the previous poll."""
        # The open accounting segment must be folded in, or a rank that
        # has been spinning since before our last wake-up would look idle.
        self.node.cpu.finalize()
        current = self.node.procstat.snapshot()
        util = current.utilization_since(self._prev)
        self._prev = current
        return util

    def poll(self, now: float) -> None:
        raise NotImplementedError


def start_poll_clock(
    engine: Engine, interval: float, governors: Sequence[NodeGovernor], name: str
) -> Process:
    """Poll ``governors`` every ``interval`` seconds, in the given
    order, until all of them are stopped."""
    if any(governor.clock is not None for governor in governors):
        raise RuntimeError("governor already started")
    clock = engine.process(_tick(engine, interval, list(governors)), name=name)
    for governor in governors:
        governor.clock = clock
    return clock


def _tick(
    engine: Engine, interval: float, governors: Sequence[NodeGovernor]
) -> Generator[Event, object, None]:
    for governor in governors:
        governor.begin()
    while not all(governor.stopped for governor in governors):
        yield engine.timeout(interval)
        now = engine.now
        for governor in governors:
            if not governor.stopped:
                governor.poll(now)


class CpuspeedDaemon(NodeGovernor):
    """One node's cpuspeed instance."""

    Config = CpuspeedConfig

    def poll(self, now: float) -> None:
        util = self.utilization()
        freq = self.node.cpu.frequency
        target = cpuspeed_decision(
            util,
            freq,
            self.node.table.frequencies,
            up_threshold=self.config.up_threshold,
            down_threshold=self.config.down_threshold,
        )
        if target != freq:
            self.cpufreq.set_speed_now(target)
        self.decisions.append((now, util, target))
