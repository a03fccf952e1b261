#!/usr/bin/env python
"""Writing your own DVS strategy against the framework's interfaces.

Implements a *history-aware governor*: like cpuspeed it watches
``/proc/stat``, but instead of one-step-down it remembers the utilisation
of the last N windows and jumps straight to the frequency whose headroom
matches the observed busy fraction.  The example then compares it with
cpuspeed and the static ladder on a communication-bound workload — and
shows that it, too, is blinded by MPICH's busy-waiting (the paper's §4
argument applies to *any* utilisation-driven governor, not just cpuspeed).

The pattern is the one every per-node governor in ``repro.dvs`` follows:
subclass ``NodeGovernor`` for the per-node state and its ``poll(now)``
decision, and ``GovernorStrategy`` to put one on every node, all polled
by one clock (``start_poll_clock``).

The clone contract: nodes no rank touches are stood for by one twin
per group, and so is their governor, which polls once for all of them.
When one of those nodes is first touched mid-run, ``NodeGovernor.clone``
copies the twin's governor for it.  The copy shares the config and the
clock and gets its own copy of every list, deque, dict and set
attribute: here the ``history`` deque and the decision log, plus the
``/proc/stat`` baseline (immutable, so shared).  A governor keeping
mutable state of another kind must override ``clone`` to copy it.

Run with::

    python examples/custom_dvs_strategy.py
"""

from collections import deque
from dataclasses import dataclass

from repro.analysis import format_crescendo, run_measured, static_crescendo
from repro.analysis.runner import cpuspeed_run
from repro.dvs import GovernorStrategy, NodeGovernor
from repro.experiments.common import LADDER_FREQUENCIES, normalize_series, points_of
from repro.workloads import NasFT


@dataclass(frozen=True)
class HistoryConfig:
    """The governor's knobs; the clock reads ``interval``."""

    interval: float = 0.5  #: seconds between polls
    window: int = 4  #: polls in the moving average


class HistoryGovernor(NodeGovernor):
    """Per-node governor: frequency tracks a moving utilisation average.

    Like every per-node governor it keeps only its own node's state
    (the ``/proc/stat`` baseline, the history, the decision log) and
    acts in :meth:`poll`; a clock decides when polls happen.
    """

    Config = HistoryConfig

    def __init__(self, node, cpufreq, config=None):
        super().__init__(node, cpufreq, config)
        self.history = deque(maxlen=self.config.window)

    def poll(self, now):
        self.history.append(self.utilization())
        avg = sum(self.history) / len(self.history)
        # Pick the slowest frequency that still covers the busy share.
        table = self.node.table
        target = table.fastest.frequency
        for point in table:  # slowest first
            if point.frequency >= avg * table.fastest.frequency:
                target = point.frequency
                break
        self.cpufreq.set_speed_now(target)
        self.decisions.append((now, avg, target))


class HistoryStrategy(GovernorStrategy):
    """One HistoryGovernor per node, all polled by one clock.

    Every ``interval`` the clock polls each node's governor in node
    order, as separate per-node daemons waking together would run.
    """

    kind = "history"
    Governor = HistoryGovernor


def main() -> None:
    workload = NasFT("A", n_ranks=8, iterations=4)
    print(f"comparing governors on {workload.name} (communication-bound)...\n")

    raw = {
        "stat": points_of(static_crescendo(workload, LADDER_FREQUENCIES)),
        "cpuspeed": [cpuspeed_run(workload).point],
        "history": [run_measured(workload, HistoryStrategy()).point],
    }
    normed = normalize_series(raw)
    print(format_crescendo(raw, title="custom governor vs cpuspeed vs static "
                                      "(normalized to static 1.4 GHz)"))
    print()
    h = normed["history"][0]
    print(f"history governor: E={h.energy:.3f} D={h.delay:.3f} — like "
          "cpuspeed, it reads busy-waiting as load and stays fast; "
          "utilisation-driven governors cannot see MPI slack (paper §4)")


if __name__ == "__main__":
    main()
