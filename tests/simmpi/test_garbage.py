"""An MPI run frees its event graph by reference counting.

A condition that fires unsubscribes from the events it raced, a
cancelled event drops its callbacks, and ``data_done`` carries no
``Message``, so a run's events, conditions and envelopes die with their
last reference instead of waiting for the cycle collector.  The check is
on growth: what a run leaves to ``gc.collect()`` must not grow with the
number of FT iterations (each one is thousands of progress-loop waits).
No timing is involved.
"""

import gc

from repro.analysis.runner import run_measured
from repro.dvs.strategy import CpuspeedStrategy
from repro.workloads.nas_ft import NasFT

#: Cyclic objects one extra FT.B iteration may add to the collector's
#: count.  With stale subscriptions a 4-iteration run left about 6 850
#: more objects than a 1-iteration run; without them the gap is about 150.
MAX_GROWTH = 300


def _cyclic_garbage(iterations):
    gc.collect()
    gc.disable()
    try:
        run_measured(
            NasFT("B", n_ranks=8, iterations=iterations), CpuspeedStrategy()
        )
        return gc.collect()
    finally:
        gc.enable()


def test_cyclic_garbage_does_not_grow_with_iterations():
    one, four = _cyclic_garbage(1), _cyclic_garbage(4)
    assert abs(four - one) < MAX_GROWTH, (one, four)
