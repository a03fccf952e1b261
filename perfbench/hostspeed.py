"""How fast the host runs right now, from a fixed calibration loop.

On a shared virtual machine the host slows by up to 1.7x for seconds to
minutes at a time, and the guest cannot see it: CPU time grows with
wall time.  A fixed loop that touches no ``repro`` code slows with it,
so timing that loop next to the measured work gives a speed factor, and
a wall time multiplied by that factor reads as the time the work would
have taken on an unloaded host.

The loop mixes the interpreter work the simulator does (float arithmetic,
dict and heap operations) with NumPy calls on a few thousand floats, so
it slows about as much as the simulator does.  It runs with the garbage
collector off: a collection's cost depends on the heap the program under
test left behind, which must not leak into the factor.
"""

from __future__ import annotations

import gc
import heapq
import statistics
import time

import numpy

#: Seconds the fastest of ``REPEATS`` loops takes on the reference host
#: (an unloaded 2-vCPU x86-64 VM, CPython 3.11, NumPy 2.4).  Only a
#: scale: every adjusted time is wall time times ``NOMINAL_S / measured``.
NOMINAL_S = 7.3e-4
REPEATS = 3
#: Neighbouring loops on each side that :func:`factors` also weighs.
SPAN = 2
_ROWS = numpy.linspace(0.0, 1.0, 4096)


def _loop() -> float:
    heap = []
    table = {}
    acc = 0.0
    for i in range(600):
        x = (i * 0.6180339887) % 1.0
        heapq.heappush(heap, (x, i))
        table[i & 31] = x
        acc += table.get((i * 7) & 31, 0.0) * x
    while heap:
        acc += heapq.heappop(heap)[0]
    for i in range(20):
        sums = numpy.cumsum(_ROWS * (i + 1.0))
        acc += float(sums[-1]) + float(numpy.searchsorted(sums, i * 50.0))
    return acc


def loop_seconds() -> float:
    """Wall seconds of the fastest of ``REPEATS`` calibration loops."""
    clock = time.perf_counter
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(REPEATS):
            t0 = clock()
            _loop()
            best = min(best, clock() - t0)
    finally:
        if enabled:
            gc.enable()
    return best


def factor(loops_s) -> float:
    """The speed factor for work timed amid these calibration loops."""
    return NOMINAL_S / statistics.median(loops_s)


def factors(loops_s) -> list:
    """The speed factor of each stretch between consecutive loops.

    Stretch ``b`` lies between loops ``b`` and ``b + 1``; its factor
    comes from those two and the ``SPAN`` loops on either side, so one
    loop that a scheduler tick slowed does not skew a whole stretch.
    """
    return [
        factor(loops_s[max(0, b - SPAN) : b + SPAN + 2])
        for b in range(len(loops_s) - 1)
    ]
