"""Issue acceptance: the disabled path is (near) free, the rings bounded.

The overhead bound compares interleaved pairs of timings.  The host's
speed drifts by up to 1.7x in phases lasting seconds, longer than a
pair but shorter than the whole measurement, so each pair's ratio
cancels the phase it ran in, and the median over many pairs discards
the few pairs that straddle a phase change; the pairs alternate which
arm runs first.  Each sample runs the job twice after a full
collection, so no collection of an earlier sample's garbage lands
inside it.
"""

import gc
import statistics
import time

from repro.analysis.runner import run_measured
from repro.dvs.strategy import StaticStrategy
from repro.faults.sweep import run_chaos_sweep
from repro.obs.tracer import Tracer, tracing
from repro.workloads.nas_ft import NasFT
from repro.workloads.synthetic import SyntheticMix

from tests.faults.test_chaos_acceptance import (  # noqa: F401 - fixture
    drill_setup,
    drill_task,
)


def _fig3_sized_workload():
    # Figure 3's shape (NAS FT crescendo member) at test scale.
    return NasFT("S", n_ranks=4, iterations=2)


#: Runs per timed sample (~20 ms on a 2-vCPU host) and interleaved pairs.
RUNS_PER_SAMPLE = 2
PAIRS = 50


def _timed(workload):
    gc.collect()
    t0 = time.perf_counter()
    for _ in range(RUNS_PER_SAMPLE):
        run_measured(workload, StaticStrategy(1.4e9))
    return time.perf_counter() - t0


def test_disabled_tracer_overhead_under_5_percent():
    workload = _fig3_sized_workload()
    _timed(workload)  # warm imports and caches off the clock

    baseline = []
    disabled = []
    disabled_tracer = Tracer(enabled=False)

    def sample_disabled():
        with tracing(disabled_tracer):
            disabled.append(_timed(workload))

    for pair in range(PAIRS):
        if pair % 2:
            sample_disabled()
            baseline.append(_timed(workload))
        else:
            baseline.append(_timed(workload))
            sample_disabled()

    overhead = statistics.median(d / b for b, d in zip(baseline, disabled)) - 1
    assert len(disabled_tracer) == 0  # hooks honoured the flag
    assert overhead <= 0.05, (
        f"disabled tracing cost {overhead:+.1%} (median of {PAIRS} pairs; "
        f"baseline {statistics.median(baseline):.4f}s, "
        f"disabled {statistics.median(disabled):.4f}s)"
    )


def test_ring_buffers_never_exceed_capacity_under_chaos_drill(drill_setup):
    """A tiny-capacity tracer under the full chaos drill: the rings must
    overwrite (drop counts grow) but never grow past capacity."""
    capacity = 8
    tracer = Tracer(capacity=capacity)
    run_chaos_sweep([drill_task(drill_setup, hardened=True)], tracer=tracer)

    assert len(tracer.spans) <= capacity
    assert len(tracer.counters) <= capacity
    assert len(tracer.instants) <= capacity
    assert tracer.dropped > 0, "the drill must overflow an 8-slot ring"
    # The bookkeeping is conservation: kept + dropped = emitted.
    counts = tracer.counts()
    assert counts["spans"] == capacity
    assert counts["dropped_spans"] > 0


def test_traced_run_records_are_bounded_not_the_simulation():
    """Tracing a long loop cannot grow memory: the ring holds the tail."""
    tracer = Tracer(capacity=16)
    workload = SyntheticMix(
        0.5, 0.25, 0.25, iteration_seconds=0.05, iterations=20, n_ranks=2
    )
    with tracing(tracer):
        run_measured(workload, StaticStrategy(1.4e9))
    assert len(tracer.spans) == 16
    assert tracer.dropped_spans > 0
