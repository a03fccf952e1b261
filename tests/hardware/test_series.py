"""Property-based tests for the columnar power-series kernel.

Every batch/prefix-sum query must agree with the brute-force scalar
segment walks (``PowerTimeline._energy_walk``, which ``EnergyCursor``
runs, and the ``power_at_walk`` / ``peak_walk`` oracles in
``tests/oracles.py``) — including the extend-to-infinity convention past
the last change point and degenerate ``t0 == t1`` intervals.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.hardware.series import ClusterSeries, PowerSeries
from repro.hardware.timeline import PowerTimeline, shared_series

from tests.oracles import peak_walk, power_at_walk

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------
_WATTS = st.floats(min_value=0.0, max_value=250.0)

_CHANGES = st.lists(
    st.tuples(st.floats(min_value=1e-3, max_value=7.0), _WATTS),
    min_size=0,
    max_size=25,
)


def _build(changes, initial=12.5):
    tl = PowerTimeline(start_time=0.0, initial_power=initial)
    t = 0.0
    for dt, watts in changes:
        t += dt
        tl.set_power(t, watts)
    return tl, t


# Query times reach well past any last change point, so the
# extend-to-infinity convention is always exercised.
_T = st.floats(min_value=0.0, max_value=300.0)


@given(changes=_CHANGES, t0=_T, t1=_T)
def test_energy_matches_segment_walk(changes, t0, t1):
    tl, _ = _build(changes)
    lo, hi = min(t0, t1), max(t0, t1)
    assert tl.series().energy(lo, hi) == pytest.approx(
        tl._energy_walk(lo, hi), rel=1e-12, abs=1e-9
    )


@given(changes=_CHANGES, t=_T)
def test_power_at_matches_walk_exactly(changes, t):
    tl, _ = _build(changes)
    assert tl.series().power_at(t) == power_at_walk(tl, t)


@given(changes=_CHANGES, t0=_T, t1=_T)
def test_average_power_matches_walk(changes, t0, t1):
    tl, _ = _build(changes)
    lo, hi = min(t0, t1), max(t0, t1)
    got = tl.series().average_power(lo, hi)
    if hi == lo:
        assert got == power_at_walk(tl, lo)  # degenerate interval
    else:
        # Compare via window energy: prefix-sum cancellation error is
        # absolute in joules, and dividing by a tiny width would turn it
        # into an unbounded relative error on the average.
        assert got * (hi - lo) == pytest.approx(
            tl._energy_walk(lo, hi), rel=1e-12, abs=1e-9
        )


@given(changes=_CHANGES, t0=_T, t1=_T)
def test_peak_power_matches_walk_exactly(changes, t0, t1):
    tl, _ = _build(changes)
    lo, hi = min(t0, t1), max(t0, t1)
    assert tl.series().peak_power(lo, hi) == peak_walk(tl, lo, hi)


@given(
    changes=_CHANGES,
    times=st.lists(_T, min_size=1, max_size=40),
)
def test_batch_sample_matches_scalar_walk(changes, times):
    tl, _ = _build(changes)
    got = tl.series().sample(np.array(sorted(times)))
    want = [power_at_walk(tl, t) for t in sorted(times)]
    assert got.tolist() == want


@given(
    changes=_CHANGES,
    intervals=st.lists(st.tuples(_T, _T), min_size=0, max_size=25),
)
def test_energy_many_matches_per_interval_walks(changes, intervals):
    tl, _ = _build(changes)
    ordered = np.array(
        [(min(a, b), max(a, b)) for a, b in intervals], dtype=float
    ).reshape(len(intervals), 2)
    got = tl.series().energy_many(ordered)
    assert got.shape == (len(intervals),)
    for row, joules in zip(ordered, got):
        assert joules == pytest.approx(
            tl._energy_walk(row[0], row[1]), rel=1e-12, abs=1e-9
        )


@given(
    changes=_CHANGES,
    start=st.floats(min_value=0.0, max_value=50.0),
    widths=st.lists(
        st.floats(min_value=0.0, max_value=9.0), min_size=1, max_size=20
    ),
)
def test_windowed_average_matches_walk_per_cell(changes, start, widths):
    tl, _ = _build(changes)
    edges = np.concatenate(([start], start + np.cumsum(widths)))
    got = tl.series().windowed_average(edges)
    assert got.shape == (len(widths),)
    for k, avg in enumerate(got):
        lo, hi = float(edges[k]), float(edges[k + 1])
        if hi == lo:
            # zero-width cell: reports the instantaneous sample
            assert avg == power_at_walk(tl, lo)
        else:
            # Energy-space comparison, as in the average_power test.
            assert avg * (hi - lo) == pytest.approx(
                tl._energy_walk(lo, hi), rel=1e-12, abs=1e-9
            )


@given(changes=_CHANGES, t1=st.floats(min_value=0.0, max_value=300.0))
def test_zero_width_interval_has_zero_energy(changes, t1):
    tl, _ = _build(changes)
    assert tl.series().energy(t1, t1) == 0.0


@settings(max_examples=25)
@given(
    changes=_CHANGES,
    ticks=st.lists(
        st.floats(min_value=1e-3, max_value=11.0), min_size=1, max_size=15
    ),
)
def test_cursor_increments_are_bit_identical_to_window_walks(changes, ticks):
    """The live-instrument contract: each ``advance`` returns exactly the
    scalar window walk over the new interval (closed-loop consumers rely
    on this for reproducible control trajectories)."""
    tl, _ = _build(changes)
    cursor = tl.cursor(0.0)
    t = 0.0
    for dt in ticks:
        t0, t = t, t + dt
        assert cursor.advance(t) == tl._energy_walk(t0, t)
    assert cursor.time == t


_STEP = st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=3.0))


@given(
    program=st.lists(
        st.one_of(
            st.tuples(st.just("advance"), _STEP),
            # A change at the cursor's time (step 0.0) or after it, or
            # right after the trace's last change, behind the cursor.
            st.tuples(st.just("at-cursor"), _STEP, _WATTS),
            st.tuples(st.just("at-end"), _STEP, _WATTS),
        ),
        min_size=1,
        max_size=30,
    )
)
@settings(max_examples=300)
def test_live_cursor_increments_are_bit_identical_to_window_walks(program):
    """The governor's case: changes are appended between advances, so
    the trace's last change is often at or before the cursor (the
    single-segment increment), and sometimes after it (a walk)."""
    tl = PowerTimeline(start_time=0.0, initial_power=12.5)
    cursor = tl.cursor(0.0)
    for op in program:
        if op[0] == "advance":
            t0 = cursor.time
            t1 = t0 + op[1]
            assert cursor.advance(t1) == tl._energy_walk(t0, t1)
        else:
            _, step, watts = op
            anchor = tl.last_change
            if op[0] == "at-cursor":
                anchor = max(anchor, cursor.time)
            tl.set_power(anchor + step, watts)


def test_cursor_cannot_move_backwards():
    tl = PowerTimeline(initial_power=10.0)
    cursor = tl.cursor(0.0)
    cursor.advance(5.0)
    with pytest.raises(ValueError):
        cursor.advance(4.0)


def test_cursor_joules_telescopes_to_total():
    tl = PowerTimeline(initial_power=10.0)
    tl.set_power(2.0, 30.0)
    cursor = tl.cursor(0.0)
    for t in (1.0, 2.5, 4.0):
        cursor.advance(t)
    assert cursor.joules == pytest.approx(tl.energy(0.0, 4.0), rel=1e-12)


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------
def test_series_requires_strictly_increasing_times():
    with pytest.raises(ValueError):
        PowerSeries([0.0, 1.0, 1.0], [1.0, 2.0, 3.0])


def test_series_rejects_negative_watts():
    with pytest.raises(ValueError):
        PowerSeries([0.0, 1.0], [1.0, -2.0])


def test_frozen_arrays_are_immutable():
    series = PowerSeries([0.0, 1.0], [5.0, 10.0])
    with pytest.raises(ValueError):
        series.times[0] = 99.0
    with pytest.raises(ValueError):
        series.watts[0] = 99.0


def test_queries_before_start_rejected():
    series = PowerSeries([10.0, 11.0], [5.0, 10.0])
    with pytest.raises(ValueError):
        series.power_at(9.0)
    with pytest.raises(ValueError):
        series.energy(9.0, 12.0)
    with pytest.raises(ValueError):
        series.energy(12.0, 11.0)


# ---------------------------------------------------------------------------
# cluster-level merge
# ---------------------------------------------------------------------------
@settings(max_examples=40)
@given(
    per_node=st.lists(_CHANGES, min_size=1, max_size=4),
    t0=st.floats(min_value=0.0, max_value=40.0),
    dt=st.floats(min_value=0.0, max_value=40.0),
)
def test_cluster_series_matches_per_node_walk_sums(per_node, t0, dt):
    timelines = [_build(changes, initial=8.0 + i)[0] for i, changes in enumerate(per_node)]
    cs = ClusterSeries({i: tl.series() for i, tl in enumerate(timelines)})
    t1 = t0 + dt
    want_total = sum(tl._energy_walk(t0, t1) for tl in timelines)
    assert cs.total_energy(t0, t1) == pytest.approx(want_total, rel=1e-12, abs=1e-9)
    assert cs.power_at(t0) == pytest.approx(
        sum(power_at_walk(tl, t0) for tl in timelines), rel=1e-12
    )
    got_nodes = cs.node_energies(t0, t1)
    for i, tl in enumerate(timelines):
        assert got_nodes[i] == pytest.approx(
            tl._energy_walk(t0, t1), rel=1e-12, abs=1e-9
        )


@given(
    per_node=st.lists(_CHANGES, min_size=1, max_size=3),
    t0=st.floats(min_value=0.0, max_value=40.0),
    dt=st.floats(min_value=1e-3, max_value=40.0),
)
def test_cluster_peak_is_max_of_merged_trace(per_node, t0, dt):
    """The merged peak equals the max candidate over every change point —
    the pre-kernel candidate-evaluation definition."""
    timelines = [_build(changes)[0] for changes in per_node]
    cs = ClusterSeries({i: tl.series() for i, tl in enumerate(timelines)})
    t1 = t0 + dt
    candidates = {t0}
    for tl in timelines:
        candidates.update(
            t for t in tl.change_times(t0, t1)
        )
    want = max(
        sum(power_at_walk(tl, t) for tl in timelines) for t in candidates
    )
    assert cs.peak_power(t0, t1) == pytest.approx(want, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# shared series: nodes with identical traces
# ---------------------------------------------------------------------------
def _merge_oracle(timelines):
    """The merge before series sharing: a private series per node,
    one ``sample`` per node, summed in node order."""
    per_node = [
        PowerSeries(*zip(*tl.segments())) for tl in timelines
    ]
    start = max(s.start_time for s in per_node)
    times = np.unique(
        np.concatenate(
            [np.array([start])] + [s.times[s.times >= start] for s in per_node]
        )
    )
    watts = np.zeros_like(times)
    for series in per_node:
        watts += series.sample(times)
    return PowerSeries(times, watts)


def _build_at(changes, start, initial):
    tl = PowerTimeline(start_time=start, initial_power=initial)
    t = start
    for dt, watts in changes:
        t += dt
        tl.set_power(t, watts)
    return tl


_TRACES = st.lists(
    st.tuples(
        _CHANGES,
        st.sampled_from([0.0, 0.5, 2.0]),  # start time
        st.sampled_from([0.0, 8.0, 12.5]),  # initial watts
    ),
    min_size=1,
    max_size=4,
)


@settings(max_examples=60)
@given(
    traces=_TRACES,
    layout=st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=12),
    t0=st.floats(min_value=2.0, max_value=40.0),
    dt=st.floats(min_value=0.0, max_value=40.0),
)
def test_shared_merge_is_bit_identical_to_the_per_node_oracle(
    traces, layout, t0, dt
):
    """Nodes repeating a trace share one series; the merged times and
    watts, and the total energy, are bit-identical to the per-node fold."""
    timelines = [_build_at(*traces[i % len(traces)]) for i in layout]
    views = shared_series(timelines)
    cs = ClusterSeries(dict(enumerate(views)))
    oracle = _merge_oracle(timelines)

    assert cs.merged.times.tobytes() == oracle.times.tobytes()
    assert cs.merged.watts.tobytes() == oracle.watts.tobytes()
    t1 = t0 + dt
    assert cs.total_energy(t0, t1) == oracle.energy(t0, t1)

    distinct = {(tuple(tl._times), tuple(tl._watts)) for tl in timelines}
    assert len({id(v) for v in views}) == len(distinct)
    for tl, view in zip(timelines, views):
        assert tl.series() is view  # adopted as the timeline's own view


def test_shared_view_is_dropped_when_one_twin_moves_on():
    a, b = _build_at([(1.0, 5.0)], 0.0, 3.0), _build_at([(1.0, 5.0)], 0.0, 3.0)
    va, vb = shared_series([a, b])
    assert va is vb
    b.set_power(2.0, 7.0)
    assert a.series() is va
    assert b.series() is not va
    assert b.series().watts.tolist() == [3.0, 5.0, 7.0]
    assert va.watts.tolist() == [3.0, 5.0]
