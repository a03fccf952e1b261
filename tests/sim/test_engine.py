"""Unit tests for the DES engine core: clock, scheduling, run modes.

:class:`~repro.sim.engine.Engine` dispatches in ``(time, priority,
insertion-seq)`` order and drops cancelled rows lazily.  Property-based
oracle tests check that, for any random program — timeouts, bare
scheduled events, shared triggers, ``any_of`` races, absolute
``timeout_at`` instants and cancellations — every dispatch is the head
of the live, non-cancelled rows sorted by ``(time, priority, seq)``, at
that row's exact float time.  The reference is that sort, not a second
engine.

Also covers ``cancel`` / ``schedule_at`` / ``timeout_at`` semantics, the
non-finite delay guard (a ``NaN`` delay used to corrupt the heap
silently), and the ``Engine.run`` edge cases around ``until``.
"""

import math
from itertools import count

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import (
    PRIORITY_LOW,
    PRIORITY_NORMAL,
    PRIORITY_URGENT,
    Engine,
    SimulationError,
)


def test_initial_time_defaults_to_zero():
    assert Engine().now == 0.0


def test_initial_time_can_be_set():
    assert Engine(start_time=12.5).now == 12.5


def test_timeout_advances_clock():
    eng = Engine()
    eng.timeout(3.0)
    eng.run()
    assert eng.now == 3.0


def test_negative_timeout_rejected():
    eng = Engine()
    with pytest.raises(SimulationError):
        eng.timeout(-1.0)


def test_negative_schedule_delay_rejected():
    eng = Engine()
    with pytest.raises(SimulationError):
        eng.schedule(eng.event(), delay=-0.5)


def test_run_until_time_stops_clock_exactly():
    eng = Engine()
    eng.timeout(10.0)
    eng.run(until=4.0)
    assert eng.now == 4.0


def test_run_until_time_processes_earlier_events():
    eng = Engine()
    seen = []

    def proc():
        yield eng.timeout(1.0)
        seen.append(eng.now)
        yield eng.timeout(10.0)
        seen.append(eng.now)

    eng.process(proc())
    eng.run(until=5.0)
    assert seen == [1.0]


def test_run_until_past_time_rejected():
    eng = Engine()
    eng.timeout(1.0)
    eng.run()
    with pytest.raises(SimulationError):
        eng.run(until=0.5)


def test_run_until_event_returns_its_value():
    eng = Engine()

    def proc():
        yield eng.timeout(2.0)
        return "done"

    p = eng.process(proc())
    assert eng.run(until=p) == "done"
    assert eng.now == 2.0


def test_run_until_already_processed_event():
    eng = Engine()

    def proc():
        yield eng.timeout(1.0)
        return 42

    p = eng.process(proc())
    eng.run()
    assert eng.run(until=p) == 42


def test_run_until_event_that_never_fires_raises():
    eng = Engine()
    ev = eng.event()  # never triggered

    def proc():
        yield eng.timeout(1.0)

    eng.process(proc())
    with pytest.raises(SimulationError, match="never triggering"):
        eng.run(until=ev)


def test_events_fire_in_time_order():
    eng = Engine()
    order = []

    def waiter(delay, label):
        yield eng.timeout(delay)
        order.append(label)

    eng.process(waiter(3.0, "c"))
    eng.process(waiter(1.0, "a"))
    eng.process(waiter(2.0, "b"))
    eng.run()
    assert order == ["a", "b", "c"]


def test_simultaneous_events_fire_in_insertion_order():
    eng = Engine()
    order = []

    def waiter(label):
        yield eng.timeout(1.0)
        order.append(label)

    for label in "abcd":
        eng.process(waiter(label))
    eng.run()
    assert order == list("abcd")


def test_step_on_empty_queue_raises():
    with pytest.raises(SimulationError):
        Engine().step()


def test_peek_reports_next_event_time():
    eng = Engine()
    eng.timeout(7.0)
    eng.timeout(3.0)
    assert eng.peek() == 3.0


def test_peek_empty_is_infinite():
    assert Engine().peek() == float("inf")


def test_run_is_not_reentrant():
    eng = Engine()
    errors = []

    def proc():
        try:
            eng.run()
        except SimulationError as exc:
            errors.append(exc)
        yield eng.timeout(1.0)

    eng.process(proc())
    eng.run()
    assert len(errors) == 1


def test_strict_mode_propagates_process_exception():
    eng = Engine(strict=True)

    def bad():
        yield eng.timeout(1.0)
        raise ValueError("boom")

    eng.process(bad())
    with pytest.raises(ValueError, match="boom"):
        eng.run()


def test_nonstrict_mode_records_failure_on_process():
    eng = Engine(strict=False)

    def bad():
        yield eng.timeout(1.0)
        raise ValueError("boom")

    p = eng.process(bad())
    eng.run()
    assert p.triggered and not p.ok
    assert isinstance(p.value, ValueError)


# ---------------------------------------------------------------------------
# the sorted-rows reference
# ---------------------------------------------------------------------------
class SortedRows:
    """Records every row an engine queues and checks each dispatch.

    Wraps the engine's ``schedule``/``schedule_at``/``cancel``/``step``
    on the instance.  Before each step the expected event is the minimum
    of the live rows by ``(time, priority, seq)``; after it, that event
    must be processed at exactly its row's time.
    """

    def __init__(self, eng):
        self.live = {}  # event -> (when, priority, seq)
        self.log = []  # (when, priority, seq) per dispatch, in order
        self.cancelled = 0
        seq = count()
        schedule, schedule_at = eng.schedule, eng.schedule_at
        cancel, step = eng.cancel, eng.step

        def checked_schedule(event, delay=0.0, priority=PRIORITY_NORMAL):
            schedule(event, delay, priority)
            self.live[event] = (eng.now + delay, priority, next(seq))

        def checked_schedule_at(event, when, priority=PRIORITY_NORMAL):
            schedule_at(event, when, priority)
            self.live[event] = (when, priority, next(seq))

        def checked_cancel(event):
            done = cancel(event)
            if done:
                del self.live[event]
                self.cancelled += 1
            return done

        def checked_step():
            want = min(self.live, key=self.live.get)
            row = self.live.pop(want)
            try:
                step()
            finally:
                assert want.processed and eng.now == row[0]
                self.log.append(row)

        eng.schedule, eng.schedule_at = checked_schedule, checked_schedule_at
        eng.cancel, eng.step = checked_cancel, checked_step

    def check_stats(self, eng):
        assert eng.stats.dispatched == len(self.log)
        assert eng.stats.cancelled == self.cancelled
        assert eng.pending == len(self.live)


# ---------------------------------------------------------------------------
# random-program strategies
# ---------------------------------------------------------------------------
# A deliberately collision-rich delay pool: duplicates force many events
# onto the same timestamp, where only the (priority, seq) tie-break
# decides the order.
_DELAYS = [0.0, 0.125, 0.25, 0.25, 0.5, 1.0 / 3.0, 0.125, 1.0]
_PRIOS = [PRIORITY_URGENT, PRIORITY_NORMAL, PRIORITY_LOW]

# One instruction per yield point of a process:
#   kind 0 — wait on a timeout(delay)
#   kind 1 — schedule a bare event at (delay, priority) and wait on it
#   kind 2 — succeed a shared event (if still pending), then short wait
#   kind 3 — wait on any_of(shared event, timeout(delay))
#   kind 4 — wait on timeout_at(now + delay)
#   kind 5 — queue a decoy at (delay, priority), cancel decoy #index
#            (a no-op if it already fired or was cancelled), then wait
#            on a timeout(delay)
_OP = st.tuples(
    st.integers(min_value=0, max_value=5),
    st.sampled_from(range(len(_DELAYS))),
    st.sampled_from(range(len(_PRIOS))),
    st.integers(min_value=0, max_value=2),  # shared-event / decoy index
)
_PROGRAM = st.lists(
    st.lists(_OP, min_size=1, max_size=6), min_size=1, max_size=5
)


def _bare_event(eng, value):
    ev = eng.event()
    ev._ok = True
    ev._value = value
    return ev


def _execute(program, until=None):
    """Run the interpreted program on a checked engine."""
    eng = Engine()
    rows = SortedRows(eng)
    shared = [eng.event() for _ in range(3)]
    decoys = []

    def body(pid, ops):
        for step, (kind, d_idx, p_idx, s_idx) in enumerate(ops):
            delay, prio = _DELAYS[d_idx], _PRIOS[p_idx]
            if kind == 0:
                yield eng.timeout(delay, value=(pid, step))
            elif kind == 1:
                ev = _bare_event(eng, (pid, step))
                eng.schedule(ev, delay, prio)
                yield ev
            elif kind == 2:
                if not shared[s_idx].triggered:
                    shared[s_idx].succeed((pid, step))
                yield eng.timeout(delay)
            elif kind == 3:
                yield eng.any_of([shared[s_idx], eng.timeout(delay)])
            elif kind == 4:
                yield eng.timeout_at(eng.now + delay, value=(pid, step))
            else:
                decoy = _bare_event(eng, None)
                eng.schedule(decoy, delay, prio)
                decoys.append(decoy)
                eng.cancel(decoys[s_idx % len(decoys)])
                yield eng.timeout(delay)

    for pid, ops in enumerate(program):
        eng.process(body(pid, ops), name=f"p{pid}")
    eng.run(until=until)
    rows.check_stats(eng)
    return eng, rows


@settings(max_examples=150, deadline=None)
@given(program=_PROGRAM)
def test_random_programs_are_bit_identical(program):
    eng, rows = _execute(program)
    assert not rows.live  # the run drained every live row
    assert rows.log == sorted(rows.log, key=lambda row: row[0])
    assert eng.now == (rows.log[-1][0] if rows.log else 0.0)


@settings(max_examples=60, deadline=None)
@given(program=_PROGRAM, until=st.sampled_from([0.0, 0.2, 0.5, 1.0, 2.5]))
def test_run_until_time_is_bit_identical(program, until):
    eng, rows = _execute(program, until=until)
    assert eng.now == until  # the clock lands exactly on the stop time
    assert all(row[0] <= until for row in rows.log)
    assert all(row[0] > until for row in rows.live.values())


@settings(max_examples=50, deadline=None)
@given(
    batch=st.lists(
        st.tuples(
            st.sampled_from(range(len(_DELAYS))),
            st.sampled_from(range(len(_PRIOS))),
            st.booleans(),  # cancel it right away
        ),
        min_size=1,
        max_size=300,
    )
)
def test_bulk_scheduling_through_flushes_and_merges(batch):
    """Hundreds of schedules, some cancelled before the run: dispatch
    order must be the live rows sorted by (time, priority, seq)."""
    eng = Engine()
    rows = SortedRows(eng)
    for d_idx, p_idx, cancelled in batch:
        ev = _bare_event(eng, None)
        eng.schedule(ev, _DELAYS[d_idx], _PRIOS[p_idx])
        if cancelled:
            eng.cancel(ev)
    want = sorted(rows.live.values())
    eng.run()
    assert rows.log == want
    rows.check_stats(eng)


# ---------------------------------------------------------------------------
# cancel / schedule_at / timeout_at
# ---------------------------------------------------------------------------
class TestCancel:
    def test_cancelled_event_never_dispatches(self):
        eng = Engine()
        fired = []
        ev = eng.timeout(1.0)
        ev.callbacks.append(lambda e: fired.append(e))
        assert eng.cancel(ev) is True
        eng.run()
        assert fired == []
        assert eng.now == 0.0  # nothing left to run

    def test_cancel_is_idempotent_and_reports(self):
        eng = Engine()
        ev = eng.timeout(1.0)
        assert eng.cancel(ev) is True
        assert eng.cancel(ev) is False  # already cancelled

    def test_cancel_after_the_row_is_dropped_returns_false(self):
        """Once peek() has dropped a cancelled row, cancelling the event
        again must not count it twice or make pending negative."""
        eng = Engine()
        ev = eng.timeout(0.0)
        assert eng.cancel(ev) is True
        assert eng.peek() == float("inf")  # the dead row is gone
        assert eng.cancel(ev) is False
        assert (eng.stats.cancelled, eng.pending) == (1, 0)

    def test_cancel_processed_event_returns_false(self):
        eng = Engine()
        ev = eng.timeout(1.0)
        eng.run()
        assert ev.processed
        assert eng.cancel(ev) is False

    def test_cancel_untriggered_event_returns_false(self):
        eng = Engine()
        ev = eng.event()  # never scheduled
        assert eng.cancel(ev) is False

    def test_cancelled_head_never_determines_the_frontier(self):
        """run(until=t) must not overshoot because a cancelled event sat
        at the head of the queue."""
        eng = Engine()
        early = eng.timeout(1.0)
        eng.timeout(5.0)
        eng.cancel(early)
        assert eng.peek() == 5.0
        eng.run(until=2.0)
        assert eng.now == 2.0

    def test_pending_counts_live_events_only(self):
        eng = Engine()
        evs = [eng.timeout(float(i + 1)) for i in range(4)]
        assert eng.pending == 4
        eng.cancel(evs[0])
        eng.cancel(evs[2])
        assert eng.pending == 2
        eng.run()
        assert eng.pending == 0
        assert eng.now == 4.0

    def test_run_until_a_cancelled_event_raises(self):
        """A cancelled event never triggers its waiters: run(until=it)
        drains the queue and raises like any event that never fires."""
        eng = Engine()
        ev = eng.timeout(1.0)
        eng.timeout(2.0)
        eng.cancel(ev)
        with pytest.raises(SimulationError, match="never triggering"):
            eng.run(until=ev)
        assert eng.now == 2.0 and not ev.processed

    def test_stats_count_cancellations_and_frontiers(self):
        eng = Engine()
        ev = eng.timeout(1.0)
        eng.timeout(1.0)
        eng.timeout(2.0)
        eng.cancel(ev)
        eng.run()
        assert eng.stats.cancelled == 1
        assert eng.stats.dispatched == 2
        assert eng.stats.frontiers == 2  # the clock advanced to 1.0 and 2.0


class TestAbsoluteScheduling:
    def test_timeout_at_fires_on_the_exact_float(self):
        eng = Engine()
        # A float that a delay round-trip (when - now) would perturb.
        when = 0.1 + 0.2  # 0.30000000000000004
        ev = eng.timeout_at(when, value="x")
        eng.run(until=ev)
        assert eng.now == when

    def test_schedule_at_past_rejected(self):
        eng = Engine()
        eng.timeout(1.0)
        eng.run()
        with pytest.raises(SimulationError):
            eng.schedule_at(eng.event(), 0.5)

    def test_schedule_at_non_finite_rejected(self):
        eng = Engine()
        for bad in (float("nan"), float("inf")):
            with pytest.raises(SimulationError):
                eng.schedule_at(eng.event(), bad)

    def test_timeout_at_value_delivered(self):
        eng = Engine()
        ev = eng.timeout_at(1.5, value=42)
        assert eng.run(until=ev) == 42


# ---------------------------------------------------------------------------
# the non-finite delay guard (regression: NaN used to corrupt the heap)
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -0.5, -1e-9])
def test_schedule_rejects_non_finite_and_negative_delays(bad):
    eng = Engine()
    with pytest.raises(SimulationError):
        eng.schedule(eng.event(), delay=bad)
    with pytest.raises(SimulationError):
        eng.timeout(bad)
    # The queue stayed intact: ordering still works afterwards.
    eng.timeout(1.0)
    eng.run()
    assert eng.now == 1.0


def test_nan_delay_does_not_corrupt_order():
    """Regression: before the guard, scheduling a NaN delay silently
    poisoned heap comparisons and later events dispatched out of order."""
    eng = Engine()
    order = []
    for delay in (3.0, 1.0):
        ev = eng.timeout(delay, value=delay)
        ev.callbacks.append(lambda e: order.append(e._value))
    with pytest.raises(SimulationError):
        eng.timeout(float("nan"))
    ev = eng.timeout(2.0, value=2.0)
    ev.callbacks.append(lambda e: order.append(e._value))
    eng.run()
    assert order == [1.0, 2.0, 3.0]


# ---------------------------------------------------------------------------
# Engine.run edge cases
# ---------------------------------------------------------------------------
class TestRunEdgeCases:
    def test_until_equal_to_now_runs_due_events_only(self):
        eng = Engine()
        fired = []
        now_ev = eng.timeout(0.0)
        now_ev.callbacks.append(lambda e: fired.append("now"))
        later = eng.timeout(1.0)
        later.callbacks.append(lambda e: fired.append("later"))
        eng.run(until=0.0)
        assert fired == ["now"]  # due-now events run; the future stays queued
        assert eng.now == 0.0
        assert not later.processed

    def test_until_in_the_past_rejected(self):
        eng = Engine(start_time=5.0)
        with pytest.raises(SimulationError):
            eng.run(until=1.0)

    def test_until_already_failed_event_reraises(self):
        eng = Engine()
        boom = RuntimeError("boom")
        ev = eng.event()
        ev.fail(boom)
        eng.run()  # processes the failure; nobody was waiting
        assert ev.processed and not ev.ok
        with pytest.raises(RuntimeError, match="boom"):
            eng.run(until=ev)

    def test_until_already_succeeded_event_returns_value(self):
        eng = Engine()
        ev = eng.timeout(0.5, value="done")
        eng.run()
        assert eng.run(until=ev) == "done"

    def test_strict_false_failure_propagates_to_waiter(self):
        eng = Engine(strict=False)

        def failing():
            yield eng.timeout(0.1)
            raise ValueError("inner")

        proc = eng.process(failing())
        with pytest.raises(ValueError, match="inner"):
            eng.run(until=proc)

    def test_strict_false_unwatched_failure_does_not_escape(self):
        eng = Engine(strict=False)

        def failing():
            yield eng.timeout(0.1)
            raise ValueError("inner")

        proc = eng.process(failing())
        eng.run()  # drains without raising
        assert proc.triggered and not proc.ok
        assert isinstance(proc.value, ValueError)

    def test_invalid_until_rejected(self):
        eng = Engine()
        with pytest.raises(SimulationError):
            eng.run(until=object())

    def test_run_until_event_that_never_fires_raises(self):
        eng = Engine()
        eng.timeout(1.0)
        orphan = eng.event()
        with pytest.raises(SimulationError, match="never triggering"):
            eng.run(until=orphan)


def test_step_on_empty_queue_names_the_queue():
    eng = Engine()
    with pytest.raises(SimulationError, match="empty event queue"):
        eng.step()


def test_peek_on_empty_queue_is_inf():
    eng = Engine()
    assert math.isinf(eng.peek())
