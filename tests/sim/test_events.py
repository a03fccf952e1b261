"""Unit tests for events, conditions, and event composition."""

import pytest

from repro.sim import AllOf, AnyOf, Engine, SimulationError
from repro.sim.events import Condition


@pytest.fixture
def eng():
    return Engine()


def test_event_starts_untriggered(eng):
    ev = eng.event()
    assert not ev.triggered
    assert not ev.processed


def test_value_before_trigger_raises(eng):
    with pytest.raises(SimulationError):
        eng.event().value
    with pytest.raises(SimulationError):
        eng.event().ok


def test_succeed_sets_value(eng):
    ev = eng.event()
    ev.succeed(99)
    assert ev.triggered and ev.ok and ev.value == 99


def test_double_trigger_raises(eng):
    ev = eng.event()
    ev.succeed()
    with pytest.raises(SimulationError):
        ev.succeed()
    with pytest.raises(SimulationError):
        ev.fail(ValueError())


def test_fail_requires_exception_instance(eng):
    with pytest.raises(SimulationError):
        eng.event().fail("not an exception")


def test_waiting_process_receives_event_value(eng):
    ev = eng.event()
    got = []

    def waiter():
        got.append((yield ev))

    def trigger():
        yield eng.timeout(5.0)
        ev.succeed("payload")

    eng.process(waiter())
    eng.process(trigger())
    eng.run()
    assert got == ["payload"]


def test_failed_event_raises_in_waiter(eng):
    ev = eng.event()
    caught = []

    def waiter():
        try:
            yield ev
        except KeyError as exc:
            caught.append(exc)

    def trigger():
        yield eng.timeout(1.0)
        ev.fail(KeyError("missing"))

    eng.process(waiter())
    eng.process(trigger())
    eng.run()
    assert len(caught) == 1


def test_yielding_already_processed_event_resumes_immediately(eng):
    ev = eng.event()
    ev.succeed("early")
    eng.run()  # processes ev
    got = []

    def late_waiter():
        got.append((yield ev))
        got.append(eng.now)

    eng.process(late_waiter())
    eng.run()
    assert got == ["early", 0.0]


def test_timeout_carries_value(eng):
    got = []

    def proc():
        got.append((yield eng.timeout(1.0, value="tick")))

    eng.process(proc())
    eng.run()
    assert got == ["tick"]


def test_any_of_fires_on_first(eng):
    def proc():
        t_fast = eng.timeout(1.0, value="fast")
        t_slow = eng.timeout(5.0, value="slow")
        result = yield eng.any_of([t_fast, t_slow])
        assert t_fast in result and result[t_fast] == "fast"
        assert t_slow not in result
        return eng.now

    p = eng.process(proc())
    assert eng.run(until=p) == 1.0


def test_all_of_waits_for_all(eng):
    def proc():
        events = [eng.timeout(d, value=d) for d in (3.0, 1.0, 2.0)]
        result = yield eng.all_of(events)
        assert sorted(result.values()) == [1.0, 2.0, 3.0]
        return eng.now

    p = eng.process(proc())
    assert eng.run(until=p) == 3.0


def test_empty_all_of_triggers_immediately(eng):
    def proc():
        result = yield eng.all_of([])
        return result

    p = eng.process(proc())
    assert eng.run(until=p) == {}


def test_any_of_with_already_triggered_event(eng):
    ev = eng.event()
    ev.succeed("pre")
    eng.run()

    def proc():
        result = yield eng.any_of([ev, eng.timeout(10.0)])
        return result[ev]

    p = eng.process(proc())
    assert eng.run(until=p) == "pre"
    assert eng.now == 0.0


def test_condition_fails_when_member_fails(eng):
    ev = eng.event()
    caught = []

    def proc():
        try:
            yield eng.all_of([ev, eng.timeout(10.0)])
        except RuntimeError as exc:
            caught.append(exc)

    def trigger():
        yield eng.timeout(1.0)
        ev.fail(RuntimeError("dead"))

    eng.process(proc())
    eng.process(trigger())
    eng.run()
    assert len(caught) == 1


def test_condition_rejects_foreign_engine_events(eng):
    other = Engine()
    with pytest.raises(SimulationError):
        AnyOf(eng, [other.event()])


def test_all_of_and_any_of_classes_directly(eng):
    a, b = eng.event(), eng.event()
    any_cond = AnyOf(eng, [a, b])
    all_cond = AllOf(eng, [a, b])
    a.succeed(1)
    eng.run()
    assert any_cond.triggered
    assert not all_cond.triggered
    b.succeed(2)
    eng.run()
    assert all_cond.triggered


def test_trigger_mirrors_success_and_failure(eng):
    src = eng.event()
    dst = eng.event()
    src.succeed("v")
    dst.trigger(src)
    assert dst.triggered and dst.ok and dst.value == "v"

    src2 = eng.event()
    dst2 = eng.event()
    src2.fail(ValueError("x"))
    dst2.trigger(src2)
    assert dst2.triggered and not dst2.ok

    with pytest.raises(SimulationError):
        eng.event().trigger(eng.event())
    eng.run()  # drain scheduled events to keep the engine clean


# ----------------------------------------------------------------------
# subscriptions: a fired condition and a cancelled event hold no callback
# ----------------------------------------------------------------------
def _subscribed(cond, ev):
    return ev.callbacks is not None and cond._check in ev.callbacks


def test_fired_any_of_leaves_no_check_on_pending_events(eng):
    fast, slow, never = eng.timeout(1.0), eng.timeout(5.0), eng.event()
    cond = eng.any_of([fast, slow, never])
    assert _subscribed(cond, slow) and _subscribed(cond, never)
    eng.run(until=cond)
    assert cond.processed and not slow.processed
    assert not _subscribed(cond, slow) and not _subscribed(cond, never)
    assert slow.callbacks == [] and never.callbacks == []


def test_failed_all_of_leaves_no_check_on_pending_events(eng):
    bad, pending = eng.event(), eng.timeout(10.0)
    cond = eng.all_of([bad, pending])
    bad.fail(RuntimeError("dead"))
    with pytest.raises(RuntimeError):
        eng.run(until=cond)
    assert not _subscribed(cond, pending)
    assert pending.callbacks == []


def test_any_of_over_one_event_twice_unsubscribes_both(eng):
    ev, other = eng.event(), eng.event()
    cond = eng.any_of([other, other, ev])
    assert other.callbacks.count(cond._check) == 2
    ev.succeed("x")
    eng.run()
    assert cond.value == {ev: "x"}
    assert other.callbacks == []


def test_condition_over_processed_event_subscribes_to_nothing_else(eng):
    before, done, after = eng.event(), eng.event(), eng.event()
    done.succeed("pre")
    eng.run()
    cond = eng.any_of([before, done, after])
    assert cond.triggered
    assert before.callbacks == [] and after.callbacks == []
    assert eng.run(until=cond) == {done: "pre"}


def test_foreign_event_leaves_no_check_behind(eng):
    mine = eng.event()
    with pytest.raises(SimulationError):
        AnyOf(eng, [mine, Engine().event()])
    assert mine.callbacks == []


def test_cancelled_event_drops_its_callbacks(eng):
    timer = eng.timeout(1.0)
    timer.callbacks.append(lambda e: pytest.fail("cancelled event ran"))
    cond = eng.any_of([timer, eng.event()])
    assert eng.cancel(timer)
    assert timer.callbacks == [] and timer.processed is False
    with pytest.raises(SimulationError):
        eng.run(until=timer)
    assert not cond.triggered


def test_condition_needing_no_event_still_validates_and_subscribes_nothing(eng):
    mine = eng.event()
    cond = Condition(eng, [mine], count_needed=0)
    assert cond.triggered and mine.callbacks == []
    with pytest.raises(SimulationError):
        Condition(eng, [mine, Engine().event()], count_needed=0)
