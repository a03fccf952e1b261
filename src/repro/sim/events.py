"""Core event primitives for the discrete-event simulation kernel.

The design follows the classic process-interaction style (as popularised by
SimPy) but is intentionally small and dependency-free: an :class:`Event` is a
one-shot triggerable with a value or an exception; processes *yield* events
to wait for them; composite conditions (:class:`AnyOf` / :class:`AllOf`)
allow waiting on several events at once, which the CPU model uses to race a
work-completion timeout against a frequency-change notification.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Callable, Iterable, List, Optional

from repro.sim.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.sim.engine import Engine

__all__ = [
    "PENDING",
    "PRIORITY_URGENT",
    "PRIORITY_NORMAL",
    "PRIORITY_LOW",
    "Event",
    "Timeout",
    "Condition",
    "AnyOf",
    "AllOf",
]

#: Scheduling priorities: ties in time are broken first by priority, then by
#: insertion order.  Urgent is used for event-triggering bookkeeping so that
#: e.g. a resource release at time *t* is observed by requests at time *t*.
PRIORITY_URGENT = 0
PRIORITY_NORMAL = 1
PRIORITY_LOW = 2

_INF = float("inf")


class _Pending:
    """Sentinel for "event has no value yet"."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<PENDING>"


PENDING = _Pending()


class Event:
    """A one-shot occurrence at a point in simulated time.

    Life cycle::

        created -> triggered (succeed/fail) -> processed (callbacks ran)
                                            -> cancelled (never processed)

    ``callbacks`` is a list of callables ``cb(event)`` invoked when the
    engine processes the event; it is set to ``None`` afterwards, which is
    how waiters detect that they missed the event and must resume
    immediately instead of registering a callback.

    Triggering pushes the event's own heap row, due now at
    ``PRIORITY_NORMAL``, straight onto the engine's queue.
    """

    __slots__ = ("engine", "callbacks", "_value", "_ok", "_cancelled")

    def __init__(self, engine: "Engine"):
        self.engine = engine
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: object = PENDING
        self._ok: bool = True
        #: set by :meth:`Engine.cancel`; the engine drops the event's row
        self._cancelled: bool = False

    # ------------------------------------------------------------------
    # state inspection
    # ------------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """Whether the event has a value (it may not be processed yet)."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """Whether the event's callbacks have already been executed."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """``True`` when the event succeeded, ``False`` when it failed."""
        if not self.triggered:
            raise SimulationError(f"{self!r} has not been triggered yet")
        return self._ok

    @property
    def value(self) -> object:
        """The event's value (or the exception instance when it failed)."""
        if self._value is PENDING:
            raise SimulationError(f"{self!r} has not been triggered yet")
        return self._value

    # ------------------------------------------------------------------
    # triggering
    # ------------------------------------------------------------------
    def succeed(self, value: object = None) -> "Event":
        """Trigger the event successfully and schedule its callbacks."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        engine = self.engine
        heappush(
            engine._queue, (engine._now, PRIORITY_NORMAL, next(engine._eid), self)
        )
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        Waiting processes will have ``exception`` thrown into them.
        """
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError(
                f"fail() requires an exception instance, got {exception!r}"
            )
        self._ok = False
        self._value = exception
        engine = self.engine
        heappush(
            engine._queue, (engine._now, PRIORITY_NORMAL, next(engine._eid), self)
        )
        return self

    def _succeed_in_dispatch(self, value: object = None) -> None:
        """:meth:`succeed`, running the callbacks at once when that keeps
        the dispatch order.

        Precondition: the engine is dispatching a row at ``now`` and the
        caller is the last callback of that row's event.

        :meth:`succeed` would push ``(now, PRIORITY_NORMAL, fresh seq)``.
        When the head row is later than ``(now, PRIORITY_NORMAL)``, that
        row is the very next dispatch, so its callbacks run here instead,
        counted in ``stats.dispatched`` like any dispatch (the clock does
        not move, so never a frontier).  Otherwise the row is pushed.
        """
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        engine = self.engine
        queue = engine._queue
        if queue:
            head = queue[0]
            if head[0] == engine._now and head[1] <= PRIORITY_NORMAL:
                self.succeed(value)
                return
        self._ok = True
        self._value = value
        engine.stats.dispatched += 1
        callbacks, self.callbacks = self.callbacks, None
        for callback in callbacks:  # type: ignore[union-attr]
            callback(self)

    def trigger(self, event: "Event") -> None:
        """Mirror the outcome of another (triggered) event onto this one."""
        if event._value is PENDING:
            raise SimulationError(f"cannot mirror untriggered event {event!r}")
        if event._ok:
            self.succeed(event._value)
        else:
            self.fail(event._value)  # type: ignore[arg-type]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "processed"
            if self.processed
            else ("triggered" if self.triggered else "pending")
        )
        return f"<{type(self).__name__} {state} at t={self.engine.now:.6g}>"


class Timeout(Event):
    """An event that triggers automatically ``delay`` time units from now."""

    __slots__ = ("delay",)

    def __init__(self, engine: "Engine", delay: float, value: object = None):
        if not 0.0 <= delay < _INF:
            # Same guard as Engine.schedule: a NaN delay slips past a plain
            # `delay < 0` check and corrupts heap ordering.
            raise SimulationError(f"non-finite or negative timeout delay {delay!r}")
        # Event.__init__ inlined: a timeout is the most frequent event.
        self.engine = engine
        self.callbacks = []
        self._value = value
        self._ok = True
        self._cancelled = False
        self.delay = float(delay)
        heappush(
            engine._queue,
            (engine._now + delay, PRIORITY_NORMAL, next(engine._eid), self),
        )


class Condition(Event):
    """Waits for a combination of events.

    The condition's value is a dict mapping each *triggered* constituent
    event to its value, in trigger order — enough for waiters to find out
    which branch of an :class:`AnyOf` fired.

    A failure of any constituent fails the condition immediately.
    ``count_needed`` (default: all of them) is capped at the number of
    events, so a condition over no events succeeds at once.

    Once it succeeds or fails, the condition removes its check from every
    constituent still pending, so no event it raced keeps it (or its
    waiter) alive.
    """

    __slots__ = ("_events", "_count_needed", "_num_ok")

    def __init__(
        self,
        engine: "Engine",
        events: Iterable[Event],
        count_needed: Optional[int] = None,
    ):
        # Event.__init__ inlined: the MPI progress loop builds one
        # condition per wait.
        self.engine = engine
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self._cancelled = False
        self._events: List[Event] = list(events)
        n = len(self._events)
        if count_needed is not None:
            n = min(count_needed, n)
        self._count_needed = n
        self._num_ok = 0

        if n == 0:
            self.succeed({})

        # Validate and subscribe in one pass.  Once the condition has
        # triggered (on no events needed, or on an already-processed
        # one), only validate the rest.
        check = self._check
        for ev in self._events:
            if ev.engine is not engine:
                self._unsubscribe()
                raise SimulationError(
                    "all events of a condition must belong to the same engine"
                )
            if self._value is not PENDING:
                continue
            if ev.callbacks is None:
                # Already processed: account for it right away.
                check(ev)
            else:
                ev.callbacks.append(check)

    def _check(self, event: Event) -> None:
        if self._value is not PENDING:
            return
        if event._ok:
            self._num_ok += 1
            if self._num_ok < self._count_needed:
                return
            self.succeed(self._collect())
        else:
            self.fail(event._value)  # type: ignore[arg-type]
        self._unsubscribe()

    def _unsubscribe(self) -> None:
        """Remove this condition's check from every pending constituent."""
        check = self._check
        for ev in self._events:
            callbacks = ev.callbacks
            if callbacks is not None:
                try:
                    callbacks.remove(check)
                except ValueError:
                    pass  # never subscribed, or dropped by Engine.cancel

    def _collect(self) -> dict:
        # Only *processed* events count as having occurred: a Timeout carries
        # its value from creation, so `triggered` alone would wrongly include
        # timeouts that have not fired yet.
        return {ev: ev._value for ev in self._events if ev.processed and ev._ok}


class AnyOf(Condition):
    """Triggers as soon as *one* of the events triggers."""

    __slots__ = ()

    def __init__(self, engine: "Engine", events: Iterable[Event]):
        super().__init__(engine, events, count_needed=1)


class AllOf(Condition):
    """Triggers once *all* of the events have triggered."""

    __slots__ = ()

    def __init__(self, engine: "Engine", events: Iterable[Event]):
        super().__init__(engine, events, count_needed=None)
