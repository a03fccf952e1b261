"""The discrete-event simulation engine.

:class:`Engine` owns simulated time and the pending-event heap.  All other
kernel objects (:class:`~repro.sim.events.Event`,
:class:`~repro.sim.process.Process`, the resources in
:mod:`repro.sim.resources`) are created against an engine and scheduled
through it.

Events dispatch in ``(time, priority, insertion-seq)`` order.
:meth:`Engine.run` is the one dispatch loop: one heap pop and one
callback loop per event.  :meth:`Event.succeed`, :meth:`Event.fail` and
:class:`Timeout` push their own heap rows; :meth:`Engine.schedule` and
:meth:`Engine.schedule_at` push rows for callers that pick a delay,
instant or priority.
:meth:`Engine.cancel` revokes a queued event lazily: it flags the event
and drops its callbacks, and its row stays in the heap until it reaches
the head, so cancelling is O(1) and a cancelled event never decides the
next dispatch time.  The hardware layer's bulk paths are built on it (a
``run_cycles`` quantum re-armed on a frequency change, a link hold
preempted by contention).

Time is a ``float`` in **seconds**; the hardware layer converts everything
(cycle counts, byte counts) to seconds before scheduling.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from typing import Iterable, List, Optional, Tuple

from repro.sim.errors import SimulationError, StopSimulation
from repro.sim.events import (
    _INF,
    PRIORITY_LOW,
    PRIORITY_NORMAL,
    PRIORITY_URGENT,
    AllOf,
    AnyOf,
    Event,
    Timeout,
)
from repro.sim.process import Process, ProcessGenerator

__all__ = [
    "Engine",
    "EngineStats",
    "PRIORITY_URGENT",
    "PRIORITY_NORMAL",
    "PRIORITY_LOW",
]


class EngineStats:
    """Counters the engine maintains (cheap ints, always on)."""

    __slots__ = ("dispatched", "cancelled", "frontiers")

    def __init__(self) -> None:
        self.dispatched = 0  #: events actually processed
        self.cancelled = 0  #: events revoked before dispatch
        self.frontiers = 0  #: times the clock advanced to a later instant


class Engine:
    """Discrete-event simulation core.

    Parameters
    ----------
    start_time:
        Initial value of the simulation clock (seconds).
    strict:
        When ``True`` (the default), an uncaught exception inside a process
        propagates out of :meth:`run` immediately, which is the behaviour
        you want in tests.  When ``False`` the process simply fails and
        waiters observe the exception.
    """

    def __init__(self, start_time: float = 0.0, strict: bool = True):
        self._now = float(start_time)
        self._queue: List[Tuple[float, int, int, Event]] = []
        self._eid = count()
        # Rows of cancelled events still in the heap.
        self._dead = 0
        self.stats = EngineStats()
        self._active_process: Optional[Process] = None
        self.strict = strict
        self._running = False

    # ------------------------------------------------------------------
    # clock & queue
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being stepped, if any."""
        return self._active_process

    def schedule(
        self,
        event: Event,
        delay: float = 0.0,
        priority: int = PRIORITY_NORMAL,
    ) -> None:
        """Queue ``event`` for processing ``delay`` seconds from now."""
        if not 0.0 <= delay < _INF:
            # NaN fails both comparisons; a NaN (or inf) key would silently
            # corrupt heap ordering, so reject every non-finite delay here.
            raise SimulationError(
                f"cannot schedule into the past or with a non-finite "
                f"delay (delay={delay})"
            )
        heappush(
            self._queue, (self._now + delay, priority, next(self._eid), event)
        )

    def schedule_at(
        self,
        event: Event,
        when: float,
        priority: int = PRIORITY_NORMAL,
    ) -> None:
        """Queue ``event`` for processing at absolute time ``when``.

        Unlike ``schedule(delay=when - now)`` this does not round-trip
        through a subtraction, so a caller that *computed* an exact float
        instant (e.g. the last chunk boundary of a bulk link hold) gets
        the event dispatched at exactly that float.
        """
        if not self._now <= when < _INF:
            raise SimulationError(
                f"cannot schedule at {when!r} (now={self._now}, "
                f"non-finite and past instants are rejected)"
            )
        heappush(self._queue, (when, priority, next(self._eid), event))

    def timeout_at(self, when: float, value: object = None) -> Event:
        """An event that fires at absolute time ``when`` (cancellable)."""
        event = Event(self)
        event._ok = True
        event._value = value
        self.schedule_at(event, when)
        return event

    def cancel(self, event: Event) -> bool:
        """Revoke a scheduled-but-unprocessed event in O(1).

        Returns ``True`` when the event was live and is now cancelled.
        The event object stays *triggered* (it carries its value) but it
        never becomes ``processed``: its callbacks are dropped at once,
        so nothing it would have woken is kept alive by its heap row.
        Only events currently in the queue may be cancelled.
        """
        if event.callbacks is None or not event.triggered or event._cancelled:
            return False
        event._cancelled = True
        event.callbacks.clear()
        self._dead += 1
        self.stats.cancelled += 1
        return True

    def peek(self) -> float:
        """Time of the next live event, or ``inf`` if none."""
        queue = self._queue
        # Drop cancelled rows at the head, so that a cancelled event never
        # determines the next dispatch time (run(until=t) must not
        # overshoot on one).
        while self._dead and queue[0][3]._cancelled:
            heappop(queue)
            self._dead -= 1
        return queue[0][0] if queue else _INF

    @property
    def pending(self) -> int:
        """Number of live (scheduled, uncancelled) events."""
        return len(self._queue) - self._dead

    def run(self, until: object = None) -> object:
        """Run the simulation.

        Parameters
        ----------
        until:
            * ``None`` — run until the event queue drains;
            * a number — run until that simulated time;
            * an :class:`Event` — run until the event is processed, and
              return its value (re-raising its exception on failure).
        """
        if self._running:
            raise SimulationError("run() is not re-entrant")

        stop_at: Optional[float] = None
        watched: Optional[Event] = None
        if until is None:
            pass
        elif isinstance(until, Event):
            watched = until
            if watched.callbacks is None:
                # Already processed; nothing to do.
                if not watched._ok:
                    raise watched._value  # type: ignore[misc]
                return watched._value
            watched.callbacks.append(self._stop_on_event)
        elif isinstance(until, (int, float)):
            stop_at = float(until)
            if stop_at < self._now:
                raise SimulationError(
                    f"until={stop_at} is in the past (now={self._now})"
                )
        else:
            raise SimulationError(f"invalid until argument: {until!r}")

        limit = _INF if stop_at is None else stop_at
        queue = self._queue
        stats = self.stats
        self._running = True
        try:
            # The one dispatch loop: drop a cancelled head row, stop at the
            # first live row past ``limit``, else pop it and run its
            # callbacks.
            while queue:
                when, _prio, _eid, event = queue[0]
                if event._cancelled:
                    heappop(queue)
                    self._dead -= 1
                    continue
                if when > limit:
                    break
                heappop(queue)
                stats.dispatched += 1
                if when != self._now:
                    self._now = when
                    stats.frontiers += 1
                callbacks, event.callbacks = event.callbacks, None
                if callbacks is None:  # pragma: no cover - defensive
                    raise SimulationError(f"{event!r} processed twice")
                for callback in callbacks:
                    callback(event)
        except StopSimulation as stop:
            event = stop.value
            assert isinstance(event, Event)
            if not event._ok:
                raise event._value  # type: ignore[misc]
            return event._value
        finally:
            self._running = False

        if watched is not None and not watched.processed:
            # A cancelled event is triggered but never processed: it
            # ends the run exactly like an event that never triggers.
            raise SimulationError(
                "run(until=event) ended with the event never triggering "
                "(deadlock or missing stimulus)"
            )
        if stop_at is not None:
            self._now = stop_at
        return None

    @staticmethod
    def _stop_on_event(event: Event) -> None:
        raise StopSimulation(event)

    # ------------------------------------------------------------------
    # factories
    # ------------------------------------------------------------------
    def event(self) -> Event:
        """Create a fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: object = None) -> Timeout:
        """Create an event that fires ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(
        self, generator: ProcessGenerator, name: Optional[str] = None
    ) -> Process:
        """Start a new simulated process from ``generator``."""
        return Process(self, generator, name=name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that fires when any of ``events`` fires."""
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that fires when all of ``events`` have fired."""
        return AllOf(self, events)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Engine t={self._now:.6g} pending={self.pending}>"
