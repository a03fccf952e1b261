"""Shared-resource primitives built on the event kernel.

* :class:`Resource` — a counted FIFO resource (network links, the root
  assembly buffer, ...).  Requests are events; release wakes the next
  waiter at the same simulation time.
* :class:`Store` — an unbounded FIFO of items with blocking ``get``; the
  message-matching queues in :mod:`repro.simmpi` are built on a filtered
  variant, :class:`FilterStore`.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Deque, List, Optional

from repro.sim.errors import SimulationError
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine

__all__ = ["Request", "Resource", "Store", "FilterStore"]


class Request(Event):
    """A pending claim on a :class:`Resource`.

    Usable as a context manager in generator code::

        req = link.request()
        yield req
        try:
            ...
        finally:
            link.release(req)
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        super().__init__(resource.engine)
        self.resource = resource


class Resource:
    """A counted, FIFO-ordered shared resource."""

    def __init__(self, engine: "Engine", capacity: int = 1):
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.engine = engine
        self.capacity = int(capacity)
        self._users: List[Request] = []
        self._waiters: Deque[Request] = deque()
        self._contended: Optional[Event] = None

    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        """Number of current holders."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for the resource."""
        return len(self._waiters)

    def request(self) -> Request:
        """Claim the resource; the returned event fires once granted."""
        req = Request(self)
        if len(self._users) < self.capacity:
            self._users.append(req)
            req.succeed(self)
        else:
            self._waiters.append(req)
            ev, self._contended = self._contended, None
            if ev is not None:
                ev.succeed(None)
        return req

    def contended(self) -> Event:
        """Event firing the next time a request has to queue.

        Bulk holders (the link holds in
        :meth:`repro.hardware.network.NetworkFabric.transfer`) race this
        against their completion so they can hand the resource over at
        the next chunk boundary, keeping chunk-granularity fair sharing
        without per-chunk events while uncontended.  Note it only
        reports *future* arrivals — a holder must check
        :attr:`queue_length` for waiters that queued before the call.
        """
        ev = self._contended
        if ev is None:
            ev = Event(self.engine)
            self._contended = ev
        return ev

    def release(self, request: Request) -> None:
        """Give the resource back and wake the next waiter (if any)."""
        try:
            self._users.remove(request)
        except ValueError:
            raise SimulationError(
                "release() of a request that does not hold the resource"
            ) from None
        while self._waiters and len(self._users) < self.capacity:
            nxt = self._waiters.popleft()
            self._users.append(nxt)
            nxt.succeed(self)

    def cancel(self, request: Request) -> None:
        """Withdraw a not-yet-granted request."""
        try:
            self._waiters.remove(request)
        except ValueError:
            raise SimulationError("cancel() of a request that is not waiting") from None


class Store:
    """Unbounded FIFO of items with blocking retrieval.

    ``put`` never blocks.  ``get`` returns an event whose value is the item.
    """

    def __init__(self, engine: "Engine"):
        self.engine = engine
        self._items: Deque[object] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: object) -> None:
        """Deposit ``item``, waking a blocked getter if one exists."""
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Event that fires with the next available item."""
        ev = Event(self.engine)
        if self._items:
            ev.succeed(self._items.popleft())
        else:
            self._getters.append(ev)
        return ev

    def peek_items(self) -> tuple:
        """Snapshot of the queued items (for tests and tracing)."""
        return tuple(self._items)


class FilterStore:
    """A store whose getters only accept items matching a predicate.

    This is the matching engine under simulated-MPI receives: a receive for
    ``(source, tag)`` blocks until a message satisfying the predicate is
    deposited.  Items that match no waiting getter queue up; getters that
    match no queued item queue up.  FIFO order is preserved *per predicate*
    (MPI's non-overtaking rule between a matching (source, tag) pair).
    """

    def __init__(self, engine: "Engine"):
        self.engine = engine
        self._items: List[object] = []
        self._getters: List[tuple] = []  # (event, predicate)

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: object) -> None:
        """Deposit ``item``; hand it to the first matching waiter, if any."""
        for idx, (ev, predicate) in enumerate(self._getters):
            if predicate(item):
                del self._getters[idx]
                ev.succeed(item)
                return
        self._items.append(item)

    def get(self, predicate: Callable[[object], bool]) -> Event:
        """Event that fires with the first item matching ``predicate``."""
        ev = Event(self.engine)
        for idx, item in enumerate(self._items):
            if predicate(item):
                del self._items[idx]
                ev.succeed(item)
                return ev
        self._getters.append((ev, predicate))
        return ev

    def probe(self, predicate: Callable[[object], bool]) -> Optional[object]:
        """Non-destructively look for a queued matching item (MPI_Iprobe)."""
        for item in self._items:
            if predicate(item):
                return item
        return None
