"""Fast-Ethernet cluster interconnect model.

The paper's cluster is 16 laptops on a 100 Mb Cisco Catalyst 2950.  The
switch backplane is non-blocking for this port count, so the contended
resources are each node's full-duplex **tx** and **rx** links.  We model a
message transfer as a sequence of *chunks*; each chunk holds the sender's
tx link and the receiver's rx link simultaneously for its wire time.
Chunked transfers give approximate fair sharing under contention (flows
interleave at chunk granularity) and correct serialisation for incast
patterns (14 senders into one root share the root's rx link — the
transpose's step 3).

Deadlock freedom: a flow acquires tx first, then rx, then transmits and
releases both.  A flow holding an rx link is never waiting (it is
transmitting), so no hold-and-wait cycle can form.

CPU coupling: the fabric itself only moves bytes and toggles per-node
tx/rx activity counters.  The MPI layer reads those counters to decide
whether a waiting rank busy-polls (traffic flowing — the MPICH-1 progress
engine has work) or blocks in the kernel (backpressured), and charges
protocol cycles for the bytes moved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Generator, List, Optional, Tuple

from repro.sim.engine import Engine
from repro.sim.events import Event
from repro.sim.resources import Resource
from repro.util.units import KIB
from repro.util.validation import check_fraction, check_positive

__all__ = ["NetworkConfig", "NetworkFabric"]


@dataclass(frozen=True)
class NetworkConfig:
    """Interconnect parameters (defaults: 100 Mb switched Fast Ethernet)."""

    bandwidth_bps: float = 100e6  #: raw link rate, bits/second
    efficiency: float = 0.9  #: payload fraction after TCP/IP + Ethernet framing
    latency: float = 80e-6  #: one-way small-message latency (MPICH over TCP)
    chunk_bytes: int = 128 * KIB  #: contention granularity
    loopback_bandwidth: float = 1.0e9  #: bytes/s for self-sends (memcpy speed)

    def __post_init__(self) -> None:
        check_positive("bandwidth_bps", self.bandwidth_bps)
        check_fraction("efficiency", self.efficiency)
        check_positive("efficiency", self.efficiency)
        check_positive("chunk_bytes", self.chunk_bytes)
        check_positive("loopback_bandwidth", self.loopback_bandwidth)
        if self.latency < 0:
            raise ValueError(f"latency must be non-negative, got {self.latency}")

    @property
    def payload_rate(self) -> float:
        """Effective payload bandwidth in bytes/second."""
        return self.bandwidth_bps * self.efficiency / 8.0

    def wire_time(self, nbytes: float) -> float:
        """Serialisation time of ``nbytes`` of payload on one link."""
        return nbytes / self.payload_rate


class _LinkActivity:
    """One direction of one endpoint: an activity counter whose 0↔>0
    transitions notify the fabric."""

    __slots__ = ("_fabric", "_node", "_count")

    def __init__(self, fabric: "NetworkFabric", node: int):
        self._fabric = fabric
        self._node = node
        self._count = 0

    @property
    def active(self) -> bool:
        return self._count > 0

    def acquire(self) -> None:
        self._count += 1
        if self._count == 1:
            self._fabric._activity_flipped(self._node)

    def release(self) -> None:
        if self._count <= 0:
            raise RuntimeError("link activity released more times than acquired")
        self._count -= 1
        if self._count == 0:
            self._fabric._activity_flipped(self._node)


class _Endpoint:
    """One node's port: its tx/rx links and their activity counters."""

    __slots__ = ("tx", "rx", "tx_activity", "rx_activity", "changed")

    def __init__(self, fabric: "NetworkFabric", node: int):
        self.tx = Resource(fabric.engine)
        self.rx = Resource(fabric.engine)
        self.tx_activity = _LinkActivity(fabric, node)
        self.rx_activity = _LinkActivity(fabric, node)
        #: combined tx|rx change event; None ⇒ nobody is currently waiting
        self.changed: Optional[Event] = None


class NetworkFabric:
    """The switched interconnect between ``n_nodes`` endpoints.

    An endpoint's link state (:class:`_Endpoint`) is created the first
    time something transfers on or waits on it, so a node no rank ever
    touches costs nothing; its links read idle.
    """

    def __init__(self, engine: Engine, n_nodes: int, config: Optional[NetworkConfig] = None):
        if n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1, got {n_nodes}")
        self.engine = engine
        self.n_nodes = n_nodes
        self.config = config or NetworkConfig()
        self._endpoints: Dict[int, _Endpoint] = {}
        self._listeners: List[Callable[[int], None]] = []
        # Per-endpoint extra one-way latency (seconds) — a degraded link
        # (flaky cable, renegotiated duplex).  The fault injector sets it.
        self._latency_penalty = [0.0] * n_nodes
        #: total payload bytes moved (excludes loopback), for reporting
        self.bytes_transferred = 0

    def _endpoint(self, node: int) -> _Endpoint:
        endpoint = self._endpoints.get(node)
        if endpoint is None:
            self._check_endpoint(node)
            endpoint = self._endpoints[node] = _Endpoint(self, node)
        return endpoint

    @property
    def wired_endpoints(self) -> Tuple[int, ...]:
        """Ids of the nodes whose link state exists, ascending."""
        return tuple(sorted(self._endpoints))

    # ------------------------------------------------------------------
    # activity observation (used by the MPI wait policy and NIC power)
    # ------------------------------------------------------------------
    def tx_active(self, node: int) -> bool:
        endpoint = self._endpoints.get(node)
        return endpoint is not None and endpoint.tx_activity.active

    def rx_active(self, node: int) -> bool:
        endpoint = self._endpoints.get(node)
        return endpoint is not None and endpoint.rx_activity.active

    def traffic_active(self, node: int) -> bool:
        """Whether any chunk is currently on this node's tx or rx link."""
        return self.tx_active(node) or self.rx_active(node)

    def activity_changed(self, node: int) -> Event:
        """Event firing at the node's next tx *or* rx activity transition."""
        endpoint = self._endpoint(node)
        if endpoint.changed is None:
            endpoint.changed = self.engine.event()
        return endpoint.changed

    def add_activity_listener(self, listener: Callable[[int], None]) -> None:
        """Synchronous ``listener(node)`` on every tx/rx activity flip of
        any endpoint (NIC power)."""
        self._listeners.append(listener)

    def _activity_flipped(self, node: int) -> None:
        endpoint = self._endpoints[node]
        ev = endpoint.changed
        if ev is not None:
            endpoint.changed = None
            ev.succeed(self.traffic_active(node))
        for listener in self._listeners:
            listener(node)

    # ------------------------------------------------------------------
    # degraded links (used by the fault injector)
    # ------------------------------------------------------------------
    def link_latency_penalty(self, node: int) -> float:
        """Extra one-way latency (s) currently charged at this endpoint."""
        self._check_endpoint(node)
        return self._latency_penalty[node]

    def set_link_latency_penalty(self, node: int, seconds: float) -> None:
        """Degrade (or, with 0, restore) one endpoint's link latency.

        Every transfer touching the endpoint — as sender or receiver —
        pays the penalty on top of the configured wire latency.
        """
        self._check_endpoint(node)
        if seconds < 0:
            raise ValueError(
                f"latency penalty must be non-negative, got {seconds}"
            )
        self._latency_penalty[node] = seconds

    # ------------------------------------------------------------------
    # transfers
    # ------------------------------------------------------------------
    def transfer(
        self,
        src: int,
        dst: int,
        nbytes: int,
        max_rate: Optional[float] = None,
    ) -> Generator[Event, object, float]:
        """Move ``nbytes`` of payload from ``src`` to ``dst``.

        Generator; drive with ``yield from``.  Returns the wall time spent.

        ``max_rate`` (bytes/s) caps the achievable rate below the wire
        speed — the MPI layer uses it when the *CPU* cannot feed the link
        (protocol cycles per byte exceed the clock's budget at a low DVS
        point).
        """
        self._check_endpoint(src)
        self._check_endpoint(dst)
        if nbytes < 0:
            raise ValueError(f"nbytes must be non-negative, got {nbytes}")
        start = self.engine.now
        cfg = self.config

        if src == dst:
            # Loopback: memcpy through DRAM, no NIC involvement.
            if nbytes:
                yield self.engine.timeout(nbytes / cfg.loopback_bandwidth)
            return self.engine.now - start

        latency = (
            cfg.latency
            + self._latency_penalty[src]
            + self._latency_penalty[dst]
        )
        if latency > 0:
            yield self.engine.timeout(latency)

        rate = cfg.payload_rate
        if max_rate is not None:
            rate = min(rate, check_positive("max_rate", max_rate))

        remaining = int(nbytes)
        sender, receiver = self._endpoint(src), self._endpoint(dst)
        tx, rx = sender.tx, receiver.rx
        tx_act, rx_act = sender.tx_activity, receiver.rx_activity
        while remaining > 0:
            tx_req = tx.request()
            yield tx_req
            rx_req = rx.request()
            yield rx_req
            tx_act.acquire()
            rx_act.acquire()
            try:
                if (
                    remaining > cfg.chunk_bytes
                    and not tx.queue_length
                    and not rx.queue_length
                ):
                    # Uncontended multi-chunk message: hold both links
                    # across every chunk, racing completion against new
                    # contention (see _bulk_hold).
                    remaining = yield from self._bulk_hold(
                        remaining, rate, tx, rx
                    )
                else:
                    chunk = min(cfg.chunk_bytes, remaining)
                    yield self.engine.timeout(chunk / rate)
                    remaining -= chunk
            finally:
                tx_act.release()
                rx_act.release()
                tx.release(tx_req)
                rx.release(rx_req)
        self.bytes_transferred += int(nbytes)
        return self.engine.now - start

    def _bulk_hold(
        self,
        remaining: int,
        rate: float,
        tx: Resource,
        rx: Resource,
    ) -> Generator[Event, object, int]:
        """Transmit as many chunks as possible in one link hold.

        Schedules a single cancellable completion at the message's last
        chunk boundary instead of one timeout (plus resource churn and
        activity flaps) per chunk.  The boundary comes from the same
        left-to-right float fold a per-chunk walk performs
        (``t = t + chunk/rate`` per chunk), so completion lands on the
        **exact** float instant the walk produces; no list of boundaries
        is built.  A request queueing on either link fires
        ``contended()``; the hold is then released at the next chunk
        boundary, re-folded from the start — restoring the walk's
        chunk-granularity fair sharing.  Returns the bytes still to send.
        """
        engine = self.engine
        chunk_bytes = self.config.chunk_bytes
        start = t = engine.now
        full, tail = divmod(remaining, chunk_bytes)
        step = chunk_bytes / rate
        for _ in range(full):
            t = t + step
        if tail:
            t = t + tail / rate
        done = engine.timeout_at(t)
        yield engine.any_of([done, tx.contended(), rx.contended()])
        if done.processed:
            return 0
        engine.cancel(done)
        # Contention: finish the chunk in flight (the first boundary at
        # or after now), then hand over.
        t, sent = start, 0
        while not sent or t < engine.now:
            chunk = min(chunk_bytes, remaining - sent)
            t, sent = t + chunk / rate, sent + chunk
        if t > engine.now:
            yield engine.timeout_at(t)
        return remaining - sent

    def _check_endpoint(self, node: int) -> None:
        if not 0 <= node < self.n_nodes:
            raise ValueError(
                f"node {node} out of range for {self.n_nodes}-node fabric"
            )
