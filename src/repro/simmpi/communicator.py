"""The per-rank MPI interface.

API style follows mpi4py's lowercase convention, except that every call
that can take simulated time is a *generator* to be driven with
``yield from`` inside a rank program::

    def program(comm):
        if comm.rank == 0:
            yield from comm.send(data, dest=1, tag=7)
        else:
            data = yield from comm.recv(source=0, tag=7)

Protocol model (MPICH 1.2.5 over TCP):

* messages at most ``eager_threshold_bytes`` are **eager**: the sender
  pays the per-message software overhead, hands the payload to the
  progress engine (socket buffering) and returns; the payload flows
  immediately;
* larger messages use **rendezvous**: the envelope travels ahead, the
  transfer starts only when the receiver matches it (clear-to-send), and
  the send completes with the transfer;
* while a rank *waits*, its CPU follows the progress-engine policy: if
  any traffic is flowing on the node's links, it busy-polls doing
  protocol byte-work (PROTO over a SPIN floor — fully *busy* in
  ``/proc/stat``, which is what blinds the cpuspeed daemon, paper §4);
  with no traffic it spins briefly and then blocks in the kernel (IDLE) —
  the state a backpressured bulk sender sits in.
"""

from __future__ import annotations

from typing import Generator, List, Optional, Sequence

from repro.hardware.activity import CpuActivity
from repro.hardware.cpu import SimCPU
from repro.hardware.node import Node
from repro.obs.instrument import traced_generator
from repro.obs.tracer import active_tracer
from repro.sim.events import Event
from repro.simmpi.message import ANY_SOURCE, ANY_TAG, Message, Status, payload_nbytes
from repro.simmpi.request import Request
from repro.simmpi.world import World

__all__ = ["Communicator"]

#: Base of the internal tag space reserved for collective operations.
COLLECTIVE_TAG_BASE = 1 << 20


class Communicator:
    """One rank's view of the world communicator."""

    def __init__(self, world: World, rank: int):
        if not 0 <= rank < world.size:
            raise ValueError(f"rank {rank} out of range for size {world.size}")
        self.world = world
        self.rank = rank
        self._coll_seq = 0

    # ------------------------------------------------------------------
    # topology & platform access
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        return self.world.size

    @property
    def engine(self):
        return self.world.engine

    @property
    def node(self) -> Node:
        return self.world.cluster.node(self.rank)

    @property
    def cpu(self) -> SimCPU:
        return self.node.cpu

    @property
    def memory(self):
        return self.node.memory

    def wtime(self) -> float:
        """Current simulated time (``MPI_Wtime``)."""
        return self.engine.now

    # ------------------------------------------------------------------
    # point-to-point
    # ------------------------------------------------------------------
    def isend(
        self,
        payload: object = None,
        dest: int = 0,
        tag: int = 0,
        nbytes: Optional[int] = None,
    ) -> Generator[Event, object, Request]:
        """Nonblocking send; returns a :class:`Request`.

        ``nbytes`` overrides the payload's wire size (synthetic mode:
        ``payload=None, nbytes=...``).
        """
        self._check_peer(dest)
        size = payload_nbytes(payload) if nbytes is None else int(nbytes)
        if size < 0:
            raise ValueError(f"nbytes must be non-negative, got {nbytes}")
        cal = self.world.calibration

        yield from self._charge_cycles(cal.message_overhead_cycles)

        msg = Message(
            source=self.rank,
            dest=dest,
            tag=tag,
            nbytes=size,
            payload=payload,
            seq=self.world.next_seq(),
            eager=size <= cal.eager_threshold_bytes,
            send_time=self.engine.now,
        )
        msg.data_done = self.engine.event()
        completion = self.engine.event()
        max_rate = self._cpu_feed_rate()

        if msg.eager:
            self.world.post(msg)
            self.world.start_transfer(msg, max_rate)
            completion.succeed(None)  # buffered: sender may proceed
        else:
            msg.cts = self.engine.event()
            self.world.post(msg)
            self.world.start_rendezvous(msg, completion, max_rate)
        return Request(completion, "send")

    def irecv(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
    ) -> Request:
        """Nonblocking receive; matching progresses in the background."""
        if source != ANY_SOURCE:
            self._check_peer(source)
        completion = self.engine.event()
        req = Request(completion, "recv")
        self.engine.process(
            self._recv_progress(source, tag, req),
            name=f"irecv[rank{self.rank}]",
        )
        return req

    def _recv_progress(
        self, source: int, tag: int, req: Request
    ) -> Generator[Event, object, None]:
        inbox = self.world.inboxes[self.rank]
        matched = yield inbox.get(lambda m: m.matches(source, tag))
        msg: Message = matched  # type: ignore[assignment]
        if not msg.eager:
            assert msg.cts is not None
            msg.cts.succeed(None)  # clear-to-send
        assert msg.data_done is not None
        yield msg.data_done
        req._set_status(msg.status())
        req.completion.succeed(msg.payload)

    def iprobe(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
    ) -> Optional["Status"]:
        """Non-blocking probe: status of a matchable envelope, or None.

        Like ``MPI_Iprobe``, a positive result does not mean the payload
        has arrived — only that a matching message has been initiated
        (its envelope is queued); a subsequent ``recv`` will match it.
        """
        if source != ANY_SOURCE:
            self._check_peer(source)
        inbox = self.world.inboxes[self.rank]
        msg = inbox.probe(lambda m: m.matches(source, tag))
        return msg.status() if msg is not None else None

    def wait(self, request: Request) -> Generator[Event, object, object]:
        """Wait for a request under the progress-engine CPU policy.

        For receives, additionally charges the non-overlappable unpack
        cycles once the payload has arrived.
        """
        value = yield from self._progress_wait(request.completion)
        if request.kind == "recv":
            cal = self.world.calibration
            status = request.status
            nbytes = status.nbytes if status is not None else 0
            cycles = cal.message_overhead_cycles + nbytes * cal.serial_cycles_per_byte
            yield from self._charge_cycles(cycles)
        return value

    def waitall(
        self, requests: Sequence[Request]
    ) -> Generator[Event, object, List[object]]:
        """Wait for all requests; returns their values in order."""
        values: List[object] = []
        for req in requests:
            values.append((yield from self.wait(req)))
        return values

    def send(
        self,
        payload: object = None,
        dest: int = 0,
        tag: int = 0,
        nbytes: Optional[int] = None,
    ) -> Generator[Event, object, None]:
        """Blocking send (completes locally for eager messages)."""
        gen = self._send_phase(payload, dest, tag, nbytes)
        tracer = active_tracer()
        if not tracer.enabled:
            return gen
        return traced_generator(
            tracer, self.engine, gen, "send", "mpi.p2p", self.rank,
            {"dest": dest, "tag": tag},
        )

    def _send_phase(
        self,
        payload: object,
        dest: int,
        tag: int,
        nbytes: Optional[int],
    ) -> Generator[Event, object, None]:
        req = yield from self.isend(payload, dest, tag, nbytes)
        yield from self.wait(req)

    def recv(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
    ) -> Generator[Event, object, object]:
        """Blocking receive; returns the payload."""
        gen = self._recv_phase(source, tag)
        tracer = active_tracer()
        if not tracer.enabled:
            return gen
        return traced_generator(
            tracer, self.engine, gen, "recv", "mpi.p2p", self.rank,
            {"source": source, "tag": tag},
        )

    def _recv_phase(
        self, source: int, tag: int
    ) -> Generator[Event, object, object]:
        req = self.irecv(source, tag)
        return (yield from self.wait(req))

    def sendrecv(
        self,
        payload: object,
        dest: int,
        source: int,
        tag: int = 0,
        nbytes: Optional[int] = None,
    ) -> Generator[Event, object, object]:
        """Simultaneous send+receive (deadlock-free pairwise exchange)."""
        gen = self._sendrecv_phase(payload, dest, source, tag, nbytes)
        tracer = active_tracer()
        if not tracer.enabled:
            return gen
        return traced_generator(
            tracer, self.engine, gen, "sendrecv", "mpi.p2p", self.rank,
            {"dest": dest, "source": source, "tag": tag},
        )

    def _sendrecv_phase(
        self,
        payload: object,
        dest: int,
        source: int,
        tag: int,
        nbytes: Optional[int],
    ) -> Generator[Event, object, object]:
        rreq = self.irecv(source, tag)
        sreq = yield from self.isend(payload, dest, tag, nbytes)
        yield from self.wait(sreq)
        return (yield from self.wait(rreq))

    # ------------------------------------------------------------------
    # collectives (implemented in collectives.py, re-exported as methods)
    # ------------------------------------------------------------------
    def _traced_collective(self, name: str, gen, args: Optional[dict] = None):
        """Wrap a collective's generator in a span (untouched when the
        active tracer is disabled — the zero-cost path returns ``gen``)."""
        tracer = active_tracer()
        if not tracer.enabled:
            return gen
        return traced_generator(
            tracer, self.engine, gen, name, "mpi.coll", self.rank, args
        )

    def barrier(self):
        from repro.simmpi import collectives

        return self._traced_collective("barrier", collectives.barrier(self))

    def bcast(self, payload: object = None, root: int = 0, nbytes: Optional[int] = None):
        from repro.simmpi import collectives

        return self._traced_collective(
            "bcast", collectives.bcast(self, payload, root, nbytes),
            {"root": root},
        )

    def reduce(self, value: object, root: int = 0, nbytes: Optional[int] = None):
        from repro.simmpi import collectives

        return self._traced_collective(
            "reduce", collectives.reduce(self, value, root, nbytes),
            {"root": root},
        )

    def allreduce(self, value: object, nbytes: Optional[int] = None):
        from repro.simmpi import collectives

        return self._traced_collective(
            "allreduce", collectives.allreduce(self, value, nbytes)
        )

    def gather(self, value: object, root: int = 0, nbytes: Optional[int] = None):
        from repro.simmpi import collectives

        return self._traced_collective(
            "gather", collectives.gather(self, value, root, nbytes),
            {"root": root},
        )

    def scatter(self, values: Optional[Sequence[object]], root: int = 0,
                nbytes: Optional[int] = None):
        from repro.simmpi import collectives

        return self._traced_collective(
            "scatter", collectives.scatter(self, values, root, nbytes),
            {"root": root},
        )

    def allgather(self, value: object, nbytes: Optional[int] = None):
        from repro.simmpi import collectives

        return self._traced_collective(
            "allgather", collectives.allgather(self, value, nbytes)
        )

    def alltoall(self, values: Optional[Sequence[object]] = None,
                 nbytes_each: Optional[int] = None):
        from repro.simmpi import collectives

        return self._traced_collective(
            "alltoall", collectives.alltoall(self, values, nbytes_each)
        )

    def next_collective_tag(self) -> int:
        """Fresh internal tag; stays in lockstep across SPMD ranks."""
        self._coll_seq += 1
        return COLLECTIVE_TAG_BASE + self._coll_seq

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _check_peer(self, peer: int) -> None:
        if not 0 <= peer < self.size:
            raise ValueError(f"peer rank {peer} out of range for size {self.size}")

    def _charge_cycles(self, cycles: float) -> Generator[Event, object, None]:
        """Charge MPI software cycles (busy, frequency-dependent)."""
        if cycles > 0:
            yield from self.cpu.run_cycles(cycles, state=CpuActivity.PROTO)

    def _cpu_feed_rate(self) -> Optional[float]:
        """Max payload rate (bytes/s) the CPU can push at its current clock."""
        cpb = self.world.calibration.proto_cycles_per_byte
        if cpb <= 0:
            return None
        return self.cpu.frequency / cpb

    def _proto_utilization(self) -> float:
        """CPU share needed to keep a saturated link fed at current f."""
        cal = self.world.calibration
        if cal.proto_cycles_per_byte <= 0:
            return 0.0
        rate = cal.network.payload_rate
        return min(1.0, cal.proto_cycles_per_byte * rate / self.cpu.frequency)

    def _progress_wait(
        self, event: Event
    ) -> Generator[Event, object, object]:
        """Wait for ``event`` under the MPICH-1 progress-engine policy."""
        engine = self.engine
        fabric = self.world.fabric
        cpu = self.cpu
        cal = self.world.calibration
        nid = self.rank
        try:
            while not event.processed:
                if fabric.traffic_active(nid):
                    # Bytes are flowing on our links: the progress engine is
                    # busy-polling and doing protocol byte-work.
                    cpu.set_state(
                        CpuActivity.PROTO,
                        self._proto_utilization(),
                        floor=CpuActivity.SPIN,
                    )
                    yield engine.any_of(
                        [event, fabric.activity_changed(nid), cpu.freq_changed]
                    )
                    continue
                # Nothing moving: spin briefly, then block in the kernel.
                cpu.set_state(CpuActivity.SPIN, 1.0)
                threshold = cal.spin_block_threshold
                if threshold == float("inf"):
                    yield engine.any_of([event, fabric.activity_changed(nid)])
                    continue
                deadline = engine.timeout(threshold)
                yield engine.any_of(
                    [event, fabric.activity_changed(nid), deadline]
                )
                if event.processed or fabric.traffic_active(nid):
                    continue
                if not deadline.processed:
                    continue  # activity flapped; restart the spin window
                cpu.set_state(CpuActivity.IDLE, 1.0)
                yield engine.any_of([event, fabric.activity_changed(nid)])
        finally:
            cpu.set_state(CpuActivity.IDLE, 1.0)
        if not event.ok:
            raise event.value  # type: ignore[misc]
        return event.value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Communicator rank={self.rank}/{self.size}>"
