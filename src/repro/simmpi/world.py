"""The shared state of a simulated MPI job: matching queues and progress.

One :class:`World` exists per SPMD run.  It owns the per-rank matching
queues (:class:`~repro.sim.resources.FilterStore`), assigns global message
sequence numbers, and spawns the background *progress processes* that move
message payloads across the fabric — the moral equivalent of the kernel
TCP stack plus MPICH's progress engine doing its work asynchronously.

Progress processes deliberately do **not** touch rank CPU states: the CPU
cost of communication is charged in the rank's own context (message
overheads at post time, the poll/block wait policy while waiting, and the
serial unpack after arrival), which is where a real rank pays it.
"""

from __future__ import annotations

from itertools import count
from typing import Generator, List

from repro.hardware.cluster import Cluster
from repro.sim.engine import Engine
from repro.sim.events import Event
from repro.sim.resources import FilterStore
from repro.simmpi.communicator import Communicator
from repro.simmpi.message import Message

__all__ = ["World"]


class World:
    """Shared communication state for one simulated MPI job."""

    def __init__(self, cluster: Cluster, size: int | None = None):
        n = cluster.n_nodes if size is None else size
        if not 1 <= n <= cluster.n_nodes:
            raise ValueError(
                f"world size must be in [1, {cluster.n_nodes}], got {size}"
            )
        self.cluster = cluster
        self._size = n
        self.engine: Engine = cluster.engine
        self.calibration = cluster.calibration
        self.fabric = cluster.fabric
        self.inboxes: List[FilterStore] = [
            FilterStore(self.engine) for _ in range(n)
        ]
        self._seq = count()
        #: total messages posted (for reporting)
        self.message_count = 0

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of ranks in the job (may be fewer than cluster nodes)."""
        return self._size

    def next_seq(self) -> int:
        self.message_count += 1
        return next(self._seq)

    def comm(self, rank: int) -> Communicator:
        """The per-rank communicator view."""
        return Communicator(self, rank)

    # ------------------------------------------------------------------
    # progress processes
    # ------------------------------------------------------------------
    def post(self, msg: Message) -> None:
        """Deposit the envelope into the destination's matching queue.

        Envelopes are posted in send order, which preserves MPI's
        non-overtaking guarantee between matching (source, tag) pairs.
        """
        self.inboxes[msg.dest].put(msg)

    def start_transfer(self, msg: Message, max_rate: float | None) -> None:
        """Spawn the payload transfer; fires ``msg.data_done`` when done."""
        self.engine.process(
            self._transfer_progress(msg, max_rate),
            name=f"xfer[{msg.source}->{msg.dest}#{msg.seq}]",
        )

    def start_rendezvous(
        self, msg: Message, completion: Event, max_rate: float | None
    ) -> None:
        """Spawn the CTS-wait + transfer; fires ``completion`` at the end."""
        self.engine.process(
            self._rendezvous_progress(msg, completion, max_rate),
            name=f"rndv[{msg.source}->{msg.dest}#{msg.seq}]",
        )

    def _transfer_progress(
        self, msg: Message, max_rate: float | None
    ) -> Generator[Event, object, None]:
        yield from self.fabric.transfer(
            msg.source, msg.dest, msg.nbytes, max_rate=max_rate
        )
        assert msg.data_done is not None
        msg.data_done.succeed(None)

    def _rendezvous_progress(
        self, msg: Message, completion: Event, max_rate: float | None
    ) -> Generator[Event, object, None]:
        assert msg.cts is not None and msg.data_done is not None
        yield msg.cts
        yield from self.fabric.transfer(
            msg.source, msg.dest, msg.nbytes, max_rate=max_rate
        )
        msg.data_done.succeed(None)
        completion.succeed(None)
