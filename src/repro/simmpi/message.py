"""Message envelopes and payload sizing for the simulated MPI.

A message travels as an *envelope* posted into the destination's matching
queue at send time (which preserves MPI's non-overtaking order), plus a
data transfer that completes the envelope's ``data_done`` event.  Eager
messages start their transfer immediately; rendezvous messages wait for
the receiver to fire ``cts`` (clear-to-send) first.

Payloads may be real Python/numpy objects (verification mode — the bytes
that move are the bytes you get) or ``None`` with an explicit byte count
(synthetic mode — full-scale problem classes without the memory
footprint).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.sim.events import Event
from repro.util.records import record

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "Message",
    "Status",
    "payload_nbytes",
]

#: Wildcards, mirroring MPI_ANY_SOURCE / MPI_ANY_TAG.
ANY_SOURCE = -1
ANY_TAG = -1


def payload_nbytes(payload: object) -> int:
    """Wire size of a payload object.

    numpy arrays use their buffer size; ``bytes``-likes their length;
    other Python objects are costed like MPICH's pickled generic-object
    path with a small envelope-relative estimate.
    """
    if payload is None:
        return 0
    if isinstance(payload, np.ndarray):
        return int(payload.nbytes)
    if isinstance(payload, (bytes, bytearray, memoryview)):
        return len(payload)
    if isinstance(payload, (int, float, complex, np.generic)):
        return 16
    if isinstance(payload, (list, tuple)):
        return 16 + sum(payload_nbytes(item) for item in payload)
    if isinstance(payload, str):
        return 16 + len(payload.encode())
    if isinstance(payload, dict):
        return 16 + sum(
            payload_nbytes(k) + payload_nbytes(v) for k, v in payload.items()
        )
    # Fallback: a conservative flat estimate for odd objects.
    return 64


@record
class Status:
    """Receive status, mirroring ``MPI_Status``."""

    source: int
    tag: int
    nbytes: int


@dataclass
class Message:
    """An in-flight message envelope."""

    source: int
    dest: int
    tag: int
    nbytes: int
    payload: object = None
    seq: int = 0  #: global send order, for deterministic debugging
    eager: bool = True
    #: receiver fires this to authorise a rendezvous transfer
    cts: Optional[Event] = None
    #: fired when the payload has fully arrived at the receiver
    data_done: Optional[Event] = None
    send_time: float = field(default=0.0)

    def matches(self, source: int, tag: int) -> bool:
        """Whether this envelope matches a receive for ``(source, tag)``."""
        if source != ANY_SOURCE and self.source != source:
            return False
        if tag != ANY_TAG and self.tag != tag:
            return False
        return True

    def status(self) -> Status:
        return Status(source=self.source, tag=self.tag, nbytes=self.nbytes)
