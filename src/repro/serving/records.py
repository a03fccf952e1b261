"""Immutable per-request outcome records.

A :class:`RequestRecord` is the complete story of one request: when it
arrived, when (and how) it resolved, and one :class:`TierSpan` per tier
it was actually served on.  These records — not tracer buffers — are
the substrate for latency percentiles and per-request energy
attribution (:mod:`repro.metrics.serving`), which is what makes
observation neutrality trivial: the numbers are computed from the same
plain records whether or not a tracer was active.
"""

from __future__ import annotations

from typing import Tuple

from repro.util.records import record

__all__ = ["REQUEST_STATUSES", "RequestRecord", "TierSpan"]

#: Terminal states a request can resolve to.
REQUEST_STATUSES = ("ok", "dropped", "timeout")


@record
class TierSpan:
    """One request's residence in one tier: queue wait plus service.

    ``enqueued_s ≤ started_s ≤ finished_s``; the service interval
    ``[started_s, finished_s]`` is exclusive occupancy of ``node_id``
    (each node runs one server process), which is what lets the energy
    attribution charge it exactly.
    """

    tier: str
    node_id: int
    enqueued_s: float
    started_s: float
    finished_s: float

    @property
    def wait_s(self) -> float:
        return self.started_s - self.enqueued_s

    @property
    def service_s(self) -> float:
        return self.finished_s - self.started_s

    @property
    def residence_s(self) -> float:
        return self.finished_s - self.enqueued_s


@record
class RequestRecord:
    """One request's terminal record.

    ``status`` is ``"ok"`` (served by every tier), ``"dropped"`` (a full
    tier queue refused it) or ``"timeout"`` (it aged past the workload's
    timeout while queued and was discarded at dequeue).  Dropped and
    timed-out requests keep the spans of tiers that *did* serve them —
    that work happened and drew energy.
    """

    request_id: int
    arrival_s: float
    resolved_s: float
    status: str
    spans: Tuple[TierSpan, ...]

    @property
    def latency_s(self) -> float:
        """End-to-end sojourn time (arrival to resolution)."""
        return self.resolved_s - self.arrival_s

    @property
    def ok(self) -> bool:
        return self.status == "ok"
