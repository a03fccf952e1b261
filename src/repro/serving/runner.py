"""The serving data path: arrivals → tier queues → per-node servers.

:func:`run_serving` simulates one :class:`~repro.serving.spec.ServingWorkload`
under one :class:`~repro.serving.policy.ServingPolicy` on a fresh
cluster.  The cluster's nodes are partitioned into contiguous per-tier
groups (in tier order); each tier owns one bounded FIFO queue and one
server process per node.  A server loops: dequeue, discard if the
request aged past the workload timeout, execute the request's
pre-sampled cycle demand through :meth:`SimCPU.run_cycles` (so service
time scales with the node's current P-state, mid-service transitions
included), then forward to the next tier or resolve.

Everything is deterministic: the request stream is pre-materialised by
the spec, queues are FIFO, servers drain in node order (the engine
breaks ties by insertion order), and the runner itself draws no random
numbers.  Tracing hooks follow the :mod:`repro.obs` zero-cost idiom —
per-tier spans land on the serving node's track (category
``serving.tier``), request-lifetime spans on the ``serving`` track
(category ``serving.request``) — and all results are computed from the
plain :class:`~repro.serving.records.RequestRecord` list, never from
tracer buffers, so disabling tracing cannot change a single bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.hardware.activity import CpuActivity
from repro.hardware.calibration import Calibration
from repro.hardware.cluster import Cluster
from repro.hardware.spec import ClusterSpec
from repro.obs.tracer import active_tracer
from repro.serving.records import RequestRecord, TierSpan
from repro.serving.spec import RequestSpec, ServingWorkload, TierSpec
from repro.sim.resources import Store

__all__ = ["ServingRun", "TierRuntime", "run_serving"]

#: Bound once, as in :mod:`repro.hardware.cpu`: an ``Enum`` member read off
#: its class costs about 0.15 µs, and every request-tier visit reads it.
_ACTIVE = CpuActivity.ACTIVE


class _LiveRequest:
    """Mutable in-flight state for one request (simulation-internal)."""

    __slots__ = ("spec", "spans", "enqueued_s")

    def __init__(self, spec: RequestSpec):
        self.spec = spec
        self.spans: List[TierSpan] = []
        self.enqueued_s = spec.arrival_s


class TierRuntime:
    """One tier's live state: its queue, node group, and window stats.

    This is the surface policies see.  ``take_window()`` drains the
    ``(wait_s, service_s)`` samples accumulated since the last call —
    the per-control-window residence statistics a PowerTracer-style
    controller feeds on.
    """

    def __init__(self, spec: TierSpec, index: int, node_ids: Tuple[int, ...], engine):
        self.spec = spec
        self.index = index
        self.node_ids = node_ids
        self.queue = Store(engine)
        self.drops = 0
        self._window: List[Tuple[float, float]] = []

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def queue_length(self) -> int:
        return len(self.queue)

    def take_window(self) -> List[Tuple[float, float]]:
        """Drain and return the ``(wait_s, service_s)`` samples since
        the previous drain."""
        window, self._window = self._window, []
        return window


@dataclass
class ServingRun:
    """One completed serving simulation (records + powered cluster).

    ``start``/``end`` bound the measurement window: ``end`` is the later
    of the workload horizon and the last request's resolution, so energy
    always covers the full open-loop period (idle tails included —
    policies are compared over identical wall windows).
    """

    workload: ServingWorkload
    policy: object
    cluster: Cluster
    records: Tuple[RequestRecord, ...]
    start: float
    end: float

    @property
    def duration_s(self) -> float:
        return self.end - self.start

    @property
    def energy_j(self) -> float:
        """Exact total cluster energy over the run window (joules)."""
        return self.cluster.total_energy(self.start, self.end)


class _RunState:
    """Shared mutable bookkeeping for one run's processes."""

    __slots__ = ("outstanding", "arrivals_done", "records", "done")

    def __init__(self, done):
        self.outstanding = 0
        self.arrivals_done = False
        self.records: List[RequestRecord] = []
        self.done = done


def run_serving(
    workload: ServingWorkload,
    policy=None,
    *,
    calibration: Optional[Calibration] = None,
) -> ServingRun:
    """Simulate ``workload`` under ``policy`` on a fresh cluster.

    ``policy`` defaults to the static-max baseline
    (:class:`~repro.serving.policy.StaticServingPolicy`).  Returns a
    :class:`ServingRun`; feed it to
    :func:`repro.metrics.serving.build_serving_report` for percentiles
    and per-request energy attribution.
    """
    from repro.serving.policy import StaticServingPolicy

    if policy is None:
        policy = StaticServingPolicy()
    cluster = Cluster.from_spec(
        ClusterSpec.homogeneous(workload.total_nodes), calibration=calibration
    )
    engine = cluster.engine

    tiers: List[TierRuntime] = []
    offset = 0
    for index, spec in enumerate(workload.tiers):
        node_ids = tuple(range(offset, offset + spec.nodes))
        tiers.append(TierRuntime(spec, index, node_ids, engine))
        offset += spec.nodes

    state = _RunState(engine.event())
    requests = workload.requests()

    def resolve(live: _LiveRequest, status: str) -> None:
        now = engine.now
        record = RequestRecord(
            request_id=live.spec.request_id,
            arrival_s=live.spec.arrival_s,
            resolved_s=now,
            status=status,
            spans=tuple(live.spans),
        )
        state.records.append(record)
        tracer = active_tracer()
        if tracer.enabled:
            tracer.span(
                "request",
                "serving.request",
                "serving",
                live.spec.arrival_s,
                now,
                request=live.spec.request_id,
                status=status,
            )
        state.outstanding -= 1
        if state.arrivals_done and state.outstanding == 0:
            state.done.succeed(None)

    def enqueue(tier: TierRuntime, live: _LiveRequest) -> None:
        if len(tier.queue) >= tier.spec.queue_capacity:
            tier.drops += 1
            resolve(live, "dropped")
            return
        live.enqueued_s = engine.now
        tier.queue.put(live)
        tracer = active_tracer()
        if tracer.enabled:
            tracer.counter(
                f"queue[{tier.name}]", "serving", engine.now, len(tier.queue)
            )

    def arrival_process():
        for spec in requests:
            delay = spec.arrival_s - engine.now
            if delay > 0:
                yield engine.timeout(delay)
            state.outstanding += 1
            enqueue(tiers[0], _LiveRequest(spec))
        state.arrivals_done = True
        if state.outstanding == 0:
            state.done.succeed(None)

    def server_process(tier: TierRuntime, node):
        next_tier = tiers[tier.index + 1] if tier.index + 1 < len(tiers) else None
        while True:
            if not node.cpu.powered:
                # Power-gated by an elastic control plane: don't drain
                # the queue into a suspended node — live siblings take
                # the work; this server rejoins after wake.
                yield node.cpu.power_restored
                continue
            live = yield tier.queue.get()
            if not node.cpu.powered:
                # The gate fell while this server was already waiting on
                # the queue, and a put handed it a request anyway: push
                # it back for a live sibling and park.  (Each parked
                # sibling re-enqueues at most once per put, so the
                # hand-back cascade terminates.)
                enqueue(tier, live)
                yield node.cpu.power_restored
                continue
            now = engine.now
            if now - live.spec.arrival_s > workload.timeout_s:
                resolve(live, "timeout")
                continue
            enqueued = live.enqueued_s
            started = now
            yield from node.cpu.run_cycles(
                live.spec.demands[tier.index], _ACTIVE
            )
            finished = engine.now
            span = TierSpan(
                tier.name, node.node_id, enqueued, started, finished
            )
            live.spans.append(span)
            tier._window.append((started - enqueued, finished - started))
            tracer = active_tracer()
            if tracer.enabled:
                tracer.span(
                    tier.name,
                    "serving.tier",
                    node.node_id,
                    started,
                    finished,
                    request=live.spec.request_id,
                )
            if next_tier is None:
                resolve(live, "ok")
            else:
                enqueue(next_tier, live)

    policy.prepare(cluster, tiers)
    for tier in tiers:
        for nid in tier.node_ids:
            node = cluster.nodes[nid]
            engine.process(
                server_process(tier, node),
                name=f"server[{tier.name}/node{nid}]",
            )
    engine.process(arrival_process(), name="arrivals")
    policy.start(engine)

    engine.run(until=state.done)
    policy.teardown()
    end = max(engine.now, workload.horizon_s)
    cluster.finalize()

    records = tuple(sorted(state.records, key=lambda r: r.request_id))
    return ServingRun(
        workload=workload,
        policy=policy,
        cluster=cluster,
        records=records,
        start=0.0,
        end=end,
    )
