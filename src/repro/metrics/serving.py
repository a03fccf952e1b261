"""Serving-run scoring: latency percentiles + joules per request.

:func:`build_serving_report` turns one
:class:`~repro.serving.runner.ServingRun` into a
:class:`ServingReport`: end-to-end latency percentiles over completed
requests, a per-tier wait/service/residence breakdown, and the energy
ledger.

**Percentile convention** — nearest-rank: ``p(q)`` of ``n`` sorted
values is element ``ceil(q/100 · n)`` (1-indexed).  Every percentile
here is reproducible by a brute-force walk over the plain request
records, which is exactly how the property tests pin it.

**Energy attribution** — each request's tier spans are exclusive
occupancy of one node, so charging a request is a batch of exact
:meth:`~repro.hardware.series.PowerSeries.energy_many` interval queries
against that node's frozen series.  The remainder
``unattributed_energy_j = total − Σ attributed`` (idle power, base
power outside spans, control-plane overheads) is computed *by
construction* as total minus the attributed sum, so

    ``request_energy_j + unattributed_energy_j == energy_j``

holds to float round-off (the acceptance tests assert 1e-9).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.metrics.protocol import ReportBase

__all__ = [
    "ServingReport",
    "TierBreakdown",
    "attribute_request_energy",
    "build_serving_report",
    "latency_percentile",
    "latency_percentiles",
]

#: the percentiles every report carries, end to end and per tier
_QS = (50.0, 95.0, 99.0)


def latency_percentiles(
    values: Sequence[float], qs: Sequence[float]
) -> List[Optional[float]]:
    """Nearest-rank percentiles of ``values`` at each ``q`` in ``qs``.

    Every ``q`` is in (0, 100]; the result is all ``None`` when
    ``values`` is empty.  Nearest-rank is exact on the sample (always
    returns an observed value), monotone in ``q``, and p100 is the max.
    The sample is sorted once for every ``q``.
    """
    for q in qs:
        if not 0.0 < q <= 100.0:
            raise ValueError(f"q must be in (0, 100], got {q}")
    if not values:
        return [None] * len(qs)
    ordered = sorted(values)
    n = len(ordered)
    return [ordered[math.ceil(q / 100.0 * n) - 1] for q in qs]


def latency_percentile(values: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank percentile of ``values``; ``None`` when empty."""
    return latency_percentiles(values, (q,))[0]


def attribute_request_energy(
    cluster, records: Sequence
) -> Tuple[Dict[int, float], float]:
    """Exact joules per request from its tier spans.

    Returns ``(per_request, attributed_total)`` where ``per_request``
    maps request id → the summed energy of its service intervals
    (queried per node through the frozen power series, so batch results
    telescope exactly) and ``attributed_total`` is their float sum in
    request-id order.  Requests with no spans attribute 0.0 J.
    """
    series = cluster.series()
    by_node: Dict[int, List[Tuple[int, float, float]]] = {}
    for record in records:
        for span in record.spans:
            by_node.setdefault(span.node_id, []).append(
                (record.request_id, span.started_s, span.finished_s)
            )
    per_request: Dict[int, float] = {r.request_id: 0.0 for r in records}
    for node_id, entries in by_node.items():
        energies = series.node(node_id).energy_many(
            [(t0, t1) for _, t0, t1 in entries]
        )
        for (request_id, _, _), joules in zip(entries, energies.tolist()):
            per_request[request_id] += joules
    attributed = 0.0
    for request_id in sorted(per_request):
        attributed += per_request[request_id]
    return per_request, attributed


@dataclass(frozen=True)
class TierBreakdown(ReportBase):
    """One tier's latency contribution across every span it served."""

    tier: str
    served: int  #: spans (requests that reached service on this tier)
    mean_wait_s: float
    mean_service_s: float
    p50_s: Optional[float]  #: residence (wait + service) percentiles
    p95_s: Optional[float]
    p99_s: Optional[float]


@dataclass(frozen=True)
class ServingReport(ReportBase):
    """Outcome of one serving run: latency, throughput, energy ledger."""

    label: str
    n_requests: int
    completed: int
    dropped: int
    timed_out: int
    duration_s: float
    throughput_rps: float  #: completed requests / duration
    p50_s: Optional[float]  #: end-to-end latency percentiles (completed)
    p95_s: Optional[float]
    p99_s: Optional[float]
    energy_j: float  #: total cluster energy over the run window
    request_energy_j: float  #: Σ per-request attributed service energy
    unattributed_energy_j: float  #: energy_j − request_energy_j (idle, base)
    energy_per_request_j: Optional[float]  #: energy_j / completed
    tiers: Tuple[TierBreakdown, ...] = ()
    #: governor feasibility ledger, populated when the policy embeds a
    #: :class:`~repro.powercap.governor.CapGovernor` (elastic serving):
    #: windows whose plan met the target / windows closed.  ``None``
    #: for policies with no governor.
    cap_feasible_windows: Optional[int] = None
    cap_total_windows: Optional[int] = None
    #: deepest knob the governor actually actuated over the run
    #: (``"dvfs"``, ``"cores"``, or ``"gate"``; ``None`` = no governor)
    cap_escalation: Optional[str] = None

    @property
    def average_power_w(self) -> float:
        return self.energy_j / self.duration_s

    @property
    def cap_feasible_fraction(self) -> Optional[float]:
        """Share of governor windows with a feasible plan (None = no cap)."""
        if self.cap_total_windows is None or not self.cap_total_windows:
            return None
        assert self.cap_feasible_windows is not None
        return self.cap_feasible_windows / self.cap_total_windows

    def meets_slo(self, p99_slo_s: float) -> bool:
        """SLO verdict: every request served, p99 within the budget.

        Dropped or timed-out requests are violations in their own right
        — a policy must not buy its percentile by shedding load.
        """
        return (
            self.completed > 0
            and self.dropped == 0
            and self.timed_out == 0
            and self.p99_s is not None
            and self.p99_s <= p99_slo_s
        )

    def summary_lines(self) -> List[str]:
        def ms(value: Optional[float]) -> str:
            return "n/a" if value is None else f"{value * 1e3:.1f}ms"

        lines = [
            f"{self.label}: {self.completed}/{self.n_requests} served "
            f"({self.dropped} dropped, {self.timed_out} timed out) "
            f"over {self.duration_s:.2f}s — {self.throughput_rps:.1f} req/s",
            f"  latency p50={ms(self.p50_s)} p95={ms(self.p95_s)} "
            f"p99={ms(self.p99_s)}",
            f"  energy {self.energy_j:.1f}J total "
            f"({self.request_energy_j:.1f}J attributed to requests, "
            f"{self.unattributed_energy_j:.1f}J idle/base), "
            + (
                "n/a J/req"
                if self.energy_per_request_j is None
                else f"{self.energy_per_request_j:.3f} J/req"
            ),
        ]
        if self.cap_total_windows is not None:
            lines.append(
                f"  cap plan feasible {self.cap_feasible_windows}/"
                f"{self.cap_total_windows} windows"
            )
        for tier in self.tiers:
            lines.append(
                f"  tier {tier.tier}: {tier.served} served, "
                f"wait {tier.mean_wait_s * 1e3:.2f}ms, "
                f"service {tier.mean_service_s * 1e3:.2f}ms, "
                f"residence p99={ms(tier.p99_s)}"
            )
        return lines


def build_serving_report(run, label: Optional[str] = None) -> ServingReport:
    """Score one :class:`~repro.serving.runner.ServingRun`.

    Percentiles cover *completed* requests only (a dropped request has
    no meaningful end-to-end latency; its count is reported separately
    and fails :meth:`ServingReport.meets_slo` regardless).  The tier
    breakdown covers every span actually served, including spans of
    requests that later timed out or were dropped downstream — that
    work happened on the tier and belongs in its statistics.

    The records are walked once, counting statuses, collecting
    latencies and bucketing spans per tier in record order; each
    percentile list is sorted once.  A policy that embeds a governor
    reports its :attr:`~repro.powercap.governor.CapGovernor.deepest_knob`.
    """
    governor = getattr(run.policy, "governor", None)
    records = run.records
    latencies = []
    dropped = timed_out = 0
    spans_of: Dict[str, list] = {name: [] for name in run.workload.tier_names}
    for record in records:
        status = record.status
        if status == "ok":
            latencies.append(record.latency_s)
        elif status == "dropped":
            dropped += 1
        elif status == "timeout":
            timed_out += 1
        for span in record.spans:
            spans_of[span.tier].append(span)
    completed = len(latencies)
    duration = run.duration_s

    per_request, attributed = attribute_request_energy(run.cluster, records)
    del per_request  # report carries the ledger; callers re-derive rows
    energy = run.energy_j

    tiers = []
    for name, spans in spans_of.items():
        served = len(spans)
        p50, p95, p99 = latency_percentiles(
            [span.residence_s for span in spans], _QS
        )
        tiers.append(
            TierBreakdown(
                tier=name,
                served=served,
                mean_wait_s=(
                    sum(s.wait_s for s in spans) / served if served else 0.0
                ),
                mean_service_s=(
                    sum(s.service_s for s in spans) / served if served else 0.0
                ),
                p50_s=p50,
                p95_s=p95,
                p99_s=p99,
            )
        )

    p50, p95, p99 = latency_percentiles(latencies, _QS)
    windows = None if governor is None else governor.windows
    return ServingReport(
        label=label
        if label is not None
        else getattr(run.policy, "name", "serving"),
        n_requests=len(records),
        completed=completed,
        dropped=dropped,
        timed_out=timed_out,
        duration_s=duration,
        throughput_rps=completed / duration if duration > 0 else 0.0,
        p50_s=p50,
        p95_s=p95,
        p99_s=p99,
        energy_j=energy,
        request_energy_j=attributed,
        unattributed_energy_j=energy - attributed,
        energy_per_request_j=energy / completed if completed else None,
        tiers=tuple(tiers),
        cap_feasible_windows=(
            None
            if windows is None
            else sum(1 for w in windows if w.feasible)
        ),
        cap_total_windows=None if windows is None else len(windows),
        cap_escalation=None if governor is None else governor.deepest_knob,
    )
