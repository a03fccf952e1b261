"""Per-phase / per-rank energy attribution: spans joined to power.

The PowerPack question, made queryable: *which phase burned the energy?*
PowerPack answers it on real hardware by aligning meter samples with
application timestamps; here both sides are exact — the tracer's spans
carry simulated timestamps and each node's
:class:`~repro.hardware.timeline.PowerTimeline` integrates energy
exactly over any interval — so the join is exact too.

For each rank, the run interval ``[t0, t1]`` is partitioned at every
span boundary into elementary intervals.  Each elementary interval is
owned by the *outermost* covering span whose category matches
``categories`` (the collective, not the point-to-point message nested
inside it), or by the synthetic ``(compute)`` phase when no span covers
it.  Each interval's energy comes from the rank's own power timeline,
so per-rank phase energies sum to the rank's timeline energy *by
construction* — and the report total equals the run's
``cluster.total_energy(t0, t1)`` up to float rounding (the acceptance
criterion checks 1 %; the actual error is ~1 ulp).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.metrics.protocol import ReportBase

__all__ = [
    "COMPUTE_PHASE",
    "AttributionRow",
    "AttributionReport",
    "build_attribution_report",
]

#: Phase name for time no selected span covers.
COMPUTE_PHASE = "(compute)"

#: Default span categories that count as phases: blocking MPI operations.
DEFAULT_CATEGORIES = ("mpi.",)


@dataclass(frozen=True)
class AttributionRow(ReportBase):
    """One (rank, phase) cell of the attribution table."""

    rank: int
    phase: str
    time_s: float
    energy_j: float
    occurrences: int  #: selected spans of this phase on this rank

    @property
    def average_power_w(self) -> float:
        return self.energy_j / self.time_s if self.time_s > 0 else 0.0


@dataclass(frozen=True)
class AttributionReport(ReportBase):
    """Per-rank, per-phase energy over one run interval."""

    label: str
    t0: float
    t1: float
    #: sum of every row's energy == sum of attributed ranks' timeline energy
    total_energy_j: float
    rows: Tuple[AttributionRow, ...]
    categories: Tuple[str, ...]

    @property
    def duration_s(self) -> float:
        return self.t1 - self.t0

    def rank_energy(self) -> Dict[int, float]:
        """Total attributed energy per rank (the 1 %-criterion sums)."""
        out: Dict[int, float] = {}
        for row in self.rows:
            out[row.rank] = out.get(row.rank, 0.0) + row.energy_j
        return out

    def phase_totals(self) -> Dict[str, Tuple[float, float]]:
        """Phase → (time_s, energy_j) summed across ranks."""
        out: Dict[str, Tuple[float, float]] = {}
        for row in self.rows:
            t, e = out.get(row.phase, (0.0, 0.0))
            out[row.phase] = (t + row.time_s, e + row.energy_j)
        return out

    def summary_lines(self) -> List[str]:
        lines = [
            f"{self.label}: {self.total_energy_j:.2f} J over "
            f"{self.duration_s:.4f} s "
            f"({len({r.rank for r in self.rows})} ranks)"
        ]
        totals = sorted(
            self.phase_totals().items(), key=lambda kv: -kv[1][1]
        )
        for phase, (time_s, energy_j) in totals:
            share = (
                energy_j / self.total_energy_j if self.total_energy_j else 0.0
            )
            lines.append(
                f"  {phase:16s} {energy_j:10.2f} J ({share:6.1%})  "
                f"{time_s:.4f} s"
            )
        return lines


def _clip_spans(
    spans: Sequence, rank: int, t0: float, t1: float, categories
) -> List[Tuple[float, float, str]]:
    """This rank's matching sim-clock spans clipped to ``[t0, t1]``."""
    clipped = []
    for s in spans:
        if s.track != rank or s.clock != "sim":
            continue
        if not any(s.cat.startswith(c) for c in categories):
            continue
        lo, hi = max(s.t0, t0), min(s.t1, t1)
        if hi > lo:
            clipped.append((lo, hi, s.name))
    return clipped


def build_attribution_report(
    cluster,
    tracer,
    t0: float,
    t1: float,
    *,
    ranks: Optional[Sequence[int]] = None,
    categories: Sequence[str] = DEFAULT_CATEGORIES,
    label: str = "attribution",
) -> AttributionReport:
    """Join a tracer's spans against the cluster's power timelines.

    Parameters
    ----------
    cluster:
        The :class:`~repro.hardware.cluster.Cluster` the traced run
        executed on (its node timelines are the energy source).
    tracer:
        A :class:`~repro.obs.tracer.Tracer` (or
        :class:`~repro.obs.export.TraceData`) holding the run's spans.
        Integer tracks are rank ids; other tracks are ignored.
    t0, t1:
        The run interval (``run.spmd.start`` / ``run.spmd.end``).
    ranks:
        Ranks to attribute (default: every cluster node).
    categories:
        Span-category prefixes that count as phases (default
        ``("mpi.",)`` — blocking MPI operations; nested matches
        attribute to the outermost, so a ``sendrecv`` inside an
        ``alltoall`` charges the collective).
    """
    if t1 < t0:
        raise ValueError(f"t1={t1} precedes t0={t0}")
    spans = tracer.spans
    if ranks is None:
        ranks = [node.node_id for node in cluster.nodes]

    rows: List[AttributionRow] = []
    total = 0.0
    for rank in ranks:
        series = cluster.nodes[rank].timeline.series()
        clipped = _clip_spans(spans, rank, t0, t1, tuple(categories))

        cuts = sorted({t0, t1, *(c[0] for c in clipped), *(c[1] for c in clipped)})
        # One batch kernel query per rank: the elementary intervals'
        # energies telescope through the prefix sum, so the per-phase
        # sums equal the rank's interval energy exactly by construction.
        elementary = np.column_stack((cuts[:-1], cuts[1:]))
        energies = series.energy_many(elementary)
        time_by_phase: Dict[str, float] = {}
        energy_by_phase: Dict[str, float] = {}
        for (lo, hi), joules in zip(zip(cuts, cuts[1:]), energies):
            if hi <= lo:
                continue
            # Outermost covering span: earliest start, longest on ties.
            covering = [
                (s_lo, s_hi, name)
                for s_lo, s_hi, name in clipped
                if s_lo <= lo and s_hi >= hi
            ]
            if covering:
                phase = min(covering, key=lambda c: (c[0], -c[1]))[2]
            else:
                phase = COMPUTE_PHASE
            time_by_phase[phase] = time_by_phase.get(phase, 0.0) + (hi - lo)
            energy_by_phase[phase] = (
                energy_by_phase.get(phase, 0.0) + float(joules)
            )

        counts: Dict[str, int] = {}
        for _, _, name in clipped:
            counts[name] = counts.get(name, 0) + 1

        for phase in sorted(time_by_phase):
            energy = energy_by_phase[phase]
            total += energy
            rows.append(
                AttributionRow(
                    rank=rank,
                    phase=phase,
                    time_s=time_by_phase[phase],
                    energy_j=energy,
                    occurrences=counts.get(phase, 0),
                )
            )

    return AttributionReport(
        label=label,
        t0=t0,
        t1=t1,
        total_energy_j=total,
        rows=tuple(rows),
        categories=tuple(categories),
    )
