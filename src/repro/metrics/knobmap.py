"""The knob map: load × budget depth → best power-control knob.

Krzywda et al.'s central observation (PAPERS.md) is that "which knob?"
has no single answer — it depends on where you sit in the (load, budget)
plane.  :class:`KnobMapReport` materialises that plane for this
reproduction's serving stack: every cell records how each contending
policy (the full elastic control plane and its pure-DVFS degenerations)
fared against the cell's budget, which policy won, and whether the
budget was *meetable at all* (``feasible=False`` marks the regime below
the cluster's suspend-floor draw, where no knob combination helps).

The winning knob per cell:

* ``"dvfs"`` — a pure-DVFS policy met the budget (the cheapest knob
  suffices: shallow cuts);
* ``"cores"`` / ``"gate"`` — only the elastic policy met it, and its
  deepest escalation was core allocation / node gating respectively
  (medium / deep cuts);
* ``"none"`` — nothing met it (``feasible=False``).

Construction is pure data-plumbing over
:class:`~repro.metrics.serving.ServingReport` ledgers — the report
layer never re-simulates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.metrics.protocol import ReportBase

__all__ = ["KnobCell", "KnobMapReport", "best_knob"]

#: Ranking of knob escalation depth, shallowest first.
_KNOB_DEPTH = {"dvfs": 0, "cores": 1, "gate": 2}


def best_knob(
    met_by_dvfs: bool, met_by_elastic: bool, elastic_escalation: str
) -> str:
    """The cheapest knob that met a cell's budget (``"none"`` if none).

    ``elastic_escalation`` is the deepest knob the elastic policy
    actually actuated in that cell (``"dvfs"`` when it never escalated).
    """
    if met_by_dvfs:
        return "dvfs"
    if met_by_elastic:
        return elastic_escalation
    return "none"


@dataclass(frozen=True)
class KnobCell(ReportBase):
    """One (load, budget-depth) cell of the knob map."""

    base_rate_rps: float  #: the diurnal workload's base arrival rate
    budget_frac: float  #: budget as a fraction of static-max draw
    budget_watts: float
    #: policy label → measured average watts over the run window
    policy_watts: Dict[str, float]
    #: policy label → whether it held its average under the budget
    policy_met: Dict[str, bool]
    #: deepest knob the elastic policy escalated to ("dvfs"/"cores"/"gate")
    elastic_escalation: str
    best_knob: str  #: cheapest knob that met the budget, or "none"
    feasible: bool  #: some policy met the budget
    elastic_p99_s: Optional[float] = None  #: elastic policy's end-to-end p99


@dataclass(frozen=True)
class KnobMapReport(ReportBase):
    """The full load × budget-depth map plus its headline claims."""

    label: str
    workload: str  #: workload family name
    static_watts: Dict[str, float]  #: per-rate static-max reference draw
    cells: Tuple[KnobCell, ...]

    @property
    def infeasible_cells(self) -> Tuple[KnobCell, ...]:
        """Cells no policy could hold under budget."""
        return tuple(c for c in self.cells if not c.feasible)

    @property
    def elastic_only_cells(self) -> Tuple[KnobCell, ...]:
        """Cells only the multi-knob elastic policy held under budget."""
        return tuple(
            c
            for c in self.cells
            if c.feasible and c.best_knob in ("cores", "gate")
        )

    def cell(self, base_rate_rps: float, budget_frac: float) -> KnobCell:
        """Lookup one cell (exact match on both coordinates)."""
        for c in self.cells:
            if (
                c.base_rate_rps == base_rate_rps
                and c.budget_frac == budget_frac
            ):
                return c
        raise KeyError(
            f"no cell at rate={base_rate_rps}, frac={budget_frac}"
        )

    def summary_lines(self) -> List[str]:
        lines = [
            f"{self.label}: {len(self.cells)} (load, budget) cells — "
            f"{len(self.elastic_only_cells)} elastic-only, "
            f"{len(self.infeasible_cells)} infeasible"
        ]
        rates = sorted({c.base_rate_rps for c in self.cells})
        fracs = sorted(
            {c.budget_frac for c in self.cells}, reverse=True
        )
        header = "  rate\\frac " + " ".join(f"{f:>6.2f}" for f in fracs)
        lines.append(header)
        for rate in rates:
            row = [f"  {rate:>9.0f}"]
            for frac in fracs:
                try:
                    row.append(f"{self.cell(rate, frac).best_knob:>6}")
                except KeyError:
                    row.append(f"{'-':>6}")
            lines.append(" ".join(row))
        return lines
