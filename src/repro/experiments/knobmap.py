"""Knob map: which power knob wins at each (load, budget depth)?

Extension beyond the paper (which has one knob — DVFS — and one
workload class).  A two-tier service under a compressed diurnal load
swing is run at several base rates; at each rate a ladder of power
budgets is enforced, each budget expressed as a *fraction of the
static-max reference draw* at that rate.  Three budget enforcers
contend in every (rate, fraction) cell:

* ``elastic`` — the full multi-knob control plane (DVFS → core
  allocation → node gating);
* ``elastic[dvfs]`` (slack-redistribution inner) and
  ``elastic[dvfs]/uniform`` (a uniform frequency ceiling) — the same
  governor restricted to the DVFS knob: the degenerate policies,
  bit-identical to the legacy :mod:`repro.powercap` allocators.

The claim (after Krzywda et al., PAPERS.md): the winning knob flips
with budget depth.  Shallow cuts go to pure DVFS; mid cuts are only met
by core allocation; deep cuts only by node gating — pure-DVFS policies
bottom out at the cluster's all-floors draw and mark those cells
infeasible — and the deepest cuts sit below even the suspend floor,
where the map records ``feasible=False`` for every contender.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.analysis.records import ExperimentResult
from repro.analysis.report import format_table
from repro.experiments.common import context_sweep
from repro.metrics.knobmap import KnobCell, KnobMapReport, best_knob
from repro.serving.arrivals import DiurnalArrivals
from repro.serving.spec import ServingWorkload, TierSpec
from repro.serving.sweep import ServingTask

__all__ = ["run", "build_workload"]

#: Budget ladder, shallow first (fractions of static-max average draw).
DEFAULT_BUDGET_FRACS: Tuple[float, ...] = (0.9, 0.8, 0.6, 0.35)

#: Diurnal base arrival rates (req/s) spanning light to busy load.
DEFAULT_BASE_RATES: Tuple[float, ...] = (30.0, 40.0)


def build_workload(
    base_rate: float, horizon_s: float = 16.0, seed: int = 0
) -> ServingWorkload:
    """A two-tier service under one compressed day/night load cycle.

    Two nodes per tier so the gating knob has a node to spare (one per
    tier stays protected), and two full diurnal periods inside the
    horizon so the governor sees both the peak and the trough.
    """
    return ServingWorkload(
        tiers=(
            TierSpec("web", nodes=2, service_cycles=2.0e6),
            TierSpec("app", nodes=2, service_cycles=4.0e6),
        ),
        arrivals=DiurnalArrivals(
            base_rate=base_rate,
            swing=0.6,
            period_s=horizon_s / 2.0,
            seed=seed,
        ),
        horizon_s=horizon_s,
        name=f"diurnal@{base_rate:g}rps",
        seed=seed,
    )


def run(
    horizon_s: float = 16.0,
    base_rates: Sequence[float] = DEFAULT_BASE_RATES,
    budget_fracs: Sequence[float] = DEFAULT_BUDGET_FRACS,
    knobs: Optional[Sequence[str]] = None,
    seed: int = 0,
) -> ExperimentResult:
    """Knob map: load × budget depth → best knob (extension)."""
    result = ExperimentResult(
        "knobmap",
        "which power knob (DVFS / core allocation / node gating) meets "
        "a budget at each load level and budget depth — the elastic "
        "control plane vs its pure-DVFS degenerations "
        "(extension beyond the paper)",
    )
    elastic_knobs = None if knobs is None else tuple(knobs)

    cells: List[KnobCell] = []
    static_watts = {}
    for base_rate in base_rates:
        workload = build_workload(
            base_rate, horizon_s=horizon_s, seed=seed
        )
        # The reference: static-max defines what "a budget of 0.8×"
        # means at this load level.
        [static] = context_sweep([ServingTask(workload, "static")])
        reference_w = static.report.average_power_w
        static_watts[f"{base_rate:g}"] = reference_w

        budgets = [frac * reference_w for frac in budget_fracs]
        tasks = []
        for budget in budgets:
            tasks.extend(
                [
                    ServingTask(
                        workload,
                        "elastic",
                        budget_watts=budget,
                        knobs=elastic_knobs,
                    ),
                    ServingTask(
                        workload,
                        "elastic",
                        budget_watts=budget,
                        knobs=("dvfs",),
                    ),
                    ServingTask(
                        workload,
                        "elastic",
                        budget_watts=budget,
                        knobs=("dvfs",),
                        allocator="uniform",
                    ),
                ]
            )
        outcomes = context_sweep(tasks)
        per_budget = len(tasks) // len(budgets)
        for i, (frac, budget) in enumerate(zip(budget_fracs, budgets)):
            group = outcomes[i * per_budget : (i + 1) * per_budget]
            elastic = group[0].report
            dvfs_only = [o.report for o in group[1:]]
            policy_watts = {
                r.label: r.average_power_w for r in [elastic] + dvfs_only
            }
            policy_met = {
                r.label: r.average_power_w <= budget
                for r in [elastic] + dvfs_only
            }
            met_by_dvfs = any(policy_met[r.label] for r in dvfs_only)
            met_by_elastic = policy_met[elastic.label]
            escalation = elastic.cap_escalation or "dvfs"
            cells.append(
                KnobCell(
                    base_rate_rps=base_rate,
                    budget_frac=frac,
                    budget_watts=budget,
                    policy_watts=policy_watts,
                    policy_met=policy_met,
                    elastic_escalation=escalation,
                    best_knob=best_knob(
                        met_by_dvfs, met_by_elastic, escalation
                    ),
                    feasible=met_by_dvfs or met_by_elastic,
                    elastic_p99_s=elastic.p99_s,
                )
            )

    report = KnobMapReport(
        label="knobmap",
        workload="diurnal two-tier serving",
        static_watts=static_watts,
        cells=tuple(cells),
    )

    rows = []
    for cell in report.cells:
        # Insertion order is the contender order: elastic first, then
        # the pure-DVFS field (preserved through to_dict/from_dict).
        elastic_label = next(iter(cell.policy_watts))
        dvfs_best = min(
            watts
            for label, watts in cell.policy_watts.items()
            if label != elastic_label
        )
        rows.append(
            [
                f"{cell.base_rate_rps:g}",
                f"{cell.budget_frac:g}",
                f"{cell.budget_watts:.1f}",
                f"{cell.policy_watts[elastic_label]:.1f}",
                f"{dvfs_best:.1f}",
                cell.elastic_escalation,
                cell.best_knob,
                "yes" if cell.feasible else "NO",
            ]
        )
    result.tables["knobmap"] = format_table(
        [
            "rate r/s",
            "frac",
            "budget W",
            "elastic W",
            "best DVFS W",
            "escalation",
            "best knob",
            "feasible",
        ],
        rows,
        title=(
            "knob map: diurnal two-tier serving, budgets as fractions of "
            "static-max draw; pure-DVFS contenders are the degenerate "
            "elastic policies (slack redistribution and a uniform ceiling)"
        ),
    )
    for line in report.summary_lines():
        result.notes.append(line)

    # The acceptance claims (1.0 = claim holds; no paper values — the
    # extension is ours).
    result.compare(
        "some (load, budget) cell is infeasible for every knob",
        None,
        1.0 if report.infeasible_cells else 0.0,
    )
    result.compare(
        "some cell is met by elastic but by no pure-DVFS policy",
        None,
        1.0 if report.elastic_only_cells else 0.0,
    )
    result.compare(
        "the winning knob varies across the map",
        None,
        1.0 if len({c.best_knob for c in report.cells}) > 1 else 0.0,
    )
    result.notes.append(
        "all contenders at one (rate, budget) cell replay the identical "
        "pre-materialised request stream; only the control plane differs"
    )
    return result
