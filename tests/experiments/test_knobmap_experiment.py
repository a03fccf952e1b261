"""Acceptance for the knobmap experiment: the knob-flip claim must hold
at reduced scale (one load level, three budget depths)."""

import pytest

from repro.experiments import run_experiment
from repro.experiments.knobmap import build_workload
from repro.experiments.registry import EXPERIMENTS

#: One rate and three depths is the smallest map that still exercises
#: every regime: shallow (DVFS wins), deep (gating only), and below the
#: suspend floor (infeasible for every knob).
PARAMS = dict(
    horizon_s=8.0,
    base_rates=(30.0,),
    budget_fracs=(0.9, 0.6, 0.35),
)


#: Each cell at PARAMS as the table prints it, recorded when the map
#: still ran a fourth, reactive uniform-ceiling contender: (rate, frac)
#: → (elastic W, best DVFS W, escalation, best knob, feasible).
CELLS = {
    ("30", "0.9"): ("36.0", "37.8", "cores", "dvfs", "yes"),
    ("30", "0.6"): ("25.1", "37.8", "gate", "gate", "yes"),
    ("30", "0.35"): ("23.2", "37.8", "gate", "none", "NO"),
}


@pytest.fixture(scope="module")
def result():
    return run_experiment("knobmap", **PARAMS)


def claims(result):
    return {c.quantity: c.measured for c in result.comparisons}


class TestAcceptanceClaims:
    def test_registered(self):
        assert "knobmap" in EXPERIMENTS

    def test_infeasible_region_is_non_empty(self, result):
        measured = claims(result)
        assert (
            measured["some (load, budget) cell is infeasible for every knob"]
            == 1.0
        )

    def test_elastic_meets_a_cell_no_dvfs_policy_can(self, result):
        measured = claims(result)
        assert (
            measured["some cell is met by elastic but by no pure-DVFS policy"]
            == 1.0
        )

    def test_the_winning_knob_varies(self, result):
        assert claims(result)["the winning knob varies across the map"] == 1.0

    def test_cell_verdicts_are_pinned(self, result):
        rows = result.tables["knobmap"].splitlines()[3:]
        cells = {}
        for row in rows:
            rate, frac, _, *verdict = [c.strip() for c in row.split("|")]
            cells[(rate, frac)] = tuple(verdict)
        assert cells == CELLS

    def test_table_and_notes_render(self, result):
        rendered = result.render()
        assert "knob map" in rendered
        for column in ("escalation", "best knob", "feasible"):
            assert column in rendered
        assert result.notes


class TestWorkloadShape:
    def test_build_workload_is_deterministic(self):
        w = build_workload(30.0, horizon_s=8.0)
        assert w.requests() == build_workload(30.0, horizon_s=8.0).requests()
        assert w.tier_names == ("web", "app")
        assert w.total_nodes == 4

    def test_rate_parameterises_the_name_and_stream(self):
        light = build_workload(30.0, horizon_s=8.0)
        busy = build_workload(40.0, horizon_s=8.0)
        assert light.name == "diurnal@30rps"
        assert busy.name == "diurnal@40rps"
        assert light.requests() != busy.requests()

    def test_two_diurnal_periods_fit_the_horizon(self):
        w = build_workload(30.0, horizon_s=8.0)
        assert w.arrivals.period_s == pytest.approx(4.0)
