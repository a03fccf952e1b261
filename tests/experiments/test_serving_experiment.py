"""Acceptance for the serving experiment: the SLO-vs-energy table must
carry the PowerTracer-style claim at reduced scale."""

import pytest

from repro.experiments import run_experiment
from repro.experiments.serving import build_workload

#: Smallest horizon where the claims hold: the first MMPP burst lands
#: after the ~3 s base dwell, so shorter runs never stress cpuspeed.
HORIZON_S = 6.0


@pytest.fixture(scope="module")
def result():
    return run_experiment("serving", horizon_s=HORIZON_S)


def claims(result):
    return {c.quantity: c.measured for c in result.comparisons}


class TestAcceptanceClaims:
    def test_static_and_tierdvs_meet_the_slo(self, result):
        measured = claims(result)
        assert measured["static-max meets the SLO"] == 1.0
        assert measured["tierdvs meets the SLO"] == 1.0

    def test_cpuspeed_loses(self, result):
        measured = claims(result)
        assert (
            measured["cpuspeed violates the SLO or spends more energy/request"]
            == 1.0
        )

    def test_capped_row_holds_its_budget(self, result):
        assert claims(result)["capped row holds its budget"] == 1.0

    def test_tierdvs_is_measurably_cheaper_per_request(self, result):
        ratio = claims(result)[
            "tierdvs energy/request vs static-max (ratio)"
        ]
        assert ratio < 0.99  # measurable, not float noise

    def test_table_and_notes_render(self, result):
        rendered = result.render()
        assert "three-tier" in rendered
        for policy in (
            "static",
            "tierdvs",
            "cpuspeed",
            "elastic[dvfs]/uniform@60W",
        ):
            assert policy in rendered
        # Only the capped row fills the compliance column.
        [capped] = [
            line for line in rendered.splitlines() if "@60W |" in line
        ]
        assert "<= 60.15 (" in capped
        assert "plans predicted in budget" in rendered
        assert "SLO" in rendered
        assert result.notes


class TestWorkloadShape:
    def test_build_workload_is_deterministic_and_bursty(self):
        w = build_workload(horizon_s=HORIZON_S)
        assert w.requests() == build_workload(horizon_s=HORIZON_S).requests()
        assert w.tier_names == ("frontend", "app", "storage")
        assert w.total_nodes == 6

    def test_app_tier_is_the_critical_path(self):
        w = build_workload()
        cycles = {t.name: t.service_cycles for t in w.tiers}
        assert cycles["app"] > 3 * cycles["frontend"]
        assert cycles["app"] > 3 * cycles["storage"]

    def test_seed_parameterises_the_stream(self):
        assert (
            build_workload(horizon_s=4.0, seed=0).requests()
            != build_workload(horizon_s=4.0, seed=1).requests()
        )
