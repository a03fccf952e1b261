"""The stored form of every metrics report and row, pinned literally.

The run cache keeps chaos and serving reports in a record's ``meta``, so
a report's ``to_dict()`` is an on-disk format: a renamed, dropped or
retyped key turns every stored record into a miss.  The round-trip tests
cannot see such a change (they encode and decode with the same code), so
the dicts below are literals: one instance of each of the twelve report
and row classes, with the keys and values it is stored as.  Records in
older layouts (written before a defaulted field existed) must keep
decoding to that default, and a malformed report must fall through to
re-simulation rather than crash a sweep.
"""

import pytest

from repro.cache.store import RunCache
from repro.faults import chaos_task_key
from repro.metrics.attribution import AttributionReport, AttributionRow
from repro.metrics.chaos import ChaosReport
from repro.metrics.ed2p import Ed2pReport, Ed2pRow
from repro.metrics.knobmap import KnobCell, KnobMapReport
from repro.metrics.powercap import PowerCapReport
from repro.metrics.records import EnergyDelayPoint
from repro.metrics.scaling import GenerationVerdict, ScalingReport
from repro.metrics.serving import ServingReport, TierBreakdown
from repro.serving.sweep import serving_task_key
from tests.cache.test_keys import _golden_chaos_task, _golden_serving_task

ED2P_ROW = Ed2pRow("stat-600", 600e6, 90.0, 12.0, 12960.0)
ED2P_ROW_DICT = {
    "label": "stat-600",
    "frequency": 600000000.0,
    "energy_j": 90.0,
    "delay_s": 12.0,
    "weighted": 12960.0,
}

ATTRIBUTION_ROW = AttributionRow(1, "alltoall", 4.5, 50.25, 8)
ATTRIBUTION_ROW_DICT = {
    "rank": 1,
    "phase": "alltoall",
    "time_s": 4.5,
    "energy_j": 50.25,
    "occurrences": 8,
}

TIER = TierBreakdown("app", 98, 0.002, 0.006, 0.007, 0.011, 0.015)
TIER_DICT = {
    "tier": "app",
    "served": 98,
    "mean_wait_s": 0.002,
    "mean_service_s": 0.006,
    "p50_s": 0.007,
    "p95_s": 0.011,
    "p99_s": 0.015,
}
QUIET_TIER = TierBreakdown("quiet", 0, 0.0, 0.0, None, None, None)
QUIET_TIER_DICT = {
    "tier": "quiet",
    "served": 0,
    "mean_wait_s": 0.0,
    "mean_service_s": 0.0,
    "p50_s": None,
    "p95_s": None,
    "p99_s": None,
}

VERDICT = GenerationVerdict(
    tech="45nm/itrs",
    nm=45,
    projection="itrs",
    rungs=5,
    slowest_mhz=600.0,
    fastest_mhz=1400.0,
    dyn_label="dyn-1400",
    dyn_energy=0.625,
    dyn_delay=1.0,
    cpuspeed_energy=1.0,
    cpuspeed_delay=1.0,
)
VERDICT_DICT = {
    "tech": "45nm/itrs",
    "nm": 45,
    "projection": "itrs",
    "rungs": 5,
    "slowest_mhz": 600.0,
    "fastest_mhz": 1400.0,
    "dyn_label": "dyn-1400",
    "dyn_energy": 0.625,
    "dyn_delay": 1.0,
    "cpuspeed_energy": 1.0,
    "cpuspeed_delay": 1.0,
    # derived keys, written for readers of the stored form
    "dyn_ed2p": 0.6866003395663236,
    "cpuspeed_ed2p": 1.0,
    "beats_energy": True,
    "beats_ed2p": True,
    "holds": True,
}

KNOB_CELL = KnobCell(
    base_rate_rps=30.0,
    budget_frac=0.6,
    budget_watts=27.5,
    policy_watts={"elastic@27W": 26.75, "powercap@27W": 38.0},
    policy_met={"elastic@27W": True, "powercap@27W": False},
    elastic_escalation="gate",
    best_knob="gate",
    feasible=True,
    elastic_p99_s=0.021,
)
KNOB_CELL_DICT = {
    "base_rate_rps": 30.0,
    "budget_frac": 0.6,
    "budget_watts": 27.5,
    "policy_watts": {"elastic@27W": 26.75, "powercap@27W": 38.0},
    "policy_met": {"elastic@27W": True, "powercap@27W": False},
    "elastic_escalation": "gate",
    "best_knob": "gate",
    "feasible": True,
    "elastic_p99_s": 0.021,
}

SERVING = ServingReport(
    label="elastic",
    n_requests=100,
    completed=97,
    dropped=2,
    timed_out=1,
    duration_s=10.0,
    throughput_rps=9.7,
    p50_s=0.01,
    p95_s=0.021,
    p99_s=0.034,
    energy_j=500.0,
    request_energy_j=120.0,
    unattributed_energy_j=380.0,
    energy_per_request_j=5.125,
    tiers=(TIER, QUIET_TIER),
    cap_feasible_windows=40,
    cap_total_windows=50,
    cap_escalation="cores",
)
SERVING_DICT = {
    "label": "elastic",
    "n_requests": 100,
    "completed": 97,
    "dropped": 2,
    "timed_out": 1,
    "duration_s": 10.0,
    "throughput_rps": 9.7,
    "p50_s": 0.01,
    "p95_s": 0.021,
    "p99_s": 0.034,
    "energy_j": 500.0,
    "request_energy_j": 120.0,
    "unattributed_energy_j": 380.0,
    "energy_per_request_j": 5.125,
    "tiers": [TIER_DICT, QUIET_TIER_DICT],
    "cap_feasible_windows": 40,
    "cap_total_windows": 50,
    "cap_escalation": "cores",
}

CHAOS = ChaosReport(
    label="cap@120W/selfheal",
    cap_watts=120.0,
    tolerance=0.05,
    energy_j=900.0,
    delay_s=9.0,
    total_windows=36,
    violation_windows=3,
    excused_violations=2,
    post_recovery_violations=1,
    worst_recovery_latency_s=0.4,
    n_transitions=6,
    repair_events=2,
    invariant_violations=0,
    allowed_recovery_s=1.0,
)
CHAOS_DICT = {
    "label": "cap@120W/selfheal",
    "cap_watts": 120.0,
    "tolerance": 0.05,
    "energy_j": 900.0,
    "delay_s": 9.0,
    "total_windows": 36,
    "violation_windows": 3,
    "excused_violations": 2,
    "post_recovery_violations": 1,
    "worst_recovery_latency_s": 0.4,
    "n_transitions": 6,
    "repair_events": 2,
    "invariant_violations": 0,
    "allowed_recovery_s": 1.0,
}

CAP = PowerCapReport(
    label="cap@150W/redist",
    cap_watts=150.0,
    tolerance=0.05,
    energy_j=1200.0,
    delay_s=10.0,
    achieved_avg_watts=146.5,
    peak_window_watts=151.0,
    violation_windows=0,
    total_windows=3,
    slowdown_vs_uncapped=0.125,
)
CAP_DICT = {
    "label": "cap@150W/redist",
    "cap_watts": 150.0,
    "tolerance": 0.05,
    "energy_j": 1200.0,
    "delay_s": 10.0,
    "achieved_avg_watts": 146.5,
    "peak_window_watts": 151.0,
    "violation_windows": 0,
    "total_windows": 3,
    "slowdown_vs_uncapped": 0.125,
}

#: class name -> (instance, its stored form recorded before the shared codec)
GOLDENS = {
    "Ed2pRow": (ED2P_ROW, ED2P_ROW_DICT),
    "Ed2pReport": (
        Ed2pReport("crescendo", 0.2, (ED2P_ROW,)),
        {"label": "crescendo", "delta": 0.2, "rows": [ED2P_ROW_DICT]},
    ),
    "PowerCapReport": (CAP, CAP_DICT),
    "ChaosReport": (CHAOS, CHAOS_DICT),
    "AttributionRow": (ATTRIBUTION_ROW, ATTRIBUTION_ROW_DICT),
    "AttributionReport": (
        AttributionReport(
            label="ft-S",
            t0=0.0,
            t1=10.0,
            total_energy_j=50.25,
            rows=(ATTRIBUTION_ROW,),
            categories=("mpi.", "io."),
        ),
        {
            "label": "ft-S",
            "t0": 0.0,
            "t1": 10.0,
            "total_energy_j": 50.25,
            "categories": ["mpi.", "io."],
            "rows": [ATTRIBUTION_ROW_DICT],
        },
    ),
    "TierBreakdown": (TIER, TIER_DICT),
    "ServingReport": (SERVING, SERVING_DICT),
    "GenerationVerdict": (VERDICT, VERDICT_DICT),
    "ScalingReport": (
        ScalingReport("techscaling/ft.B.8", "ft.B.8", (VERDICT,)),
        {
            "label": "techscaling/ft.B.8",
            "workload": "ft.B.8",
            "holds_everywhere": True,
            "verdicts": [VERDICT_DICT],
        },
    ),
    "KnobCell": (KNOB_CELL, KNOB_CELL_DICT),
    "KnobMapReport": (
        KnobMapReport(
            label="knobmap",
            workload="diurnal two-tier serving",
            static_watts={"30": 46.0},
            cells=(KNOB_CELL,),
        ),
        {
            "label": "knobmap",
            "workload": "diurnal two-tier serving",
            "static_watts": {"30": 46.0},
            "cells": [KNOB_CELL_DICT],
        },
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_stored_form_is_the_recorded_literal(name):
    instance, stored = GOLDENS[name]
    assert type(instance).__name__ == name
    assert instance.to_dict() == stored


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_recorded_literal_decodes_to_the_instance(name):
    instance, stored = GOLDENS[name]
    assert type(instance).from_dict(stored) == instance


def _without(data: dict, *keys: str) -> dict:
    return {k: v for k, v in data.items() if k not in keys}


class TestOlderLayouts:
    """Records written before a defaulted field existed decode to it."""

    def test_serving_record_without_tiers_or_cap_keys(self):
        old = _without(
            SERVING_DICT,
            "tiers",
            "cap_feasible_windows",
            "cap_total_windows",
            "cap_escalation",
        )
        assert ServingReport.from_dict(old) == ServingReport(
            **_without(
                SERVING.__dict__,
                "tiers",
                "cap_feasible_windows",
                "cap_total_windows",
                "cap_escalation",
            ),
            tiers=(),
        )

    def test_knob_cell_without_elastic_p99(self):
        old = _without(KNOB_CELL_DICT, "elastic_p99_s")
        decoded = KnobCell.from_dict(old)
        assert decoded.elastic_p99_s is None
        assert decoded == KnobCell(
            **_without(KNOB_CELL.__dict__, "elastic_p99_s"),
            elastic_p99_s=None,
        )

    def test_cap_report_without_slowdown(self):
        old = _without(CAP_DICT, "slowdown_vs_uncapped")
        decoded = PowerCapReport.from_dict(old)
        assert decoded.slowdown_vs_uncapped is None
        assert decoded == PowerCapReport(
            **_without(CAP.__dict__, "slowdown_vs_uncapped"),
            slowdown_vs_uncapped=None,
        )

    def test_missing_key_without_a_default_raises_key_error(self):
        with pytest.raises(KeyError):
            ChaosReport.from_dict(_without(CHAOS_DICT, "energy_j"))


# -- malformed stored reports fall through to re-simulation ---------------


def _store(cache, key, kind, workload, report):
    cache.put(
        key,
        EnergyDelayPoint("stored", 1.0, 1.0),
        meta={"kind": kind, "workload": workload, "report": report},
    )


NOT_AN_OBJECT = [[1, 2], "report", 3.5, None]


@pytest.mark.parametrize("report", NOT_AN_OBJECT, ids=repr)
def test_chaos_report_that_is_not_an_object_is_a_miss(tmp_path, report):
    task = _golden_chaos_task()
    cache = RunCache(tmp_path)
    key = chaos_task_key(task)
    _store(cache, key, "chaos-report", task.workload.name, report)
    assert task.load(cache, key) is None


SERVING_MALFORMED = {
    "list": [SERVING_DICT],
    "string": "report",
    "number": 3,
    "null": None,
    "text-in-float": {**SERVING_DICT, "duration_s": "abc"},
    "none-in-int": {**SERVING_DICT, "n_requests": None},
    "tier-not-object": {**SERVING_DICT, "tiers": [TIER_DICT, 7]},
    "tier-string": {**SERVING_DICT, "tiers": ["fe"]},
    "tier-list": {**SERVING_DICT, "tiers": [["fe", 1]]},
}


@pytest.mark.parametrize("name", sorted(SERVING_MALFORMED))
def test_malformed_serving_report_is_a_miss(tmp_path, name):
    task = _golden_serving_task()
    cache = RunCache(tmp_path)
    key = serving_task_key(task)
    _store(
        cache, key, "serving-report", task.workload.name,
        SERVING_MALFORMED[name],
    )
    assert task.load(cache, key) is None


def test_well_formed_serving_report_is_a_hit(tmp_path):
    task = _golden_serving_task()
    cache = RunCache(tmp_path)
    key = serving_task_key(task)
    _store(cache, key, "serving-report", task.workload.name, SERVING_DICT)
    assert task.load(cache, key).report == SERVING


@pytest.mark.parametrize(
    "bad",
    [
        {**KNOB_CELL_DICT, "policy_watts": [["elastic@27W", 26.75]]},
        {**KNOB_CELL_DICT, "policy_met": "elastic@27W"},
        {**KNOB_CELL_DICT, "budget_frac": "abc"},
    ],
    ids=["dict-as-list", "dict-as-string", "text-in-float"],
)
def test_malformed_rows_raise_only_what_the_codec_catches(bad):
    with pytest.raises((KeyError, TypeError, ValueError)):
        KnobCell.from_dict(bad)
