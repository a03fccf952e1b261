"""ServingReport: percentile accounting pinned against a brute-force
per-request walk, the energy ledger, and the edge cases (empty run,
single request, shed load)."""

import dataclasses
import math
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from repro.metrics.serving import (
    ServingReport,
    TierBreakdown,
    attribute_request_energy,
    build_serving_report,
    latency_percentile,
    latency_percentiles,
)
from repro.serving.arrivals import DiurnalArrivals, MMPPArrivals, PoissonArrivals
from repro.serving.elastic import ElasticServingPolicy
from repro.serving.policy import (
    CpuspeedServingPolicy,
    StaticServingPolicy,
    TierDvsPolicy,
)
from repro.serving.runner import run_serving
from repro.serving.spec import ServingWorkload, TierSpec
from tests.oracles import serving_report_walk


def oracle_percentile(values, q):
    """Brute-force nearest-rank: walk the sorted sample, count until
    at least q% of it is covered."""
    if not values:
        return None
    ordered = sorted(values)
    need = q / 100.0 * len(ordered)
    covered = 0
    for value in ordered:
        covered += 1
        if covered >= need:
            return value
    return ordered[-1]


class TestLatencyPercentile:
    @given(
        st.lists(
            st.floats(
                min_value=0.0,
                max_value=1e6,
                allow_nan=False,
                allow_infinity=False,
            ),
            max_size=200,
        ),
        st.floats(min_value=0.001, max_value=100.0),
    )
    def test_matches_the_brute_force_oracle(self, values, q):
        assert latency_percentile(values, q) == oracle_percentile(values, q)

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=100,
        )
    )
    def test_is_an_observed_value_and_monotone_in_q(self, values):
        results = [latency_percentile(values, q) for q in (50, 95, 99, 100)]
        assert all(r in values for r in results)
        assert results == sorted(results)
        assert results[-1] == max(values)

    def test_empty_window_is_none(self):
        assert latency_percentile([], 99.0) is None

    def test_single_sample_is_every_percentile(self):
        for q in (0.1, 50.0, 99.0, 100.0):
            assert latency_percentile([7.5], q) == 7.5

    def test_q_out_of_range_rejected(self):
        for q in (0.0, -5.0, 100.1):
            with pytest.raises(ValueError, match="q"):
                latency_percentile([1.0], q)


class TestLatencyPercentiles:
    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            max_size=200,
        ),
        st.lists(st.floats(min_value=0.001, max_value=100.0), max_size=5),
    )
    def test_one_sort_matches_the_oracle_at_every_q(self, values, qs):
        assert latency_percentiles(values, qs) == [
            oracle_percentile(values, q) for q in qs
        ]

    def test_any_q_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="q"):
            latency_percentiles([], (50.0, 0.0))


def small_run(**overrides):
    defaults = dict(
        tiers=(
            TierSpec("fe", nodes=1, service_cycles=1.0e6),
            TierSpec("app", nodes=1, service_cycles=4.0e6),
        ),
        arrivals=PoissonArrivals(40.0, seed=2),
        horizon_s=1.5,
        timeout_s=3.0,
    )
    defaults.update(overrides)
    return run_serving(ServingWorkload(**defaults))


@pytest.fixture(scope="module")
def run():
    return small_run()


@pytest.fixture(scope="module")
def report(run):
    return build_serving_report(run)


class TestReportVsOracle:
    def test_counts(self, run, report):
        assert report.n_requests == len(run.records)
        assert report.completed == sum(1 for r in run.records if r.ok)
        assert (
            report.completed + report.dropped + report.timed_out
            == report.n_requests
        )

    def test_percentiles_re_derivable_from_the_records(self, run, report):
        latencies = [r.latency_s for r in run.records if r.status == "ok"]
        assert report.p50_s == oracle_percentile(latencies, 50)
        assert report.p95_s == oracle_percentile(latencies, 95)
        assert report.p99_s == oracle_percentile(latencies, 99)

    def test_tier_breakdown_re_derivable(self, run, report):
        for tier in report.tiers:
            spans = [
                s
                for r in run.records
                for s in r.spans
                if s.tier == tier.tier
            ]
            assert tier.served == len(spans)
            assert tier.mean_wait_s == pytest.approx(
                sum(s.wait_s for s in spans) / len(spans)
            )
            assert tier.mean_service_s == pytest.approx(
                sum(s.service_s for s in spans) / len(spans)
            )
            residences = [s.residence_s for s in spans]
            assert tier.p99_s == oracle_percentile(residences, 99)

    def test_throughput_and_duration(self, run, report):
        assert report.duration_s == run.duration_s
        assert report.throughput_rps == pytest.approx(
            report.completed / run.duration_s
        )


class TestEnergyLedger:
    def test_attribution_sums_to_the_run_total_by_construction(
        self, run, report
    ):
        assert report.energy_j == run.energy_j
        assert (
            abs(
                report.request_energy_j
                + report.unattributed_energy_j
                - report.energy_j
            )
            < 1e-9
        )
        assert 0.0 < report.request_energy_j < report.energy_j
        assert report.energy_per_request_j == pytest.approx(
            report.energy_j / report.completed
        )

    def test_per_request_map_covers_every_request(self, run):
        per_request, attributed = attribute_request_energy(
            run.cluster, run.records
        )
        assert set(per_request) == {r.request_id for r in run.records}
        assert all(v > 0.0 for v in per_request.values())
        assert math.fsum(per_request.values()) == pytest.approx(
            attributed, abs=1e-9
        )

    def test_per_request_energy_scales_with_demand(self, run):
        """A request with strictly larger cycle demands on every tier
        must attribute at least as much energy (same nodes, same or
        longer occupancy)."""
        per_request, _ = attribute_request_energy(run.cluster, run.records)
        requests = {r.request_id: r for r in run.workload.requests()}
        items = sorted(per_request.items())
        for rid_a, joules_a in items:
            for rid_b, joules_b in items:
                da, db = requests[rid_a].demands, requests[rid_b].demands
                if all(x < y for x, y in zip(da, db)) and joules_a > 0:
                    assert joules_b > 0.2 * joules_a


class TestEdgeCases:
    def test_empty_run(self):
        class NoArrivals:
            def times(self, horizon_s):
                return ()

        report = build_serving_report(small_run(arrivals=NoArrivals()))
        assert report.n_requests == 0
        assert report.completed == 0
        assert report.p50_s is None
        assert report.p99_s is None
        assert report.throughput_rps == 0.0
        assert report.energy_per_request_j is None
        assert report.request_energy_j == 0.0
        assert report.unattributed_energy_j == report.energy_j > 0.0
        assert not report.meets_slo(1.0)  # nothing served, nothing met
        assert all(t.served == 0 for t in report.tiers)

    def test_single_request_run(self):
        class OneArrival:
            def times(self, horizon_s):
                return (0.1,)

        report = build_serving_report(small_run(arrivals=OneArrival()))
        assert report.n_requests == report.completed == 1
        assert report.p50_s == report.p95_s == report.p99_s
        assert report.meets_slo(report.p99_s)
        assert report.energy_per_request_j == report.energy_j

    def test_shed_load_counts_and_percentile_exclusion(self):
        run = small_run(
            tiers=(
                TierSpec("fe", nodes=1, service_cycles=1.0e6),
                TierSpec("app", nodes=1, service_cycles=40.0e6,
                         queue_capacity=2),
            ),
            arrivals=PoissonArrivals(120.0, seed=5),
            horizon_s=1.0,
            timeout_s=0.5,
        )
        report = build_serving_report(run)
        assert report.dropped > 0 or report.timed_out > 0
        completed = [r.latency_s for r in run.records if r.status == "ok"]
        assert report.p99_s == oracle_percentile(completed, 99)
        # Shedding disqualifies the SLO outright, whatever the p99.
        assert not report.meets_slo(float("inf"))


class TestSerialisation:
    def test_round_trip_on_a_real_report(self, report):
        assert ServingReport.from_dict(report.to_dict()) == report

    def test_tier_breakdown_round_trips_nones(self):
        tier = TierBreakdown("quiet", 0, 0.0, 0.0, None, None, None)
        assert TierBreakdown.from_dict(tier.to_dict()) == tier

    def test_summary_lines_handle_missing_percentiles(self):
        report = ServingReport(
            label="quiet",
            n_requests=0,
            completed=0,
            dropped=0,
            timed_out=0,
            duration_s=2.0,
            throughput_rps=0.0,
            p50_s=None,
            p95_s=None,
            p99_s=None,
            energy_j=10.0,
            request_energy_j=0.0,
            unattributed_energy_j=10.0,
            energy_per_request_j=None,
            tiers=(TierBreakdown("fe", 0, 0.0, 0.0, None, None, None),),
        )
        lines = report.summary_lines()
        assert lines and "quiet" in lines[0]
        assert any("n/a" in line for line in lines)


# -- the one-pass report against the multi-pass walk --------------------

#: a six-node three-tier day (DVFS floor near 60 W): 70 W throttles by
#: frequency, 48 W must reach for cores or gating
THREE_TIER = ServingWorkload(
    tiers=(
        TierSpec("frontend", nodes=2, service_cycles=2.0e6),
        TierSpec("app", nodes=2, service_cycles=12.0e6),
        TierSpec("storage", nodes=2, service_cycles=3.0e6),
    ),
    arrivals=MMPPArrivals(
        base_rate=40.0, burst_rate=190.0, base_dwell_s=0.6,
        burst_dwell_s=0.2, seed=3,
    ),
    horizon_s=4.0,
    timeout_s=2.0,
    seed=3,
)

POLICIES = {
    "static": StaticServingPolicy,
    "cpuspeed": CpuspeedServingPolicy,
    "tierdvs": TierDvsPolicy,
    "elastic@70W": lambda: ElasticServingPolicy(70.0),
    "elastic@48W": lambda: ElasticServingPolicy(48.0),
}


class NoArrivals:
    def times(self, horizon_s):
        return ()


class OneArrival:
    def times(self, horizon_s):
        return (0.1,)


EDGE_RUNS = {
    "empty": dict(arrivals=NoArrivals()),
    "single": dict(arrivals=OneArrival()),
    "shed": dict(
        tiers=(
            TierSpec("fe", nodes=1, service_cycles=1.0e6),
            TierSpec("app", nodes=1, service_cycles=40.0e6,
                     queue_capacity=2),
        ),
        arrivals=PoissonArrivals(120.0, seed=5),
        horizon_s=1.0,
        timeout_s=0.5,
    ),
    "diurnal": dict(
        arrivals=DiurnalArrivals(base_rate=60.0, swing=0.6, period_s=1.0),
    ),
}


class TestReportVsWalk:
    @pytest.mark.parametrize("policy", list(POLICIES))
    def test_every_policy(self, policy):
        run = run_serving(THREE_TIER, POLICIES[policy]())
        report = build_serving_report(run)
        assert report == serving_report_walk(run)
        if policy == "elastic@48W":
            assert report.cap_escalation in ("cores", "gate")

    @pytest.mark.parametrize("case", list(EDGE_RUNS))
    def test_edge_runs(self, case):
        run = small_run(**EDGE_RUNS[case])
        assert build_serving_report(run) == serving_report_walk(run)
        label = build_serving_report(run, label="x")
        assert label == serving_report_walk(run, label="x")


class TestCapEscalation:
    def test_a_governor_that_cannot_say_raises(self, run):
        """A governor without ``deepest_knob`` is an error, not a run
        reported as ``"dvfs"``."""
        stub = SimpleNamespace(
            name="stub", governor=SimpleNamespace(windows=[])
        )
        with pytest.raises(AttributeError, match="deepest_knob"):
            build_serving_report(dataclasses.replace(run, policy=stub))
