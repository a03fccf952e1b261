"""Observation: serving spans/counters in the tracer, zero-cost when
disabled, and bit-for-bit neutrality of tracing on results."""

import json

import pytest

from repro.obs.export import (
    TraceData,
    load_trace_file,
    validate_chrome_trace,
)
from repro.obs.tracer import Tracer, tracing
from repro.serving.arrivals import MMPPArrivals
from repro.serving.policy import TierDvsPolicy
from repro.serving.runner import run_serving
from repro.serving.spec import ServingWorkload, TierSpec
from repro.serving.sweep import ServingTask
from repro.session import Session

WORKLOAD = ServingWorkload(
    tiers=(
        TierSpec("fe", nodes=1, service_cycles=1.0e6),
        TierSpec("app", nodes=1, service_cycles=4.0e6),
    ),
    arrivals=MMPPArrivals(
        20.0, 100.0, base_dwell_s=0.8, burst_dwell_s=0.3, seed=2
    ),
    horizon_s=1.5,
    timeout_s=3.0,
)


class TestSpans:
    def test_traced_run_emits_request_and_tier_spans(self):
        tracer = Tracer()
        with tracing(tracer):
            run = run_serving(WORKLOAD, TierDvsPolicy(interval=0.2))
        data = TraceData.from_tracer(tracer)
        by_cat = {}
        for span in data.spans:
            by_cat.setdefault(span.cat, []).append(span)

        requests = by_cat["serving.request"]
        assert len(requests) == len(run.records)
        assert {s.args["status"] for s in requests} == {"ok"}
        assert {s.args["request"] for s in requests} == {
            r.request_id for r in run.records
        }

        tiers = by_cat["serving.tier"]
        assert {s.name for s in tiers} == {"fe", "app"}
        # One tier span per record span, on the serving node's track.
        assert len(tiers) == sum(len(r.spans) for r in run.records)
        assert {s.track for s in tiers} == {
            s.node_id for r in run.records for s in r.spans
        }

        queue_counters = {
            c.name for c in data.counters if c.name.startswith("queue[")
        }
        assert queue_counters == {"queue[fe]", "queue[app]"}
        assert any(i.name == "retune" for i in data.instants)

    def test_untraced_run_records_nothing(self):
        tracer = Tracer(enabled=False)
        with tracing(tracer):
            run_serving(WORKLOAD)
        assert len(tracer) == 0


class TestNeutrality:
    def test_tracing_never_changes_a_single_bit(self):
        bare = run_serving(WORKLOAD, TierDvsPolicy(interval=0.2))
        with tracing(Tracer(enabled=False)):
            disabled = run_serving(WORKLOAD, TierDvsPolicy(interval=0.2))
        with tracing(Tracer()):
            enabled = run_serving(WORKLOAD, TierDvsPolicy(interval=0.2))
        assert disabled.records == bare.records
        assert enabled.records == bare.records
        assert disabled.energy_j == bare.energy_j
        assert enabled.energy_j == bare.energy_j


class TestChromeExportRoundTrip:
    def test_session_export_trace_round_trips_request_spans(self, tmp_path):
        session = Session(tracer=Tracer())
        [outcome] = session.sweep(
            [ServingTask(WORKLOAD, "tierdvs", interval=0.2)]
        )
        path = tmp_path / "serving.trace.json"
        n_written = session.export_trace(path)
        assert n_written > 0

        document = json.loads(path.read_text(encoding="utf-8"))
        assert validate_chrome_trace(document) == []

        data = load_trace_file(path)
        requests = [s for s in data.spans if s.cat == "serving.request"]
        assert len(requests) == outcome.report.n_requests
        assert {s.args["request"] for s in requests} == set(
            range(outcome.report.n_requests)
        )
        tier_spans = [s for s in data.spans if s.cat == "serving.tier"]
        assert {s.name for s in tier_spans} == {"fe", "app"}
        # The sweep's wall-clock task span wraps the whole run.
        assert any(s.cat == "sweep.task" for s in data.spans)

    def test_report_unchanged_by_session_tracing(self):
        [untraced] = Session().sweep([ServingTask(WORKLOAD, "static")])
        [traced] = Session(tracer=Tracer()).sweep(
            [ServingTask(WORKLOAD, "static")]
        )
        assert traced.report == untraced.report
        assert traced.point == untraced.point
