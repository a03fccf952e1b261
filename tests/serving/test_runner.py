"""The serving data path: queue discipline, spans, drops, timeouts."""

from dataclasses import dataclass
from typing import List

import pytest

from repro.serving import spec as spec_module
from repro.serving.arrivals import PoissonArrivals
from repro.serving.policy import TierDvsPolicy
from repro.serving.records import REQUEST_STATUSES
from repro.serving.runner import run_serving
from repro.serving.spec import RequestSpec, ServingWorkload, TierSpec


def workload(**overrides):
    defaults = dict(
        tiers=(
            TierSpec("fe", nodes=1, service_cycles=1.0e6),
            TierSpec("app", nodes=2, service_cycles=4.0e6),
        ),
        arrivals=PoissonArrivals(40.0, seed=2),
        horizon_s=1.5,
        timeout_s=5.0,
    )
    defaults.update(overrides)
    return ServingWorkload(**defaults)


@pytest.fixture(scope="module")
def run():
    return run_serving(workload())


class TestSpec:
    def test_requests_are_pre_materialised_in_arrival_order(self):
        w = workload()
        requests = w.requests()
        assert requests == w.requests()  # pure function of the spec
        assert [r.request_id for r in requests] == list(range(len(requests)))
        arrivals = [r.arrival_s for r in requests]
        assert arrivals == sorted(arrivals)
        assert all(len(r.demands) == len(w.tiers) for r in requests)
        assert all(d > 0 for r in requests for d in r.demands)

    def test_fixed_distribution_pins_every_demand(self):
        w = workload(
            tiers=(TierSpec("only", 1, 2.0e6, distribution="fixed"),)
        )
        assert all(r.demands == (2.0e6,) for r in w.requests())

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="unique"):
            workload(tiers=(TierSpec("a", 1, 1e6), TierSpec("a", 1, 1e6)))
        with pytest.raises(ValueError, match="at least one tier"):
            workload(tiers=())
        with pytest.raises(TypeError, match="times"):
            workload(arrivals=object())
        with pytest.raises(ValueError, match="distribution"):
            TierSpec("a", 1, 1e6, distribution="pareto")
        with pytest.raises(ValueError, match="queue_capacity"):
            TierSpec("a", 1, 1e6, queue_capacity=0)


class TestHappyPath:
    def test_every_arrival_resolves_exactly_once(self, run):
        n = len(run.workload.requests())
        assert len(run.records) == n
        assert [r.request_id for r in run.records] == list(range(n))
        assert all(r.status in REQUEST_STATUSES for r in run.records)

    def test_unloaded_run_completes_everything(self, run):
        assert all(r.status == "ok" for r in run.records)

    def test_ok_requests_traverse_every_tier_in_order(self, run):
        names = run.workload.tier_names
        for record in run.records:
            assert tuple(s.tier for s in record.spans) == names
            for span in record.spans:
                assert span.enqueued_s <= span.started_s <= span.finished_s
                assert span.wait_s >= 0.0
                assert span.service_s > 0.0
            for a, b in zip(record.spans, record.spans[1:]):
                assert b.enqueued_s >= a.finished_s
            assert record.resolved_s == record.spans[-1].finished_s
            assert record.latency_s > 0.0

    def test_spans_land_on_the_tiers_own_nodes(self, run):
        groups = {}
        offset = 0
        for spec in run.workload.tiers:
            groups[spec.name] = set(range(offset, offset + spec.nodes))
            offset += spec.nodes
        for record in run.records:
            for span in record.spans:
                assert span.node_id in groups[span.tier]

    def test_fifo_service_order_per_tier_node(self, run):
        """On any one node, service starts in the order work arrived."""
        by_node = {}
        for record in run.records:
            for span in record.spans:
                by_node.setdefault(span.node_id, []).append(span)
        for spans in by_node.values():
            starts = [s.started_s for s in spans]
            enqueues = [s.enqueued_s for s in spans]
            assert starts == sorted(starts)
            assert enqueues == sorted(enqueues)

    def test_window_and_energy(self, run):
        assert run.end >= run.workload.horizon_s
        assert run.duration_s == run.end - run.start
        assert run.energy_j > 0.0


class TestOverload:
    def test_bounded_queue_sheds_load(self):
        over = run_serving(
            workload(
                tiers=(
                    TierSpec("fe", 1, 1.0e6),
                    TierSpec("app", 1, 40.0e6, queue_capacity=2),
                ),
                arrivals=PoissonArrivals(120.0, seed=5),
                horizon_s=1.0,
                timeout_s=30.0,
            )
        )
        dropped = [r for r in over.records if r.status == "dropped"]
        assert dropped
        # A request dropped at the app queue served the frontend only.
        assert all(
            tuple(s.tier for s in r.spans) == ("fe",) for r in dropped
        )
        assert len(over.records) == len(over.workload.requests())

    def test_stale_requests_time_out_at_dequeue(self):
        slow = run_serving(
            workload(
                tiers=(TierSpec("app", 1, 20.0e6),),
                arrivals=PoissonArrivals(150.0, seed=6),
                horizon_s=1.0,
                timeout_s=0.05,
            )
        )
        timed_out = [r for r in slow.records if r.status == "timeout"]
        assert timed_out
        assert all(not r.spans for r in timed_out)  # discarded unserved
        assert all(
            r.resolved_s - r.arrival_s > slow.workload.timeout_s
            for r in timed_out
        )

    def test_empty_request_stream_is_a_clean_run(self):
        class NoArrivals:
            def times(self, horizon_s):
                return ()

        quiet = run_serving(workload(arrivals=NoArrivals()))
        assert quiet.records == ()
        assert quiet.end == quiet.workload.horizon_s
        assert quiet.energy_j > 0.0  # idle power still accrues


class TestRecords:
    def test_request_record_properties(self):
        from repro.serving.records import RequestRecord, TierSpan

        span = TierSpan("app", 3, 1.0, 1.25, 1.5)
        assert span.wait_s == pytest.approx(0.25)
        assert span.service_s == pytest.approx(0.25)
        assert span.residence_s == pytest.approx(0.5)
        record = RequestRecord(7, 0.9, 1.5, "ok", (span,))
        assert record.ok
        assert record.latency_s == pytest.approx(0.6)
        assert not RequestRecord(8, 0.9, 1.5, "timeout", ()).ok

    def test_request_spec_is_frozen(self):
        spec = RequestSpec(0, 0.0, (1.0,))
        with pytest.raises(AttributeError):
            spec.arrival_s = 1.0


@dataclass
class ListArrivals:
    """A mutable (so unhashable) arrival generator."""

    instants: List[float]

    def times(self, horizon_s):
        return tuple(t for t in self.instants if t < horizon_s)


class TestStreamMemo:
    def test_equal_workloads_share_one_materialisation(self):
        a, b = workload(), workload()
        assert a is not b and a == b
        assert a.requests() is b.requests()

    def test_a_different_seed_does_not(self):
        a = workload()
        other = workload(seed=1)
        assert other.requests() is not a.requests()
        assert other.requests() != workload().requests()

    def test_at_most_one_stream_is_retained(self):
        a, b = workload(), workload(seed=1)
        first = a.requests()
        b.requests()
        again = a.requests()
        assert again == first and again is not first  # evicted by b
        info = spec_module._memoised.cache_info()
        assert info.maxsize == 1 and info.currsize == 1

    def test_an_unhashable_arrival_generator_still_runs(self):
        arrivals = ListArrivals([0.1, 0.2, 0.3])
        w = workload(arrivals=arrivals)
        with pytest.raises(TypeError):
            hash(w)
        assert len(w.requests()) == 3
        arrivals.instants.append(0.4)  # no memo to go stale
        assert len(w.requests()) == 4
        run = run_serving(w)
        assert [r.status for r in run.records] == ["ok"] * 4

    def test_a_warm_memo_is_bit_neutral(self):
        a = workload()
        b = workload(arrivals=PoissonArrivals(60.0, seed=3), seed=4)
        spec_module._memoised.cache_clear()
        cold = run_serving(a, TierDvsPolicy())
        run_serving(a, TierDvsPolicy())
        run_serving(b, TierDvsPolicy())
        warm = run_serving(a, TierDvsPolicy())
        assert warm.records == cold.records
        assert warm.energy_j == cold.energy_j
