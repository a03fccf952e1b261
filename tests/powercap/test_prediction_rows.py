"""The governor's prediction rows against the telemetry model.

Each control window the governor evaluates every sample's prediction
once, at every ladder point, as one row; ``_predict`` is a lookup.  The
row must equal, bit for bit, what the telemetry functions give:
``max(predict_node_power(...), demand_power(...))`` under the demand
high-water marks folded so far.  This holds for the window's own
samples and for the samples the hardened path invents or carries: the
worst-case stand-ins, a sample carried forward from an earlier window
and the initial allocation's synthetic sample.

A second test pins that the governor keeps no sample alive once a run
is dropped.
"""

import gc
import weakref

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.runner import run_measured
from repro.hardware.activity import CpuActivity
from repro.hardware.cluster import Cluster
from repro.hardware.dvfs import OperatingPoint
from repro.hardware.spec import ClusterSpec
from repro.powercap import (
    CapGovernor,
    CapGovernorConfig,
    NodeWindowSample,
    PowerBudget,
    PowerCapStrategy,
    SlackRedistributionPolicy,
    compute_intensity,
)
from repro.powercap.telemetry import demand_power, predict_node_power
from repro.workloads.imbalanced import ImbalancedMix

N_NODES = 4


def make_governor() -> CapGovernor:
    cluster = Cluster.from_spec(ClusterSpec.homogeneous(N_NODES))
    return CapGovernor(cluster, PowerBudget(cluster_watts=60.0 * N_NODES))


class Oracle:
    """The demand fold and prediction, straight from the telemetry model."""

    def __init__(self, governor: CapGovernor):
        self.model = governor._model
        self.table = governor._table
        self.decay = governor.config.demand_decay
        self.demand = {}

    def observe(self, samples):
        for s in samples:
            measured = compute_intensity(self.model, self.table, s)
            prev = self.demand.get(s.node_id, 1.0)
            self.demand[s.node_id] = max(measured, self.decay * prev)

    def predict(self, sample, point) -> float:
        spin = self.model.cpu.factors[CpuActivity.SPIN]
        demand = max(self.demand.get(sample.node_id, 1.0), spin)
        return max(
            predict_node_power(self.model, self.table, sample, point),
            demand_power(self.model, self.table, demand, point),
        )


def points_of(table):
    """Every ladder point three ways: the ladder's own object, the
    ``point_for`` lookup and a value-equal copy that is not the ladder's
    object."""
    for point in table:
        yield point
        yield table.point_for(point.frequency)
        yield OperatingPoint(point.frequency, point.voltage)


def assert_rows_match(governor, oracle, samples):
    for sample in samples:
        for point in points_of(governor._table):
            assert governor._predict(sample, point) == oracle.predict(
                sample, point
            )


node_windows = st.lists(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=N_NODES - 1),
            st.floats(min_value=0.0, max_value=1.0),  # busy fraction
            st.floats(min_value=0.0, max_value=60.0),  # avg watts
            st.integers(min_value=0, max_value=4),  # frequency index
        ),
        max_size=N_NODES,
        unique_by=lambda row: row[0],
    ),
    min_size=1,
    max_size=6,
)


@given(history=node_windows)
@settings(max_examples=60, deadline=None)
def test_rows_equal_the_telemetry_model(history):
    governor = make_governor()
    oracle = Oracle(governor)
    table = governor._table
    initial = governor._initial_allocation()
    assert initial.predicted_watts > 0.0
    last = {}
    for k, rows in enumerate(history):
        t0, t1 = 0.25 * k, 0.25 * (k + 1)
        samples = [
            NodeWindowSample(nid, t0, t1, watts, busy, table[idx].frequency)
            for nid, busy, watts, idx in rows
        ]
        governor._observe_demand(samples)
        oracle.observe(samples)
        assert_rows_match(governor, oracle, samples)
        # The hardened path's stand-ins, for nodes this window missed,
        # interleaved on one node so a row is replaced and rebuilt.
        present = {s.node_id for s in samples}
        for nid in range(N_NODES):
            if nid in present:
                continue
            worst = governor._worst_case_sample(nid, t0, t1)
            carried = last.get(nid)
            stand_ins = [worst] if carried is None else [carried, worst, carried]
            assert_rows_match(governor, oracle, stand_ins)
        last.update((s.node_id, s) for s in samples)


def test_initial_allocation_predicts_worst_case():
    governor = make_governor()
    oracle = Oracle(governor)
    allocation = governor._initial_allocation()
    point = governor._table.point_for(
        next(iter(allocation.frequencies.values()))
    )
    worst = NodeWindowSample(
        -1,
        0.0,
        0.0,
        governor._model.power(point, state=CpuActivity.ACTIVE, utilization=1.0),
        1.0,
        point.frequency,
    )
    assert allocation.predicted_watts == N_NODES * oracle.predict(worst, point)


def test_dropped_run_frees_its_window_samples():
    """No prediction cache outlives the governor that built it."""
    refs = []

    class Recording(SlackRedistributionPolicy):
        def allocate(self, samples, *args):
            refs.extend(weakref.ref(s) for s in samples)
            return super().allocate(samples, *args)

    def capped_run():
        strategy = PowerCapStrategy(
            PowerBudget(cluster_watts=150.0),
            policy=Recording(),
            config=CapGovernorConfig(interval=0.25),
        )
        run_measured(ImbalancedMix(n_ranks=8), strategy)

    capped_run()
    gc.collect()
    assert refs, "the policy never saw a window"
    assert all(ref() is None for ref in refs)
