"""Unit tests for the cap-allocation policies (synthetic telemetry)."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware import PENTIUM_M_1400
from repro.hardware.dvfs import DVFSTable, OperatingPoint
from repro.powercap import (
    NodeWindowSample,
    SlackRedistributionPolicy,
    UniformCapPolicy,
)
from repro.util.units import MHZ
from tests.oracles import redist_allocate_walk

TABLE = PENTIUM_M_1400
FLOOR = TABLE.slowest
CEILING = TABLE.fastest


def predict(sample, point):
    """A deliberately simple model: busy share × 10 W, linear in f."""
    return 10.0 * sample.busy_fraction * (point.frequency / CEILING.frequency)


def sample(node_id, busy=1.0, frequency=CEILING.frequency):
    return NodeWindowSample(
        node_id=node_id,
        t0=0.0,
        t1=0.25,
        avg_watts=0.0,  # unused: tests inject predict/intensity directly
        busy_fraction=busy,
        frequency=frequency,
    )


def intensities(mapping):
    """An intensity metric backed by a dict."""
    return lambda s: mapping[s.node_id]


class TestUniform:
    def test_picks_highest_common_frequency_that_fits(self):
        samples = [sample(0), sample(1)]
        # Totals: 20.0 at 1400, 17.1 at 1200, 14.3 at 1000.
        allocation = UniformCapPolicy().allocate(
            samples, 15.0, TABLE, FLOOR, CEILING, predict, None
        )
        assert allocation.feasible
        assert set(allocation.frequencies.values()) == {1000 * MHZ}
        assert allocation.predicted_watts == pytest.approx(
            2 * 10.0 * (1000 / 1400)
        )

    def test_no_throttling_when_budget_is_loose(self):
        allocation = UniformCapPolicy().allocate(
            [sample(0), sample(1)], 100.0, TABLE, FLOOR, CEILING, predict,
            None,
        )
        assert set(allocation.frequencies.values()) == {CEILING.frequency}

    def test_respects_a_raised_floor(self):
        floor = TABLE.point_for(1000 * MHZ)
        allocation = UniformCapPolicy().allocate(
            [sample(0), sample(1)], 5.0, TABLE, floor, CEILING, predict, None
        )
        assert set(allocation.frequencies.values()) == {1000 * MHZ}
        assert not allocation.feasible

    def test_infeasible_budget_reports_all_floors(self):
        # Even both-at-600 draws 2 × 10 × (600/1400) = 8.57 W > 5 W.
        allocation = UniformCapPolicy().allocate(
            [sample(0), sample(1)], 5.0, TABLE, FLOOR, CEILING, predict, None
        )
        assert not allocation.feasible
        assert set(allocation.frequencies.values()) == {FLOOR.frequency}


class TestRedistribution:
    def test_strips_the_slack_node_and_keeps_compute_at_ceiling(self):
        metric = intensities({0: 1.0, 1: 0.1})
        policy = SlackRedistributionPolicy()
        # 20.0 at all-ceiling; freeing node 1 to the floor reaches 15.71.
        allocation = policy.allocate(
            [sample(0), sample(1)], 16.0, TABLE, FLOOR, CEILING, predict,
            metric,
        )
        assert allocation.feasible
        assert allocation.frequencies[0] == CEILING.frequency
        assert allocation.frequencies[1] < CEILING.frequency

    def test_slack_is_exhausted_before_compute_pays(self):
        metric = intensities({0: 1.0, 1: 0.1})
        policy = SlackRedistributionPolicy()
        # 14.3 needs node 1 at the floor (20 − 5.71) and nothing more.
        allocation = policy.allocate(
            [sample(0), sample(1)], 14.3, TABLE, FLOOR, CEILING, predict,
            metric,
        )
        assert allocation.frequencies[0] == CEILING.frequency
        assert allocation.frequencies[1] == FLOOR.frequency

    def test_saturated_nodes_spread_the_reduction(self):
        # Two equally compute-bound nodes and a target requiring two
        # notches: both should drop one notch (1200) instead of one node
        # being driven two notches down (1000) while the other idles at
        # the ceiling — the balanced-workload guarantee.
        metric = intensities({0: 1.0, 1: 1.0})
        policy = SlackRedistributionPolicy()
        allocation = policy.allocate(
            [sample(0), sample(1)], 17.2, TABLE, FLOOR, CEILING, predict,
            metric,
        )
        assert allocation.frequencies[0] == 1200 * MHZ
        assert allocation.frequencies[1] == 1200 * MHZ

    def test_matches_uniform_on_a_balanced_cluster(self):
        # With identical saturated nodes the redistribution must never do
        # worse than the uniform baseline at the same target.
        samples = [sample(i) for i in range(4)]
        uniform = UniformCapPolicy().allocate(
            samples, 30.0, TABLE, FLOOR, CEILING, predict, None
        )
        metric = intensities({i: 1.0 for i in range(4)})
        policy = SlackRedistributionPolicy()
        redist = policy.allocate(
            samples, 30.0, TABLE, FLOOR, CEILING, predict, metric
        )
        assert redist.predicted_watts <= 30.0
        assert sum(redist.frequencies.values()) >= sum(
            uniform.frequencies.values()
        )

    def test_infeasible_budget_reports_all_floors(self):
        metric = intensities({0: 1.0, 1: 0.1})
        policy = SlackRedistributionPolicy()
        allocation = policy.allocate(
            [sample(0), sample(1)], 5.0, TABLE, FLOOR, CEILING, predict,
            metric,
        )
        assert not allocation.feasible
        assert set(allocation.frequencies.values()) == {FLOOR.frequency}

    def test_allocation_is_deterministic(self):
        metric = intensities({0: 0.5, 1: 0.5, 2: 0.5})
        policy = SlackRedistributionPolicy()
        samples = [sample(i) for i in range(3)]
        args = (samples, 18.0, TABLE, FLOOR, CEILING, predict, metric)
        first = policy.allocate(*args)
        second = policy.allocate(*args)
        assert first.frequencies == second.frequencies
        assert first.predicted_watts == second.predicted_watts


# -- the incremental greedy against the re-score-everything walk --------

#: intensities drawn from a few shared levels as well as freely, so ties
#: in score (broken by node id) and saturated nodes both occur
_levels = st.sampled_from([0.0, 0.1, 0.5, 0.95, 1.0]) | st.floats(0.0, 1.0)


@st.composite
def windows(draw):
    """A random ladder with floor/ceiling, one window of samples on it
    (node ids unique, in random order) and each sample's intensity."""
    mhz = draw(
        st.lists(st.integers(200, 3000), min_size=1, max_size=7, unique=True)
    )
    table = DVFSTable(
        [OperatingPoint(m * MHZ, 0.8 + m / 3000.0) for m in mhz]
    )
    lo = draw(st.integers(0, len(table) - 1))
    hi = draw(st.integers(lo, len(table) - 1))
    ids = draw(st.lists(st.integers(0, 40), max_size=8, unique=True))
    samples = [
        sample(
            nid,
            busy=draw(st.floats(0.0, 1.0)),
            frequency=table[draw(st.integers(0, len(table) - 1))].frequency,
        )
        for nid in ids
    ]
    level = {nid: draw(_levels) for nid in ids}
    return table, table[lo], table[hi], samples, level


def ladder_predict(s, point):
    """Base watts plus busy-scaled dynamic power in f·V² (convex in f)."""
    return 4.0 + 12.0 * s.busy_fraction * point.fv2() / 3.0e9


def assert_same_allocation(got, want):
    assert list(got.frequencies.items()) == list(want.frequencies.items())
    assert struct.pack("<d", got.predicted_watts) == struct.pack(
        "<d", want.predicted_watts
    )
    assert got.feasible is want.feasible


class TestRedistributionMatchesTheWalk:
    """``allocate`` re-scores only the stepped node; the walk re-scores
    every candidate at every step.  Same frequencies in the same order,
    bitwise the same predicted watts, same feasibility."""

    @given(window=windows(), target=st.floats(-10.0, 120.0))
    @settings(max_examples=300, deadline=None)
    def test_random_windows(self, window, target):
        table, floor, ceiling, samples, level = window
        args = (
            samples, target, table, floor, ceiling, ladder_predict,
            intensities(level),
        )
        policy = SlackRedistributionPolicy()
        assert_same_allocation(
            policy.allocate(*args), redist_allocate_walk(policy, *args)
        )

    @pytest.mark.parametrize(
        "level, target",
        [
            ({0: 0.5, 1: 0.5, 2: 0.55}, 18.0),  # balanced: uniform answer
            ({0: 1.0, 1: 0.1, 2: 0.4}, 5.0),  # infeasible: all floors
            ({0: 1.0, 1: 0.1, 2: 0.4}, 22.0),  # feasible after some steps
            ({0: 1.0, 1: 0.1, 2: 0.4}, 100.0),  # no step at all
            ({}, 10.0),  # empty window
        ],
    )
    def test_named_cases(self, level, target):
        samples = [sample(nid) for nid in level]
        args = (
            samples, target, TABLE, FLOOR, CEILING, predict,
            intensities(level),
        )
        policy = SlackRedistributionPolicy()
        assert_same_allocation(
            policy.allocate(*args), redist_allocate_walk(policy, *args)
        )
