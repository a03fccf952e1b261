"""Unit tests for the invariant monitor and the window guards.

The monitor checks node-over-ceiling from a position list of ``(node
id, cpu, cpufreq)`` built at construction.  It must record exactly the
violations of :class:`~tests.oracles.DictMonitorWalk`, which builds a
dict of powered clocks and a dict of ceilings every window: same kinds,
details, times and node order.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.dvs.capped import CappedCpuFreq
from repro.hardware.cluster import Cluster
from repro.hardware.spec import ClusterSpec
from repro.powercap import InvariantMonitor, PowerBudget
from repro.powercap.governor import GovernorWindow
from repro.util.units import MHZ

from tests.oracles import DictMonitorWalk

BUDGET = PowerBudget(cluster_watts=100.0, tolerance=0.05)  # limit 105 W
N_NODES = 3


def window(
    avg: float,
    predicted: float = 90.0,
    feasible: bool = True,
    frequencies=None,
    t1: float = 0.25,
) -> GovernorWindow:
    return GovernorWindow(
        t0=0.0,
        t1=t1,
        cluster_avg_watts=avg,
        compliant=BUDGET.complies(avg),
        frequencies=frequencies or {0: 1.0e9},
        predicted_watts=predicted,
        feasible=feasible,
    )


class Rig:
    """A cluster whose nodes start at 1000 MHz under a 1000 MHz ceiling."""

    def __init__(self, n=N_NODES):
        self.cluster = Cluster.from_spec(ClusterSpec.homogeneous(n))
        self.cpufreqs = {}
        for node in self.cluster.nodes:
            node.cpu.enable_power_gating()
            cpufreq = CappedCpuFreq(node, self.cluster.calibration)
            cpufreq.set_ceiling(1000 * MHZ)
            self.cpufreqs[node.node_id] = cpufreq
        self.positions = [
            (nid, cf.node.cpu, cf) for nid, cf in self.cpufreqs.items()
        ]

    def monitor(self, cls=InvariantMonitor, watched=None):
        return cls(
            BUDGET,
            [p for p in self.positions if watched is None or p[0] in watched],
        )

    def run_above(self, nid, mhz=1400):
        """Clock a node above its ceiling, as a reboot at full clock does."""
        cpu = self.cluster.nodes[nid].cpu
        cpu.set_frequency(self.cluster.table.point_for(mhz * MHZ))


def observe(monitor, w, **kwargs):
    return monitor.observe_window(w, target_watts=95.0, **kwargs)


class TestWindowOverBudget:
    def test_within_limit_is_silent(self):
        monitor = Rig().monitor()
        found = observe(monitor, window(avg=104.9))  # inside the band
        assert found == []
        assert monitor.count == 0

    def test_over_limit_is_recorded(self):
        monitor = Rig().monitor()
        found = observe(monitor, window(avg=106.0))
        assert [v.kind for v in found] == [monitor.WINDOW_OVER_BUDGET]
        assert monitor.count_of(monitor.WINDOW_OVER_BUDGET) == 1


class TestNodeOverCeiling:
    def test_node_running_above_its_ceiling_is_recorded(self):
        rig = Rig()
        rig.cpufreqs[1].set_speed_now(600 * MHZ)
        rig.run_above(0)
        monitor = rig.monitor()
        found = observe(monitor, window(avg=90.0))
        assert [v.kind for v in found] == [monitor.NODE_OVER_CEILING]
        assert found[0].node_id == 0
        assert found[0].detail == "running 1400 MHz above ceiling 1000 MHz"

    def test_node_without_a_known_ceiling_is_skipped(self):
        rig = Rig()
        rig.run_above(2)
        monitor = rig.monitor(watched={0, 1})
        observe(monitor, window(avg=90.0))
        assert monitor.count == 0

    def test_an_unpowered_node_is_skipped(self):
        rig = Rig()
        rig.run_above(1)
        rig.cluster.nodes[1].cpu.power_off()
        monitor = rig.monitor()
        assert observe(monitor, window(avg=90.0)) == []

    def test_a_stuck_node_stays_over_its_lowered_ceiling(self):
        rig = Rig()
        rig.cluster.nodes[2].cpu.dvfs_stuck = True
        rig.cpufreqs[2].set_ceiling(600 * MHZ)  # the switch is refused
        monitor = rig.monitor()
        found = observe(monitor, window(avg=90.0))
        assert [(v.node_id, v.detail) for v in found] == [
            (2, "running 1000 MHz above ceiling 600 MHz")
        ]

    def test_nodes_are_reported_in_node_id_order(self):
        rig = Rig()
        for nid in (2, 0):
            rig.run_above(nid)
        found = observe(rig.monitor(), window(avg=90.0))
        assert [v.node_id for v in found] == [0, 2]


class TestAllocationOverTarget:
    def test_feasible_claim_above_target_is_a_policy_bug(self):
        monitor = Rig().monitor()
        found = observe(
            monitor, window(avg=90.0, predicted=96.0, feasible=True)
        )
        assert [v.kind for v in found] == [monitor.ALLOCATION_OVER_TARGET]

    def test_declared_infeasible_overshoot_is_honest(self):
        monitor = Rig().monitor()
        observe(monitor, window(avg=90.0, predicted=200.0, feasible=False))
        assert monitor.count == 0

    def test_unallocated_windows_skip_the_check(self):
        # The trailing partial window carries no policy allocation.
        monitor = Rig().monitor()
        observe(
            monitor,
            window(avg=90.0, predicted=200.0, feasible=True),
            allocated=False,
        )
        assert monitor.count == 0


class TestRecord:
    def test_after_filters_strictly(self):
        monitor = Rig().monitor()
        observe(monitor, window(avg=106.0))  # violation at t1=0.25
        assert len(monitor.after(0.0)) == 1
        assert monitor.after(0.25) == ()

    def test_violations_accumulate_across_windows(self):
        monitor = Rig().monitor()
        observe(monitor, window(avg=106.0))
        observe(monitor, window(avg=107.0))
        assert monitor.count == 2


node_states = st.tuples(
    st.integers(min_value=0, max_value=4),  # ceiling ladder index
    st.integers(min_value=0, max_value=4),  # clock ladder index
    st.booleans(),  # powered
)

windows = st.tuples(
    st.sampled_from([50.0, 104.9, 105.0, 105.2, 130.0]),  # measured avg
    st.sampled_from([80.0, 95.0, 95.1, 140.0]),  # predicted
    st.booleans(),  # feasible
    st.booleans(),  # allocated
    st.lists(node_states, min_size=N_NODES, max_size=N_NODES),
)


@given(rounds=st.lists(windows, min_size=1, max_size=5))
# One window with every kind: over budget, over target, node 1 above
# its ceiling, node 2 above but unpowered.
@example(
    rounds=[(130.0, 140.0, True, True, [(4, 4, True), (0, 4, True), (0, 4, False)])]
)
# No breach anywhere.
@example(rounds=[(50.0, 80.0, True, True, [(4, 2, True)] * N_NODES)])
@settings(max_examples=150, deadline=None)
def test_the_position_list_records_what_the_dict_check_records(rounds):
    rig = Rig()
    table = rig.cluster.table
    monitor = rig.monitor()
    walk = rig.monitor(DictMonitorWalk)
    for i, (avg, predicted, feasible, allocated, states) in enumerate(rounds):
        for nid, (ceiling, clock, powered) in enumerate(states):
            cpu = rig.cluster.nodes[nid].cpu
            cpu.power_on()
            rig.cpufreqs[nid].set_ceiling(table[ceiling].frequency)
            cpu.set_frequency(table[clock])  # past the ceiling, as a reboot
            if not powered:
                cpu.power_off()
        w = window(avg, predicted, feasible, t1=0.25 * (i + 1))
        found = observe(monitor, w, allocated=allocated)
        assert found == observe(walk, w, allocated=allocated)
    assert monitor.violations == walk.violations


class TestGovernorWindowGuards:
    def test_backwards_window_rejected(self):
        with pytest.raises(ValueError, match="ends before it starts"):
            GovernorWindow(
                t0=1.0,
                t1=0.5,
                cluster_avg_watts=0.0,
                compliant=True,
                frequencies={},
                predicted_watts=0.0,
                feasible=True,
            )

    def test_duration_never_negative(self):
        w = window(avg=50.0)
        assert w.duration == pytest.approx(0.25)
