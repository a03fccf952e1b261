"""A control window's per-node pass against its reference walks.

A window reads every node's ``/proc/stat`` counters from position-indexed
state and skips the ceiling chain for a node whose ceiling is in place
and reached.  Both shortcuts must leave every observable exactly as the
full walks in ``tests/oracles.py`` leave it:

* random ``SetFreqCeiling`` sequences (raise, lower, equal, off the
  ladder, ``drive_down``) interleaved with stuck regulators, crashes and
  an inner controller lowering the clock give the same ceiling log,
  ``pending_target``, clock, transition counters and power timeline;
* random CPU segments, zero-length windows and dark nodes give busy
  fractions ``==`` ``ProcStatSample.utilization_since``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dvs.capped import CappedCpuFreq
from repro.hardware.activity import CpuActivity
from repro.hardware.cluster import Cluster
from repro.hardware.spec import ClusterSpec
from repro.powercap import DvfsActuator, SetFreqCeiling
from repro.powercap.telemetry import ClusterTelemetry

from tests.oracles import TelemetryBusyWalk, dvfs_apply_walk

N_NODES = 2
N_POINTS = 5  # the paper's ladder

node_ids = st.integers(min_value=0, max_value=N_NODES - 1)
point_indices = st.integers(min_value=0, max_value=N_POINTS - 1)

ceiling_ops = st.one_of(
    st.tuples(
        st.just("ceiling"),
        node_ids,
        point_indices,
        st.booleans(),  # drive_down
        st.sampled_from([0.0, 0.0, 0.0, 1.0e6]),  # off-ladder offset
    ),
    st.tuples(st.just("stuck"), node_ids, st.booleans()),
    st.tuples(st.just("power"), node_ids),
    st.tuples(st.just("inner"), node_ids, point_indices),
    st.tuples(st.just("advance"), st.sampled_from([0.0, 0.01, 0.25])),
)


class Rig:
    """One cluster with capped setters and a DVFS actuator."""

    def __init__(self, walk: bool):
        self.cluster = Cluster.from_spec(ClusterSpec.homogeneous(N_NODES))
        self.cpufreqs = {
            node.node_id: CappedCpuFreq(node, self.cluster.calibration)
            for node in self.cluster.nodes
        }
        self.pending = {}
        self.actuator = DvfsActuator(self.cpufreqs, self.pending)
        self.walk = walk
        for node in self.cluster.nodes:
            node.cpu.enable_power_gating()

    def run(self, op) -> None:
        kind = op[0]
        table = self.cluster.table
        if kind == "ceiling":
            _, nid, idx, drive_down, offset = op
            action = SetFreqCeiling(
                node_id=nid,
                frequency=table[idx].frequency + offset,
                drive_down=drive_down,
            )
            if self.walk:
                dvfs_apply_walk(self.actuator, action)
            else:
                self.actuator.apply(action)
        elif kind == "stuck":
            self.cluster.nodes[op[1]].cpu.dvfs_stuck = op[2]
        elif kind == "power":
            cpu = self.cluster.nodes[op[1]].cpu
            if cpu.powered:
                cpu.power_off()
            else:
                cpu.power_on()  # boots at the fastest point
        elif kind == "inner":
            # An inner controller's request, clamped at the ceiling.
            self.cpufreqs[op[1]].set_speed_now(table[op[2]].frequency)
        else:
            engine = self.cluster.engine
            engine.run(until=engine.now + op[1])

    def observed(self):
        return {
            "pending": dict(self.pending),
            "nodes": [
                (
                    self.cpufreqs[node.node_id].ceiling_changes,
                    node.cpu.frequency,
                    node.cpu.transition_count,
                    node.cpu.refused_transitions,
                    node.timeline.segments(),
                )
                for node in self.cluster.nodes
            ],
        }


@given(ops=st.lists(ceiling_ops, max_size=40))
@settings(max_examples=200, deadline=None)
def test_dvfs_apply_matches_the_full_chain(ops):
    fast, walk = Rig(walk=False), Rig(walk=True)
    for op in ops:
        fast.run(op)
        walk.run(op)
        assert fast.observed() == walk.observed()


def test_an_unchanged_reached_ceiling_touches_nothing_but_the_books():
    rig = Rig(walk=False)
    top = rig.cluster.table.fastest.frequency
    cpu = rig.cluster.nodes[0].cpu
    rig.actuator.apply(SetFreqCeiling(node_id=0, frequency=top))
    assert rig.pending == {0: top}
    assert rig.cpufreqs[0].ceiling_changes == [(0.0, top)]
    assert cpu.transition_count == 0 and cpu.refused_transitions == 0


def test_an_unchanged_ceiling_still_drives_a_lowered_clock_up():
    rig = Rig(walk=False)
    table = rig.cluster.table
    cpu = rig.cluster.nodes[0].cpu
    rig.cpufreqs[0].set_speed_now(table.slowest.frequency)
    rig.actuator.apply(SetFreqCeiling(node_id=0, frequency=table.fastest.frequency))
    assert cpu.frequency == table.fastest.frequency


def test_drive_down_still_contains_a_clock_above_an_unchanged_ceiling():
    rig = Rig(walk=False)
    table = rig.cluster.table
    cpu = rig.cluster.nodes[0].cpu
    floor = table.slowest.frequency
    rig.actuator.apply(SetFreqCeiling(node_id=0, frequency=floor))
    cpu.power_off()
    cpu.power_on()  # reboots at full clock under the floor ceiling
    assert cpu.frequency == table.fastest.frequency
    rig.actuator.apply(SetFreqCeiling(node_id=0, frequency=floor, drive_down=True))
    assert cpu.frequency == floor


cpu_ops = st.one_of(
    st.tuples(
        st.just("state"),
        node_ids,
        st.sampled_from(list(CpuActivity)),
        st.floats(min_value=0.0, max_value=1.0),
        st.sampled_from([CpuActivity.IDLE, CpuActivity.SPIN]),
    ),
    st.tuples(st.just("dark"), node_ids, st.booleans()),
    st.tuples(st.just("power"), node_ids),
    st.tuples(st.just("advance"), st.sampled_from([0.0, 1e-9, 0.003, 0.02, 0.25])),
    st.tuples(st.just("window")),
)


@given(ops=st.lists(cpu_ops, max_size=60))
@settings(max_examples=200, deadline=None)
def test_telemetry_busy_fractions_match_procstat_snapshots(ops):
    cluster = Cluster.from_spec(ClusterSpec.homogeneous(N_NODES))
    for node in cluster.nodes:
        node.cpu.enable_power_gating()
    telemetry = ClusterTelemetry(cluster)
    walk = TelemetryBusyWalk(cluster)
    engine = cluster.engine
    for op in ops + [("window",)]:
        kind = op[0]
        if kind == "state":
            _, nid, state, utilization, floor = op
            cluster.nodes[nid].cpu.set_state(state, utilization, floor)
        elif kind == "dark":
            cluster.nodes[op[1]].faults.telemetry_dark = op[2]
        elif kind == "power":
            cpu = cluster.nodes[op[1]].cpu
            if cpu.powered:
                cpu.power_off()
            else:
                cpu.power_on()
        elif kind == "advance":
            engine.run(until=engine.now + op[1])
        else:
            samples = telemetry.sample()
            got = {s.node_id: s.busy_fraction for s in samples}
            assert got == walk.sample()
            for s in samples:
                assert s.frequency == cluster.nodes[s.node_id].cpu.frequency
