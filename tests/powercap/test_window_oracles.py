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
  fractions ``==`` ``ProcStatSample.utilization_since``;
* a governor that carries an unchanged node's prediction row and an
  unchanged window's plan applies the same plans, and leaves the same
  windows, repairs, monitor violations, ceiling logs and power timelines,
  as :class:`~tests.oracles.ReplanWalk`, which carries nothing.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.powercap.strategy as strategy_module
from repro.analysis.runner import run_measured
from repro.dvs.capped import CappedCpuFreq
from repro.faults import (
    DvfsStuck,
    FaultInjector,
    FaultPlan,
    NodeCrash,
    TelemetryDropout,
    TelemetryNoise,
)
from repro.hardware.activity import CpuActivity
from repro.hardware.cluster import Cluster
from repro.hardware.spec import ClusterSpec
from repro.powercap import (
    CapGovernor,
    CapGovernorConfig,
    DvfsActuator,
    ElasticPolicy,
    GateNode,
    GovernorPlan,
    NodeWindowSample,
    PowerBudget,
    PowerCapStrategy,
    ResilienceConfig,
    SetCoreAllocation,
    SetFreqCeiling,
    SlackRedistributionPolicy,
    UniformCapPolicy,
    WakeNode,
)
from repro.powercap.telemetry import ClusterTelemetry
from repro.workloads.synthetic import SyntheticMix

from tests.oracles import ReplanWalk, TelemetryBusyWalk, dvfs_apply_walk

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


# ---------------------------------------------------------------------------
# carried rows and plans against the replan walk
# ---------------------------------------------------------------------------


def make_policy(name: str):
    if name == "uniform":
        return UniformCapPolicy()
    if name == "redist":
        return SlackRedistributionPolicy()
    inner = UniformCapPolicy() if name == "elastic/uniform" else None
    return ElasticPolicy(inner=inner, wake_fraction=1.0)


POLICIES = ("uniform", "redist", "elastic", "elastic/uniform")


def recorded(cls):
    """``cls`` with every plan it applies kept in ``plans``."""

    class Recorded(cls):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.plans = []

        def _apply_plan(self, plan):
            self.plans.append(plan)
            super()._apply_plan(plan)

    return Recorded


OPEN_NODES = 4
open_node_ids = st.integers(min_value=0, max_value=OPEN_NODES - 1)

# Few distinct values, so that windows repeat node inputs as often as
# steady phases of a real run do.
window_rows = st.lists(
    st.tuples(
        open_node_ids,
        st.sampled_from([0.0, 0.5, 1.0]),  # busy fraction
        st.sampled_from([9.5, 14.0, 20.0, 29.0]),  # avg watts
        st.sampled_from([0, 2, 4]),  # ladder index
    ),
    max_size=OPEN_NODES,
    unique_by=lambda row: row[0],
)

open_ops = st.one_of(
    st.tuples(st.just("window"), window_rows),
    st.tuples(st.just("repeat"), st.integers(min_value=1, max_value=4)),
    st.tuples(st.just("cores"), open_node_ids, st.sampled_from([0.25, 0.5, 1.0])),
    st.tuples(st.just("gate"), open_node_ids),
    st.tuples(st.just("wake"), open_node_ids),
    st.tuples(st.just("advance"), st.sampled_from([0.1, 0.6])),
    st.tuples(st.just("protect"), st.frozensets(open_node_ids, max_size=3)),
)


class OpenLoop:
    """A governor fed chosen windows, with gating and core moves between
    them; records its plans, predictions and repairs."""

    def __init__(self, governor_cls, policy, hardened, budget):
        cluster = Cluster.from_spec(ClusterSpec.homogeneous(OPEN_NODES))
        self.governor = recorded(governor_cls)(
            cluster,
            PowerBudget(cluster_watts=budget),
            policy=make_policy(policy),
            resilience=ResilienceConfig() if hardened else None,
        )
        self.rows = []
        self.windows = 0
        self.predictions = []

    def act(self, *actions) -> None:
        self.governor._apply_plan(GovernorPlan(actions, 0.0, True))

    def window(self) -> None:
        governor = self.governor
        table = governor._table
        t0, t1 = 0.25 * self.windows, 0.25 * (self.windows + 1)
        self.windows += 1
        samples = [
            NodeWindowSample(nid, t0, t1, watts, busy, table[idx].frequency)
            for nid, busy, watts, idx in sorted(self.rows)
            if governor.cluster.nodes[nid].telemetry_visible
        ]
        governor._observe_demand(samples)
        self.predictions.append(
            [governor._predict(s, point) for s in samples for point in table]
        )
        governor._apply_plan(governor._plan_window(samples, t0, t1))

    def run(self, op) -> None:
        kind = op[0]
        governor = self.governor
        if kind == "window":
            self.rows = op[1]
            self.window()
        elif kind == "repeat":
            for _ in range(op[1]):
                self.window()
        elif kind == "cores":
            if governor.cluster.nodes[op[1]].cpu.powered:
                self.act(SetCoreAllocation(node_id=op[1], fraction=op[2]))
        elif kind == "gate":
            self.act(GateNode(node_id=op[1]))
        elif kind == "wake":
            self.act(WakeNode(node_id=op[1]))
        elif kind == "advance":
            engine = governor.cluster.engine
            engine.run(until=engine.now + op[1])
        elif isinstance(governor.policy, ElasticPolicy):
            governor.policy.protected = op[1]

    def observed(self):
        governor = self.governor
        return {
            "plans": governor.plans,
            "predictions": self.predictions,
            "repairs": governor.repair_log,
            "gated": governor._gated,
        }


STEADY = [(0, 1.0, 29.0, 4), (1, 0.5, 14.0, 2), (2, 1.0, 20.0, 4)]


@given(
    policy=st.sampled_from(POLICIES),
    hardened=st.booleans(),
    budget=st.sampled_from([20.0, 45.0, 80.0, 120.0]),
    ops=st.lists(open_ops, max_size=30),
)
# Unprotecting every node of a settled window lets the elastic policy
# gate one.
@example(
    policy="elastic",
    hardened=False,
    budget=20.0,
    ops=[("cores", nid, 0.25) for nid in range(3)]
    + [
        ("protect", frozenset({0, 1, 2})),
        ("window", STEADY),
        ("repeat", 4),
        ("protect", frozenset()),
        ("repeat", 1),
    ],
)
# A stuck node's carve-out grows while the allocatable samples repeat:
# only the target tells the windows apart.
@example(
    policy="uniform",
    hardened=True,
    budget=90.0,
    ops=[
        ("window", STEADY + [(3, 1.0, 14.0, 0)]),
        ("repeat", 4),
        ("window", STEADY + [(3, 1.0, 20.0, 4)]),
        ("repeat", 4),
        ("window", STEADY + [(3, 1.0, 29.0, 4)]),
    ],
)
@settings(max_examples=200, deadline=None)
def test_chosen_windows_plan_as_the_replan_walk(policy, hardened, budget, ops):
    """Windows that repeat, decay the demand marks, or differ from the
    last one only in core allocation, gating, a boot in flight, the
    protected set or a carve-out get the plan the walk computes afresh."""
    hardened = hardened and not policy.startswith("elastic")
    fast = OpenLoop(CapGovernor, policy, hardened, budget)
    walk = OpenLoop(ReplanWalk, policy, hardened, budget)
    for op in ops:
        fast.run(op)
        walk.run(op)
        assert fast.observed() == walk.observed()


RANKS = 4
SPARE = 2  # idle nodes past the ranks: the ones an elastic policy gates
INTERVAL = 0.02

faults = st.lists(
    st.one_of(
        st.builds(
            NodeCrash,
            node_id=st.integers(0, RANKS + SPARE - 1),
            at=st.sampled_from([0.05, 0.13, 0.3]),
            downtime=st.sampled_from([0.04, 0.1]),
        ),
        st.builds(
            DvfsStuck,
            node_id=st.integers(0, RANKS + SPARE - 1),
            at=st.sampled_from([0.0, 0.1, 0.21]),
            duration=st.sampled_from([0.06, 0.2]),
        ),
        st.builds(
            TelemetryDropout,
            node_id=st.integers(0, RANKS + SPARE - 1),
            at=st.sampled_from([0.04, 0.17, 0.25]),
            duration=st.sampled_from([0.02, 0.08, 0.2]),
        ),
        st.builds(
            TelemetryNoise,
            node_id=st.integers(0, RANKS + SPARE - 1),
            at=st.sampled_from([0.06, 0.2]),
            duration=st.sampled_from([0.04, 0.12]),
            sigma_watts=st.sampled_from([0.0, 0.5]),
        ),
    ),
    max_size=4,
    unique_by=lambda f: (type(f), f.node_id),
)


def closed_loop(governor_cls, policy, hardened, decay, budget, mix, fault_plan):
    """One faulted capped run: what it leaves behind, and how many times
    the governor asked its policy for a plan."""

    def factory():
        cluster = Cluster.from_spec(ClusterSpec.homogeneous(RANKS + SPARE))
        FaultInjector(cluster, fault_plan).install()
        return cluster

    policy = make_policy(policy)
    if isinstance(policy, ElasticPolicy):
        policy.protected = frozenset(range(RANKS))
    calls = []
    plan = policy.plan

    def counted_plan(ctx):
        calls.append(ctx)
        return plan(ctx)

    policy.plan = counted_plan
    strategy = PowerCapStrategy(
        PowerBudget(cluster_watts=budget),
        policy=policy,
        config=CapGovernorConfig(interval=INTERVAL, demand_decay=decay),
        resilience=ResilienceConfig() if hardened else None,
    )
    workload = SyntheticMix(*mix, iteration_seconds=0.1, iterations=4, n_ranks=RANKS)
    original = strategy_module.CapGovernor
    strategy_module.CapGovernor = recorded(governor_cls)
    try:
        run = run_measured(workload, strategy, cluster_factory=factory)
    finally:
        strategy_module.CapGovernor = original
    governor = strategy.governor
    observed = {
        "point": (run.point.energy, run.point.delay),
        "plans": governor.plans,
        "windows": governor.windows,
        "repairs": governor.repair_log,
        "violations": governor.monitor.violations,
        "ceilings": {
            nid: cf.ceiling_changes for nid, cf in governor.cpufreqs.items()
        },
        "timelines": [node.timeline.segments() for node in run.cluster.nodes],
    }
    return observed, len(calls)


@given(
    policy=st.sampled_from(POLICIES),
    hardened=st.booleans(),
    decay=st.sampled_from([0.0, 0.5, 0.9]),
    budget=st.sampled_from([45.0, 52.0, 62.0, 85.0]),
    mix=st.sampled_from([(1.0, 0.0, 0.0), (0.5, 0.2, 0.3), (0.2, 0.2, 0.6)]),
    fault_plan=st.builds(FaultPlan, faults, seed=st.integers(0, 3)),
)
@settings(max_examples=40, deadline=None)
def test_carried_rows_and_plans_match_the_replan_walk(
    policy, hardened, decay, budget, mix, fault_plan
):
    hardened = hardened and not policy.startswith("elastic")
    args = (policy, hardened, decay, budget, mix, fault_plan)
    fast, _ = closed_loop(CapGovernor, *args)
    walk, _ = closed_loop(ReplanWalk, *args)
    assert fast == walk


def test_a_steady_run_plans_only_when_a_window_changes():
    args = ("redist", False, 0.5, 85.0, (1.0, 0.0, 0.0), FaultPlan())
    fast, fast_plans = closed_loop(CapGovernor, *args)
    walk, walk_plans = closed_loop(ReplanWalk, *args)
    assert fast == walk
    assert walk_plans == len(walk["plans"]) - 1  # all but the initial install
    assert fast_plans < walk_plans / 2
