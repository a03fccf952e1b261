"""The per-ladder power rows against the power model's formula.

``CpuPowerModel.rows`` holds, per ladder position, the watts of every
activity state, and a node reads its draw from them on every CPU flip.
The formula (``tests/oracles.py``) evaluates the same expressions on
every call, so each row entry, and every power level a node records,
must compare ``==`` with it: for the paper's ladder and for every
technology-scaled ladder a ``ClusterSpec`` group can build.
"""

import itertools
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.hardware.activity import CpuActivity
from repro.hardware.calibration import DEFAULT_CALIBRATION
from repro.hardware.cluster import Cluster
from repro.hardware.dvfs import PENTIUM_M_1400, OperatingPoint
from repro.hardware.node import Node
from repro.hardware.power import DEFAULT_FACTORS, ActivityFactors, CpuPowerModel
from repro.hardware.procstat import ProcStat, ProcStatSample
from repro.hardware.scaling import (
    CORE_KINDS,
    PROJECTIONS,
    TECH_SIZES_NM,
    scaled_calibration,
    tech_node,
)
from repro.hardware.spec import ClusterSpec, NodeSpec

from tests.oracles import ProcStatWalk, node_power, node_watts, state_power


def _buildable_groups():
    groups = []
    for nm, projection, core in itertools.product(
        TECH_SIZES_NM, PROJECTIONS, CORE_KINDS.values()
    ):
        group = NodeSpec(count=2, tech=tech_node(nm, projection), core=core)
        try:
            group.ladder()
        except ValueError:  # the generation cannot sustain the ladder
            continue
        groups.append(group)
    return groups


GROUPS = _buildable_groups()


def _group_model(group):
    ladder = group.ladder()
    cal = scaled_calibration(DEFAULT_CALIBRATION, group.tech, group.core)
    return ladder, cal.node_power_model(ladder)


def test_groups_cover_scaled_ladders():
    ladders = {tuple(group.ladder().points) for group in GROUPS}
    assert len(GROUPS) > 12
    assert len(ladders) > 12
    assert any(len(group.ladder()) < len(PENTIUM_M_1400) for group in GROUPS)


@pytest.mark.parametrize(
    "group", [NodeSpec(count=1)] + GROUPS, ids=lambda g: f"{g.tech.label}-{g.core.name}"
)
def test_every_row_entry_is_the_formula(group):
    ladder, model = _group_model(group)
    cpu = model.cpu
    assert len(cpu.rows) == len(ladder)
    for index, point in enumerate(ladder):
        row = cpu.rows[index]
        assert len(row) == len(CpuActivity)
        for state in CpuActivity:
            assert row[state.index] == state_power(cpu, point, state)


def test_default_group_reads_the_paper_ladder():
    ladder, model = _group_model(NodeSpec(count=1))
    assert ladder is PENTIUM_M_1400
    assert model.cpu.rows[-1][CpuActivity.ACTIVE.index] == 21.0


def test_relative_terms_match_the_formula_on_and_off_the_ladder():
    table = PENTIUM_M_1400
    fastest = table.fastest
    for point in table:
        assert table.relative_fv2(point) == point.fv2() / fastest.fv2()
        assert table.relative_v2(point) == (point.voltage / fastest.voltage) ** 2
    # an equal copy of a ladder point reads its position
    copy = OperatingPoint(fastest.frequency, fastest.voltage)
    assert table.relative_fv2(copy) == 1.0
    # a ladder frequency at another voltage, and an unknown frequency,
    # evaluate the expression directly
    for point in (
        OperatingPoint(fastest.frequency, 1.3),
        OperatingPoint(900e6, 1.2),
    ):
        assert table.relative_fv2(point) == point.fv2() / fastest.fv2()
        assert table.relative_v2(point) == (point.voltage / fastest.voltage) ** 2


def test_power_rejects_points_off_the_ladder():
    model = DEFAULT_CALIBRATION.node_power_model(PENTIUM_M_1400)
    fastest = PENTIUM_M_1400.fastest
    for point in (
        OperatingPoint(fastest.frequency, 1.3),
        OperatingPoint(900e6, 1.2),
    ):
        with pytest.raises(KeyError):
            model.power(point, CpuActivity.ACTIVE)
        with pytest.raises(KeyError):
            model.cpu.power(point, CpuActivity.ACTIVE)
    # an equal copy is the ladder point
    copy = OperatingPoint(fastest.frequency, fastest.voltage)
    assert model.power(copy, CpuActivity.SPIN) == model.power(
        fastest, CpuActivity.SPIN
    )


def test_node_rejects_a_power_model_of_another_ladder():
    ladder, model = _group_model(GROUPS[-1])
    cluster = Cluster.from_spec(ClusterSpec((NodeSpec(count=1),)))
    node = cluster.node(0)
    with pytest.raises(ValueError, match="another DVFS ladder"):
        Node(cluster.engine, 0, PENTIUM_M_1400, model, node.memory)


# -- the rows' inputs are read-only, so no row goes stale ---------------


def _all_watts(model):
    return [
        model.power(point, state, 0.4, floor=floor)
        for point in model.table
        for state in CpuActivity
        for floor in CpuActivity
    ]


def test_cpu_model_inputs_cannot_be_reassigned():
    model = CpuPowerModel(PENTIUM_M_1400, max_power=21.0)
    before = _all_watts(model)
    for name, value in (
        ("max_power", 30.0),
        ("factors", ActivityFactors({s: 1.0 for s in CpuActivity})),
        ("table", GROUPS[-1].ladder()),
    ):
        with pytest.raises(AttributeError):
            setattr(model, name, value)
    assert _all_watts(model) == before


def test_editing_the_callers_factor_dict_changes_no_model():
    given_factors = dict(DEFAULT_FACTORS)
    factors = ActivityFactors(given_factors)
    model = CpuPowerModel(PENTIUM_M_1400, factors=factors)
    before = _all_watts(model)
    given_factors[CpuActivity.SPIN] = 1.0
    assert factors[CpuActivity.SPIN] == DEFAULT_FACTORS[CpuActivity.SPIN]
    with pytest.raises(TypeError):
        factors.factors[CpuActivity.SPIN] = 1.0
    assert _all_watts(model) == before
    # still a plain value: equal to, and pickled as, the mapping it copies
    assert factors == ActivityFactors(dict(DEFAULT_FACTORS))
    assert pickle.loads(pickle.dumps(factors)) == factors


def test_procstat_spin_flag_cannot_be_reassigned():
    stat = ProcStat(spin_counts_busy=False)
    with pytest.raises(AttributeError):
        stat.spin_counts_busy = True
    stat.account(1.0, CpuActivity.SPIN)
    assert stat.snapshot() == ProcStatSample(busy=0.0, idle=1.0)


# -- breakdown describes the node's real draw ----------------------------


@pytest.mark.parametrize(
    "state, utilization, floor, core_fraction",
    [
        (CpuActivity.PROTO, 0.4, CpuActivity.SPIN, 1.0),
        (CpuActivity.ACTIVE, 1.0, CpuActivity.IDLE, 0.5),
        (CpuActivity.PROTO, 0.4, CpuActivity.SPIN, 0.5),
        (CpuActivity.MEMSTALL, 0.7, CpuActivity.IDLE, 1.0),
    ],
)
@pytest.mark.parametrize("nic_active", [False, True])
def test_breakdown_sums_to_power(state, utilization, floor, core_fraction, nic_active):
    model = DEFAULT_CALIBRATION.node_power_model(PENTIUM_M_1400)
    for point in PENTIUM_M_1400:
        args = (point, state, utilization, nic_active, floor, core_fraction)
        parts = model.breakdown(*args)
        total = 0.0  # the model's own left fold; sum() compensates on 3.12+
        for watts in parts.values():
            total += watts
        assert total == model.power(*args) == node_power(model, *args)


# -- one node driven through random flips ------------------------------

ACTIVITIES = st.sampled_from(list(CpuActivity))
UTILIZATIONS = st.one_of(
    st.sampled_from([0.0, 0.4, 1.0]), st.floats(0.0, 1.0, allow_nan=False)
)
STEPS = st.one_of(
    st.tuples(st.just("state"), ACTIVITIES, UTILIZATIONS, ACTIVITIES),
    st.tuples(st.just("freq"), st.integers(0, 4)),
    st.tuples(st.just("cores"), st.sampled_from([0.25, 0.5, 0.75, 1.0])),
    st.tuples(st.just("nic"), st.booleans()),
    st.tuples(st.just("suspend")),
    st.tuples(st.just("power_off")),
    st.tuples(st.just("power_on"), st.one_of(st.none(), st.integers(0, 4))),
    st.tuples(st.just("clone")),
)
DELAYS = st.sampled_from([0.0, 0.0, 1e-3, 0.37, 2.5])


def _observed(node):
    cpu = node.cpu
    return (
        cpu.state,
        cpu.utilization,
        cpu.floor,
        cpu.frequency,
        cpu.core_allocation,
        cpu.powered,
    )


def _apply(node, step):
    kind = step[0]
    cpu = node.cpu
    ladder = node.table
    if kind == "state":
        cpu.set_state(step[1], step[2], step[3])
    elif kind == "freq":
        cpu.set_frequency(ladder[step[1] % len(ladder)])
    elif kind == "cores":
        cpu.set_core_allocation(step[1])
    elif kind == "nic":
        node.set_nic_active(step[1])
    elif kind == "suspend":
        cpu.suspend()
    elif kind == "power_off":
        cpu.power_off()
    elif kind == "power_on":
        boot = None if step[1] is None else ladder[step[1] % len(ladder)]
        cpu.power_on(boot)
    else:
        return node.clone(node.node_id + 1)
    return node


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([NodeSpec(count=2)] + GROUPS),
    st.booleans(),
    st.lists(st.tuples(DELAYS, STEPS), max_size=40),
)
def test_node_draw_and_procstat_follow_the_formula(group, spin_busy, program):
    cal = DEFAULT_CALIBRATION.with_overrides(procstat_spin_is_busy=spin_busy)
    cluster = Cluster.from_spec(ClusterSpec((group,)), calibration=cal)
    engine = cluster.engine
    node = cluster.node(0)
    node.cpu.enable_power_gating()
    walk = ProcStatWalk(spin_counts_busy=spin_busy)
    # the open accounting segment: its start and what it charges
    opened, before = engine.now, _observed(node)

    def check():
        assert node.timeline.segments()[-1][1] == node_watts(node)
        sample = node.procstat.snapshot()
        assert (sample.busy, sample.idle) == (walk.busy, walk.idle)

    check()
    for delay, step in program:
        engine.run(until=engine.now + delay)
        node = _apply(node, step)
        after = _observed(node)
        if after != before:  # the CPU closed its segment
            if engine.now > opened:
                walk.account(engine.now - opened, *before[:3])
            opened, before = engine.now, after
        check()
    engine.run(until=engine.now + 1.0)
    node.finalize()
    walk.account(engine.now - opened, *before[:3])
    check()
