"""Lazy nodes against eager ones.

A cluster materialises a node on first touch, cloning the twin that
stands for its group's untouched nodes.  The oracle is the same run on a
cluster whose every node exists before ``prepare`` (``cluster.nodes``
read up front, so no twin stands for anything): energy, delay, every
node's power timeline, ``/proc/stat`` totals and clock, every governor's
decision log, every ``obs`` record and every power counter must come out
bit for bit the same.
"""

import runpy
from pathlib import Path

import pytest

from repro.analysis.runner import run_measured
from repro.dvs.cpuspeed import CpuspeedConfig
from repro.dvs.ondemand import OndemandConfig, OndemandStrategy
from repro.dvs.strategy import CpuspeedStrategy, DynamicStrategy, StaticStrategy
from repro.hardware.cluster import Cluster
from repro.obs.export import power_counter_records
from repro.obs.tracer import Tracer, tracing
from repro.workloads.nas_ft import NasFT

from tests.hardware.test_spec_equivalence import SPEC_1024

EXAMPLE = runpy.run_path(
    str(Path(__file__).parents[2] / "examples" / "custom_dvs_strategy.py")
)
INTERVAL = 0.005
RANKS = 8
#: an idle node in the middle of the 8 nm group (ids 512-767)
IDLE_8NM = 600

STRATEGIES = {
    "stat": lambda: StaticStrategy(1.0e9),
    "dyn": lambda: DynamicStrategy(1.0e9, regions=["fft"]),
    "cpuspeed": lambda: CpuspeedStrategy(CpuspeedConfig(interval=INTERVAL)),
    "ondemand": lambda: OndemandStrategy(OndemandConfig(interval=INTERVAL)),
    "history": lambda: EXAMPLE["HistoryStrategy"](
        EXAMPLE["HistoryConfig"](interval=INTERVAL, window=3)
    ),
}


def _run(strategy, eager, setup=None):
    def factory():
        cluster = Cluster.from_spec(SPEC_1024)
        if eager:
            cluster.nodes
        if setup is not None:
            setup(cluster)
        return cluster

    return run_measured(
        NasFT("S", n_ranks=RANKS, iterations=1),
        STRATEGIES[strategy](),
        cluster_factory=factory,
    )


def _observed(run):
    """Everything a run leaves behind, node by node (materialises all)."""
    nodes = run.cluster.nodes
    observed = {
        "point": (run.point.energy, run.point.delay),
        "segments": [node.timeline.segments() for node in nodes],
        "procstat": [node.procstat.snapshot() for node in nodes],
        "clock": [
            (node.cpu.frequency, node.cpu.transition_count) for node in nodes
        ],
    }
    governors = getattr(run.strategy, "governors", None)
    if governors is not None:
        assert len(governors) == len(nodes)
        assert [g.node for g in governors] == nodes
        observed["decisions"] = [governor.decisions for governor in governors]
    return observed


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_lazy_run_matches_the_eager_run(strategy):
    lazy = _run(strategy, eager=False)
    assert lazy.cluster.touched_nodes == tuple(range(RANKS))
    assert _observed(lazy) == _observed(_run(strategy, eager=True))


def _crash_idle_node(cluster):
    """Crash an idle 8 nm node mid-run and reboot it a little later."""
    engine = cluster.engine

    def crash():
        yield engine.timeout(2.5 * INTERVAL)
        cpu = cluster.node(IDLE_8NM).cpu
        cpu.enable_power_gating()
        cpu.power_off()
        yield engine.timeout(2 * INTERVAL)
        cpu.power_on()

    engine.process(crash(), name="crash-idle-node")


def test_a_node_touched_mid_run_splits_its_twin_exactly():
    lazy = _run("cpuspeed", eager=False, setup=_crash_idle_node)
    assert lazy.cluster.touched_nodes == tuple(range(RANKS)) + (IDLE_8NM,)
    # the 8 nm group's twin split around the crashed node
    twins = [m for m in lazy.cluster.members() if lazy.cluster.is_twin(m)]
    assert [(t.stands_for.start, t.stands_for.stop) for t in twins] == [
        (RANKS, 256), (256, 512), (512, IDLE_8NM), (IDLE_8NM + 1, 768),
        (768, 1024),
    ]
    eager = _run("cpuspeed", eager=True, setup=_crash_idle_node)
    crashed = eager.cluster.node(IDLE_8NM).timeline.segments()
    assert 0.0 in [watts for _, watts in crashed]
    assert _observed(lazy) == _observed(eager)


def _traced(strategy, eager):
    tracer = Tracer(capacity=1 << 20)
    with tracing(tracer):
        run = _run(strategy, eager, setup=_crash_idle_node)
    assert tracer.dropped == 0
    return (
        power_counter_records(run.cluster),
        tracer.instants,
        tracer.counters,
        tracer.spans,
    )


@pytest.mark.parametrize("strategy", ["cpuspeed", "stat"])
def test_traced_lazy_run_emits_the_eager_records(strategy):
    lazy = _traced(strategy, eager=False)
    eager = _traced(strategy, eager=True)
    power, instants = lazy[0], lazy[1]
    # every node, idle ones included, has a power track; every idle one
    # a DVS transition
    assert {r.track for r in power} == set(range(1024))
    assert {i.track for i in instants if i.name == "transition"} >= set(
        range(RANKS, 1024)
    )
    assert lazy == eager
