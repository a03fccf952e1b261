"""Extension: 1024-node mixed-generation clusters from a declarative spec.

The spec layer's scale claim: `Cluster.from_spec` builds per-*group*
ladders and power models, so a four-group, 1024-node heterogeneous
machine costs four model constructions; a node no rank touches gets no
fabric link state and no notification events, and the idle nodes of a
group share one frozen power series — so an MPI job runs on it (extra
nodes idle at base power) within budget.

Asserts the structural economy (nodes in one group share table and
power-model objects; after the run only the ranked endpoints hold
fabric state and each group's idle nodes share one frozen series) and
the wall-clock budget for construct + run.
"""

import time

from benchmarks._harness import run_once
from repro.analysis.runner import run_measured
from repro.dvs.strategy import StaticStrategy
from repro.hardware.cluster import Cluster
from repro.hardware.scaling import CORE_IO, tech_node
from repro.hardware.spec import ClusterSpec, NodeSpec
from repro.workloads.nas_ft import NasFT

N_NODES = 1024
N_RANKS = 16

SPEC = ClusterSpec(
    groups=(
        NodeSpec(count=256),                                       # 45nm o3
        NodeSpec(count=256, tech=tech_node(22, "itrs")),
        NodeSpec(count=256, tech=tech_node(8, "itrs")),
        NodeSpec(count=256, tech=tech_node(8, "itrs"), core=CORE_IO),
    )
)

#: generous ceilings — the point is "within budget", not a horse race
CONSTRUCT_BUDGET_S = 2.0
RUN_BUDGET_S = 30.0


def bench_extension_scaling_1024_nodes(benchmark):
    assert SPEC.n_nodes == N_NODES

    def construct_and_run():
        t0 = time.perf_counter()
        cluster = Cluster.from_spec(SPEC)
        t_construct = time.perf_counter() - t0

        t0 = time.perf_counter()
        run = run_measured(
            NasFT("S", n_ranks=N_RANKS, iterations=1),
            StaticStrategy(1.4e9),
            spec=SPEC,
        )
        t_run = time.perf_counter() - t0
        return cluster, run, t_construct, t_run

    cluster, run, t_construct, t_run = run_once(benchmark, construct_and_run)

    # per-group model economy: one ladder/power model per group, shared
    # by identity across that group's nodes
    for start in (0, 256, 512, 768):
        group = cluster.nodes[start : start + 256]
        assert all(n.table is group[0].table for n in group)
        assert all(n.power_model is group[0].power_model for n in group)
    assert len({id(n.table) for n in cluster.nodes}) == 4

    # the run really happened on the 1024-node machine
    assert run.cluster.n_nodes == N_NODES
    assert run.point.energy > 0 and run.point.delay > 0

    # idle-node economy: only the ranked endpoints hold fabric state,
    # and each group's idle nodes share one frozen series
    assert run.cluster.fabric.wired_endpoints == tuple(range(N_RANKS))
    series = run.cluster.series()
    for start in (0, 256, 512, 768):
        idle = range(max(start, N_RANKS), start + 256)
        assert len({id(series.node(nid)) for nid in idle}) == 1

    benchmark.extra_info["scaling_1024"] = {
        "nodes": N_NODES,
        "groups": len(SPEC.groups),
        "ranks": N_RANKS,
        "construct_s": round(t_construct, 3),
        "run_s": round(t_run, 3),
    }
    print(
        f"\n1024-node spec ({SPEC.describe()}): "
        f"construct {t_construct:.3f}s, FT.S run {t_run:.3f}s"
    )
    assert t_construct < CONSTRUCT_BUDGET_S, (
        f"construction took {t_construct:.2f}s (budget {CONSTRUCT_BUDGET_S}s)"
    )
    assert t_run < RUN_BUDGET_S, (
        f"run took {t_run:.2f}s (budget {RUN_BUDGET_S}s)"
    )
