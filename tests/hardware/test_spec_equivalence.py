"""The spec layer's contract: a single-group :class:`ClusterSpec` built
through a cluster factory and passed as ``spec=`` produces bit-identical
outputs, ``Cluster.from_spec`` keeps its options keyword-only, and the
1024-node mixed-generation machine keeps its pinned energies and
delays."""

import inspect

import pytest
from hypothesis import given, settings, strategies as st

from repro.dvs.strategy import CpuspeedStrategy, DynamicStrategy, StaticStrategy
from repro.analysis.runner import run_measured
from repro.hardware.cluster import Cluster
from repro.hardware.dvfs import PENTIUM_M_1400
from repro.hardware.scaling import CORE_IO, tech_node
from repro.hardware.spec import ClusterSpec, NodeSpec
from repro.powercap import (
    CapGovernorConfig,
    PowerBudget,
    PowerCapStrategy,
)
from repro.util.units import MHZ
from repro.workloads.nas_ft import NasFT


def factory(n_nodes):
    """A cluster factory building the homogeneous spec by hand."""
    return lambda: Cluster.from_spec(ClusterSpec.homogeneous(n_nodes))


class TestSpecValidation:
    def test_node_spec_rejects_empty_group(self):
        with pytest.raises(ValueError, match="count"):
            NodeSpec(count=0)

    def test_node_spec_rejects_empty_points_override(self):
        with pytest.raises(ValueError, match="points"):
            NodeSpec(count=1, points=())

    def test_cluster_spec_rejects_no_groups(self):
        with pytest.raises(ValueError, match="group"):
            ClusterSpec(groups=())

    def test_counts_and_homogeneity(self):
        spec = ClusterSpec(
            groups=(NodeSpec(count=3), NodeSpec(count=5, core=CORE_IO))
        )
        assert spec.n_nodes == 8
        assert not spec.is_homogeneous
        assert ClusterSpec.homogeneous(4).is_homogeneous

    def test_describe_names_every_group(self):
        spec = ClusterSpec(
            groups=(
                NodeSpec(count=2, tech=tech_node(16, "itrs")),
                NodeSpec(count=2, tech=tech_node(8, "itrs"), core=CORE_IO),
            )
        )
        assert spec.describe() == "2x16nm/itrs:o3 + 2x8nm/itrs:io"

    def test_default_ladder_is_the_shared_table_object(self):
        assert NodeSpec(count=1).ladder() is PENTIUM_M_1400


class TestHeterogeneousConstruction:
    def test_groups_get_their_own_silicon_in_declaration_order(self):
        spec = ClusterSpec(
            groups=(
                NodeSpec(count=2),
                NodeSpec(count=2, tech=tech_node(16, "itrs"), core=CORE_IO),
            )
        )
        cluster = Cluster.from_spec(spec)
        assert cluster.n_nodes == 4
        assert [n.node_id for n in cluster.nodes] == [0, 1, 2, 3]
        base, scaled = cluster.nodes[0], cluster.nodes[2]
        assert base.table is PENTIUM_M_1400
        assert scaled.table.fastest.frequency > base.table.fastest.frequency
        assert base.cpu.cycles_per_work == 1.0
        assert scaled.cpu.cycles_per_work == CORE_IO.cycles_per_work
        assert cluster.fabric.n_nodes == 4

    def test_oversized_spec_leaves_extra_nodes_idle(self):
        wl = NasFT("S", n_ranks=2, iterations=1)
        run = run_measured(wl, StaticStrategy(1.4e9), spec=ClusterSpec.homogeneous(3))
        assert run.cluster.n_nodes == 3

    def test_undersized_spec_rejected(self):
        wl = NasFT("S", n_ranks=4, iterations=1)
        with pytest.raises(ValueError, match="needs"):
            run_measured(wl, StaticStrategy(1.4e9), spec=ClusterSpec.homogeneous(2))

    def test_factory_and_spec_are_mutually_exclusive(self):
        wl = NasFT("S", n_ranks=2, iterations=1)
        with pytest.raises(ValueError, match="not both"):
            run_measured(
                wl,
                StaticStrategy(1.4e9),
                cluster_factory=factory(2),
                spec=ClusterSpec.homogeneous(2),
            )


class TestSignatureSync:
    def test_from_spec_options_are_keyword_only(self):
        sig = inspect.signature(Cluster.from_spec)
        for name, param in sig.parameters.items():
            if name == "spec":
                continue
            assert param.kind is inspect.Parameter.KEYWORD_ONLY, (
                f"Cluster.from_spec({name}) must be keyword-only"
            )


class TestBitIdentity:
    """``spec=`` is *bit-identical* to a caller-built cluster factory —
    same objects in, same floats out (1e-9 is the ceiling; identity fast
    paths make it exact)."""

    @settings(max_examples=6, deadline=None)
    @given(
        n_ranks=st.sampled_from([2, 4]),
        mhz=st.sampled_from([600, 1000, 1400]),
    )
    def test_static_runs_match_the_legacy_path(self, n_ranks, mhz):
        wl = NasFT("S", n_ranks=n_ranks, iterations=1)
        legacy = run_measured(
            wl,
            StaticStrategy(mhz * MHZ),
            cluster_factory=factory(n_ranks),
        )
        via_spec = run_measured(
            wl,
            StaticStrategy(mhz * MHZ),
            spec=ClusterSpec.homogeneous(n_ranks),
        )
        assert via_spec.point.energy == pytest.approx(
            legacy.point.energy, abs=1e-9
        )
        assert via_spec.point.delay == pytest.approx(
            legacy.point.delay, abs=1e-9
        )

    def test_dynamic_fig3_style_run_matches_the_legacy_path(self):
        wl = NasFT("S", n_ranks=2, iterations=2)
        strategy = lambda: DynamicStrategy(1.4e9, regions=["fft"])  # noqa: E731
        legacy = run_measured(
            wl, strategy(), cluster_factory=factory(2)
        )
        via_spec = run_measured(
            wl, strategy(), spec=ClusterSpec.homogeneous(2)
        )
        assert via_spec.point.energy == pytest.approx(
            legacy.point.energy, abs=1e-9
        )
        assert via_spec.point.delay == pytest.approx(
            legacy.point.delay, abs=1e-9
        )

    def test_powercap_governed_run_matches_the_legacy_path(self):
        wl = NasFT("S", n_ranks=2, iterations=2)
        base = run_measured(wl, StaticStrategy(1.4e9))
        budget = PowerBudget(0.92 * base.point.energy / base.point.delay)
        config = CapGovernorConfig(interval=max(0.02, base.point.delay / 8))

        def capped(**kwargs):
            return run_measured(
                wl, PowerCapStrategy(budget, config=config), **kwargs
            )

        legacy = capped(cluster_factory=factory(2))
        via_spec = capped(spec=ClusterSpec.homogeneous(2))
        assert via_spec.point.energy == pytest.approx(
            legacy.point.energy, abs=1e-9
        )
        assert via_spec.point.delay == pytest.approx(
            legacy.point.delay, abs=1e-9
        )


#: The scaling extension's four-generation 1024-node machine.
SPEC_1024 = ClusterSpec(
    groups=(
        NodeSpec(count=256),
        NodeSpec(count=256, tech=tech_node(22, "itrs")),
        NodeSpec(count=256, tech=tech_node(8, "itrs")),
        NodeSpec(count=256, tech=tech_node(8, "itrs"), core=CORE_IO),
    )
)

#: FT.S, 8 ranks, one iteration on :data:`SPEC_1024` (1016 idle nodes):
#: ``(energy J, delay s)`` per strategy, recorded before idle nodes
#: became lazily wired and sharing one frozen series.
LARGE_SPEC_GOLDENS = {
    "cpuspeed": (294.94269157780855, 0.047181110603174585),
    "stat": (285.34924702228983, 0.04824816888888885),
    "dyn": (315.76028502117344, 0.0536223662222222),
}

LARGE_SPEC_STRATEGIES = {
    "cpuspeed": CpuspeedStrategy,
    "stat": lambda: StaticStrategy(1.0e9),
    "dyn": lambda: DynamicStrategy(1.0e9, regions=["fft"]),
}


def large_spec_point(strategy):
    """The pinned 1024-node FT.S run's energy/delay point."""
    return run_measured(
        NasFT("S", n_ranks=8, iterations=1),
        LARGE_SPEC_STRATEGIES[strategy](),
        spec=SPEC_1024,
    ).point


@pytest.mark.parametrize("strategy", sorted(LARGE_SPEC_GOLDENS))
def test_1024_node_mixed_generation_goldens(strategy):
    point = large_spec_point(strategy)
    assert (point.energy, point.delay) == LARGE_SPEC_GOLDENS[strategy]
