"""Serving policies: static pinning, per-tier DVS, cpuspeed."""

import pytest

from repro.hardware.cluster import Cluster
from repro.hardware.spec import ClusterSpec
from repro.serving.arrivals import MMPPArrivals, PoissonArrivals
from repro.serving.policy import (
    CpuspeedServingPolicy,
    StaticServingPolicy,
    TierDvsPolicy,
)
from repro.serving.runner import run_serving
from repro.serving.spec import ServingWorkload, TierSpec

LADDER = Cluster.from_spec(ClusterSpec.homogeneous(1)).table  # the Pentium-M frequency ladder


def workload(**overrides):
    defaults = dict(
        tiers=(
            TierSpec("fe", nodes=1, service_cycles=1.0e6),
            TierSpec("app", nodes=2, service_cycles=8.0e6),
            TierSpec("db", nodes=1, service_cycles=2.0e6),
        ),
        arrivals=MMPPArrivals(
            25.0, 120.0, base_dwell_s=1.0, burst_dwell_s=0.4, seed=4
        ),
        horizon_s=3.0,
        timeout_s=4.0,
    )
    defaults.update(overrides)
    return ServingWorkload(**defaults)


class TestStatic:
    def test_default_pins_the_fastest_point(self):
        run = run_serving(workload())
        policy = run.policy
        assert policy.name == "static@1400MHz"
        for tier in policy.tiers:
            assert policy.tier_frequency(tier) == LADDER.fastest.frequency

    def test_slow_static_trades_latency_for_energy(self):
        fast = run_serving(workload(), StaticServingPolicy())
        slow = run_serving(workload(), StaticServingPolicy(600e6))
        assert slow.policy.name == "static@600MHz"
        assert slow.energy_j < fast.energy_j
        slow_ok = [r.latency_s for r in slow.records if r.ok]
        fast_ok = [r.latency_s for r in fast.records if r.ok]
        assert sum(slow_ok) / len(slow_ok) > sum(fast_ok) / len(fast_ok)


class TestTierDvs:
    def test_pins_the_critical_tier_and_slows_the_rest(self):
        policy = TierDvsPolicy(interval=0.2)
        run = run_serving(workload(), policy)
        fe, app, db = policy.tiers
        # The app tier dominates residence: never below the top point.
        assert policy.tier_frequency(app) == LADDER.fastest.frequency
        # The off-path tiers got walked down (the whole point).
        stepped_down = {
            name
            for _, name, freq in policy.decisions
            if freq < LADDER.fastest.frequency
        }
        assert {"fe", "db"} & stepped_down
        assert policy.tier_frequency(fe) < LADDER.fastest.frequency
        # And it spends less than static-max on the same stream.
        static = run_serving(workload())
        assert run.energy_j < static.energy_j

    def test_retunes_only_to_ladder_points(self):
        policy = TierDvsPolicy(interval=0.2)
        run_serving(workload(), policy)
        assert policy.decisions
        assert {f for _, _, f in policy.decisions} <= set(LADDER.frequencies)

    def test_queue_pressure_steps_a_slowed_tier_back_up(self):
        """Saturate the frontend mid-run: once its queue builds, the
        policy must raise it back toward the top point."""
        policy = TierDvsPolicy(interval=0.1)
        run_serving(
            workload(
                tiers=(
                    TierSpec("fe", nodes=1, service_cycles=6.0e6),
                    TierSpec("app", nodes=2, service_cycles=8.0e6),
                ),
                arrivals=MMPPArrivals(
                    10.0, 200.0, base_dwell_s=1.0, burst_dwell_s=0.6, seed=8
                ),
            ),
            policy,
        )
        fe_freqs = [f for _, name, f in policy.decisions if name == "fe"]
        assert fe_freqs  # the controller acted on the frontend
        ups = [b for a, b in zip(fe_freqs, fe_freqs[1:]) if b > a]
        assert ups, "frontend was never stepped back up under pressure"

    def test_validation(self):
        with pytest.raises(ValueError):
            TierDvsPolicy(interval=0.0)
        with pytest.raises(ValueError):
            TierDvsPolicy(safety=-1.0)
        with pytest.raises(ValueError):
            TierDvsPolicy(queue_low=-1)


class TestCpuspeed:
    def test_daemons_scale_down_in_lulls(self):
        policy = CpuspeedServingPolicy()
        run = run_serving(
            workload(arrivals=PoissonArrivals(15.0, seed=4)), policy
        )
        assert len(policy.daemons) == run.workload.total_nodes
        # Light load: the utilisation-driven daemon must leave the top
        # point, which is exactly what burns it under bursts.
        static = run_serving(
            workload(arrivals=PoissonArrivals(15.0, seed=4))
        )
        assert run.energy_j < static.energy_j
