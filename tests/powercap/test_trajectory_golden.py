"""Golden digests of the cap governor's control trajectory.

Optimisations of the governor's window (how predictions are computed,
how window energies are read) must not move a single bit of what it
decides.  These digests pin, for five closed-loop runs, every
:class:`~repro.powercap.governor.GovernorWindow` (``t0``, ``t1``,
``cluster_avg_watts``, ``predicted_watts``, ``frequencies``,
``feasible``) and the hardened path's ``repair_log``, as exact float
hex strings:

* a hardened (self-healing) redistribution run whose fault plan holds a
  crash long enough to be declared dead, a one-window telemetry blip
  (carried-forward sample), a long dropout (stale fallback to worst-case
  samples), a stuck regulator and noisy power readings;
* the same plan under the fair-weather redistribution governor;
* the same plan under the uniform allocator, hardened and fair-weather;
* a serving day under the elastic control plane at a 48 W budget, below
  the six-node cluster's DVFS floor, so gating and core allocation act.

A digest that moves means the control trajectory moved: a change that
claims to leave the governor's decisions alone must leave all five
unchanged.
"""

import hashlib

import pytest

from repro.analysis.runner import run_measured
from repro.faults import (
    ChaosTask,
    DvfsStuck,
    FaultPlan,
    NodeCrash,
    TelemetryDropout,
    TelemetryNoise,
)
from repro.faults.injector import FaultInjector
from repro.hardware.cluster import Cluster
from repro.hardware.spec import ClusterSpec
from repro.serving.arrivals import MMPPArrivals
from repro.serving.elastic import ElasticServingPolicy
from repro.serving.runner import run_serving
from repro.serving.spec import ServingWorkload, TierSpec
from repro.workloads.synthetic import SyntheticMix

INTERVAL = 0.02

CHAOS_WORKLOAD = SyntheticMix(
    1.0, 0.0, 0.0, iteration_seconds=0.5, iterations=4, n_ranks=8
)

CHAOS_PLAN = FaultPlan(
    faults=(
        TelemetryNoise(5, at=0.10, duration=0.60, sigma_watts=3.0),
        TelemetryDropout(0, at=0.31, duration=0.015),
        TelemetryDropout(1, at=0.41, duration=0.20),
        NodeCrash(3, at=0.90, downtime=0.20),
        DvfsStuck(6, at=0.95, duration=0.30),
        TelemetryDropout(4, at=1.21, duration=0.025),
    ),
    seed=11,
)

#: sha256 over the canonical trajectory text (see :func:`trajectory`).
GOLDEN = {
    "chaos-hardened": (
        "2cd1bc83621212b4f64ed7a3d2f72a42a6a88590d22bfb9b085c9891363bb5df"
    ),
    "chaos-fairweather": (
        "b16b5490b712e169261d347d7380f3bb4c00f632c2a9756c9b7b15ce55f268b1"
    ),
    "chaos-hardened-uniform": (
        "64961195ac6c0d0e1b6d9d07bbbfa302ef2f3ff38a33ad014a4604c0468cf270"
    ),
    "chaos-fairweather-uniform": (
        "38d88b1d33967a48a03e19be7364822f057d88e3d25d1c22e552f42afe9b3291"
    ),
    "serving-elastic48": (
        "6c51fca300861902a1594a654d3553c8b5902c6d61b96f01cbd75b93f0ab9d13"
    ),
}


def _hex(x: float) -> str:
    return float(x).hex()


def trajectory(governor) -> str:
    lines = []
    for w in governor.windows:
        freqs = ",".join(
            f"{nid}:{_hex(f)}" for nid, f in sorted(w.frequencies.items())
        )
        lines.append(
            f"W {_hex(w.t0)} {_hex(w.t1)} {_hex(w.cluster_avg_watts)} "
            f"{_hex(w.predicted_watts)} {int(w.feasible)} {freqs}"
        )
    for r in governor.repair_log:
        lines.append(f"R {_hex(r.time)} {r.node_id} {r.action} {r.detail}")
    return "\n".join(lines)


def digest(governor) -> str:
    return hashlib.sha256(trajectory(governor).encode()).hexdigest()


def chaos_governor(hardened: bool, policy: str = "redist"):
    task = ChaosTask(
        CHAOS_WORKLOAD,
        CHAOS_PLAN,
        200.0,
        policy=policy,
        hardened=hardened,
        interval=INTERVAL,
    )
    strategy = task.build_strategy()

    def factory() -> Cluster:
        cluster = Cluster.from_spec(ClusterSpec.homogeneous(8))
        FaultInjector(cluster, CHAOS_PLAN).install()
        return cluster

    run_measured(CHAOS_WORKLOAD, strategy, cluster_factory=factory)
    return strategy.governor


def serving_governor():
    workload = ServingWorkload(
        tiers=(
            TierSpec("frontend", nodes=2, service_cycles=2.0e6),
            TierSpec("app", nodes=2, service_cycles=12.0e6),
            TierSpec("storage", nodes=2, service_cycles=3.0e6),
        ),
        arrivals=MMPPArrivals(
            base_rate=40.0,
            burst_rate=190.0,
            base_dwell_s=0.6,
            burst_dwell_s=0.2,
            seed=3,
        ),
        horizon_s=12.0,
        timeout_s=2.0,
        name="three-tier-golden",
        seed=3,
    )
    policy = ElasticServingPolicy(48.0)
    run_serving(workload, policy)
    return policy.governor


@pytest.fixture(scope="module")
def hardened():
    return chaos_governor(hardened=True)


def test_hardened_plan_exercises_every_defence(hardened):
    actions = {r.action for r in hardened.repair_log}
    assert {
        "declared-dead",
        "rejoined",
        "stale-fallback",
        "reapply",
        "unstuck",
    } <= actions


def test_chaos_hardened_trajectory(hardened):
    assert digest(hardened) == GOLDEN["chaos-hardened"]


def test_chaos_fairweather_trajectory():
    assert digest(chaos_governor(hardened=False)) == GOLDEN["chaos-fairweather"]


def test_chaos_hardened_uniform_trajectory():
    governor = chaos_governor(hardened=True, policy="uniform")
    assert "stale-fallback" in {r.action for r in governor.repair_log}
    assert digest(governor) == GOLDEN["chaos-hardened-uniform"]


def test_chaos_fairweather_uniform_trajectory():
    governor = chaos_governor(hardened=False, policy="uniform")
    assert digest(governor) == GOLDEN["chaos-fairweather-uniform"]


def test_serving_elastic48_trajectory():
    governor = serving_governor()
    assert len(governor.windows) > 0
    assert digest(governor) == GOLDEN["serving-elastic48"]
