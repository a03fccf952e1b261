"""Golden digests of the per-node DVS governors' decision logs.

Every governor keeps its own node's decision log, ``(time,
utilization, chosen frequency)`` per poll.  How the governors are woken
(one process per node, or one clock for all) must not move a single
bit of what they decide.  These digests pin every decision of four
runs, as exact float hex strings:

* FT.S on eight ranks of the 1024-node four-generation spec under
  cpuspeed, so 1016 idle nodes poll alongside the eight busy ones;
* one MMPP serving day under the cpuspeed serving policy;
* FT.S under the ondemand strategy;
* FT.S on 12 nodes under a power cap composed over cpuspeed, with the
  cap governor's window equal to the daemons' interval, so the governor
  and the daemons wake at the same instants and their order is pinned
  too.
"""

import hashlib

import pytest

from repro.analysis.runner import run_measured
from repro.dvs.cpuspeed import CpuspeedConfig
from repro.dvs.ondemand import OndemandConfig, OndemandStrategy
from repro.dvs.strategy import CpuspeedStrategy
from repro.hardware.spec import ClusterSpec
from repro.powercap import CapGovernorConfig, PowerBudget, PowerCapStrategy
from repro.serving.arrivals import MMPPArrivals
from repro.serving.policy import CpuspeedServingPolicy
from repro.serving.runner import run_serving
from repro.serving.spec import ServingWorkload, TierSpec
from repro.workloads.nas_ft import NasFT

from tests.hardware.test_spec_equivalence import SPEC_1024

INTERVAL = 0.005

#: sha256 over the canonical decision text (see :func:`digest`).
GOLDEN = {
    "ft-cpuspeed-1024": (
        "e627f6415306f2942c6ac03e8fb176e3999ef533192bf6f1a9b718ae2068587e"
    ),
    "serving-cpuspeed": (
        "5ec8dedb9fbc741370afdac45695bb83b95e897c1c3ba1cf8c6301c3482b6e94"
    ),
    "ft-ondemand": (
        "641dfd03dce206348e2b46bd5ae7a6df6f9d6b178c52dc5b1a064b5d2525f7f6"
    ),
    "ft-powercap-cpuspeed": (
        "e2d3b8fea74d8983ad095a6068c2184fb26d17f51c78d7c069a94240a24e05be"
    ),
}


def digest(governors) -> str:
    lines = [
        f"{i} {t.hex()} {util.hex()} {freq.hex()}"
        for i, governor in enumerate(governors)
        for t, util, freq in governor.decisions
    ]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _ft(strategy, **options):
    run_measured(NasFT("S", n_ranks=8, iterations=2), strategy, **options)
    return strategy


def ft_cpuspeed_1024():
    strategy = CpuspeedStrategy(CpuspeedConfig(interval=INTERVAL))
    return _ft(strategy, spec=SPEC_1024).governors


def serving_cpuspeed():
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
    policy = CpuspeedServingPolicy(CpuspeedConfig(interval=0.25))
    run_serving(workload, policy)
    return policy.daemons


def ft_ondemand():
    return _ft(OndemandStrategy(OndemandConfig(interval=INTERVAL))).governors


def ft_powercap_cpuspeed():
    # Four idle nodes step down from whatever frequency the cap left
    # them at, so a daemon polled after the governor decides otherwise.
    strategy = PowerCapStrategy(
        PowerBudget(cluster_watts=150.0),
        config=CapGovernorConfig(interval=INTERVAL),
        inner=CpuspeedStrategy(CpuspeedConfig(interval=INTERVAL)),
    )
    return _ft(strategy, spec=ClusterSpec.homogeneous(12)).inner.governors


RUNS = {
    "ft-cpuspeed-1024": ft_cpuspeed_1024,
    "serving-cpuspeed": serving_cpuspeed,
    "ft-ondemand": ft_ondemand,
    "ft-powercap-cpuspeed": ft_powercap_cpuspeed,
}


@pytest.mark.parametrize("run", sorted(RUNS))
def test_decision_log_digest(run):
    governors = RUNS[run]()
    assert all(governor.decisions for governor in governors)
    assert digest(governors) == GOLDEN[run]
