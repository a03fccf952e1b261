"""Dispatch pins: engine counts and resume order of three whole tasks.

A change to the engine or to a model's event pattern can keep every
output and still move, merge or reorder dispatches.  Each pin records,
for one task of each simulating benchmark family, the engine's
``(dispatched, frontiers, cancelled)`` and a digest of the
``(now, process name)`` log of every process resume:

* an 8-rank FT.B operating point under the cpuspeed daemon (MPI spin
  waits, frequency changes mid-quantum);
* a capped, faulted all-compute run (governor windows, crashes,
  dropouts, stuck regulators);
* a three-tier MMPP serving day under the elastic control plane at a
  48 W budget (per-request quanta, core allocation, node gating).

A change that means to move a pin names the old and the new value.
"""

import hashlib

import pytest

from repro.analysis.parallel import SweepTask, run_sweep
from repro.faults.spec import FaultPlan, acceleration_for
from repro.faults.sweep import ChaosTask, run_chaos_sweep
from repro.hardware.reliability import ReliabilityModel
from repro.serving.arrivals import MMPPArrivals
from repro.serving.spec import ServingWorkload, TierSpec
from repro.serving.sweep import ServingTask, run_serving_sweep
from repro.sim.engine import Engine
from repro.sim.process import Process
from repro.workloads.nas_ft import NasFT
from repro.workloads.synthetic import SyntheticMix


def _ft_task():
    return run_sweep, SweepTask(NasFT("B", n_ranks=8, iterations=1), "cpuspeed")


def _chaos_task():
    reliability = ReliabilityModel(annual_failure_rate=0.025)
    interval, horizon, ranks = 0.02, 3.0, 8
    plan = FaultPlan.from_reliability(
        reliability,
        ranks,
        horizon,
        seed=109,
        acceleration=acceleration_for(reliability, ranks, horizon, 4.0),
        downtime_s=4 * interval,
        dropout_weight=1.0,
        dropout_s=10 * interval,
        stuck_weight=1.0,
        stuck_s=10 * interval,
    )
    workload = SyntheticMix(
        1.0, 0.0, 0.0, iteration_seconds=0.5, iterations=6, n_ranks=ranks
    )
    task = ChaosTask(
        workload,
        plan,
        0.85 * 233.6,
        policy="redist",
        hardened=False,
        interval=interval,
        allowed_recovery_s=4 * interval,
    )
    return run_chaos_sweep, task


def _serving_task():
    arrivals = MMPPArrivals(
        base_rate=40.0,
        burst_rate=190.0,
        base_dwell_s=0.6,
        burst_dwell_s=0.2,
        seed=24,
    )
    workload = ServingWorkload(
        tiers=(
            TierSpec("frontend", nodes=2, service_cycles=2.0e6),
            TierSpec("app", nodes=2, service_cycles=12.0e6),
            TierSpec("storage", nodes=2, service_cycles=3.0e6),
        ),
        arrivals=arrivals,
        horizon_s=12.0,
        timeout_s=2.0,
        name="three-tier-mmpp",
        seed=24,
    )
    return run_serving_sweep, ServingTask(workload, policy="elastic", budget_watts=48.0)


#: task -> ((dispatched, frontiers, cancelled), resumes, resume-log digest).
#: The FT pin was (1873, 91, 0) before the MPI progress wait revoked its
#: stale spin deadlines: 161 are cancelled, 112 of which were dispatched
#: (and 14 of them alone at their instant) before the run ended.
PINS = {
    "ft": (_ft_task, (1761, 77, 161), 1079, "01611772245583e0"),
    "chaos": (_chaos_task, (376, 260, 43), 307, "8109aca7885dae48"),
    "serving": (_serving_task, (5444, 2179, 4), 4158, "cd655c7b157820a0"),
}


def _dispatch_record(monkeypatch, build):
    engines = []
    log = []
    engine_init = Engine.__init__
    resume = Process._resume

    def counting_init(self, *args, **kwargs):
        engine_init(self, *args, **kwargs)
        engines.append(self)

    def logging_resume(self, event):
        log.append((self.engine._now, self.name))
        resume(self, event)

    monkeypatch.setattr(Engine, "__init__", counting_init)
    monkeypatch.setattr(Process, "_resume", logging_resume)
    sweep, task = build()
    sweep([task])
    [engine] = engines
    stats = engine.stats
    digest = hashlib.sha256(repr(log).encode()).hexdigest()[:16]
    return (stats.dispatched, stats.frontiers, stats.cancelled), len(log), digest


@pytest.mark.parametrize("name", sorted(PINS))
def test_dispatch_counts_and_resume_order_are_pinned(monkeypatch, name):
    build, counts, resumes, digest = PINS[name]
    assert _dispatch_record(monkeypatch, build) == (counts, resumes, digest)
