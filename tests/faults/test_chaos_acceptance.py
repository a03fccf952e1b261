"""Acceptance tests for the chaos subsystem, end to end.

The headline robustness claim: under the composite drill (simultaneous
telemetry dropout on two nodes + a stuck-high DVFS regulator + a crash
that reboots at full clock) the hardened governor keeps every
post-recovery window inside the budget while the fair-weather baseline
demonstrably does not.  Plus the two operational guarantees the chaos
sweep makes: identical seeds reproduce identical outcomes, and sweeps
are cache-resumable.
"""

import pytest

from repro.analysis.parallel import SweepError
from repro.analysis.runner import run_measured
from repro.cache.store import RunCache
from repro.dvs.strategy import StaticStrategy
from repro.experiments.chaos import drill_plan
from repro.faults import (
    ChaosTask,
    FaultPlan,
    NodeCrash,
    chaos_task_key,
    run_chaos_sweep,
)
from repro.workloads.synthetic import SyntheticMix

#: The drill workload: all-compute, no synchronisation, so control-plane
#: lapses show up as power (not barrier slack) and a crashed rank never
#: deadlocks the survivors.
WORKLOAD = SyntheticMix(
    1.0, 0.0, 0.0, iteration_seconds=0.5, iterations=4, n_ranks=8
)


@pytest.fixture(scope="module")
def drill_setup():
    base = run_measured(WORKLOAD, StaticStrategy(1.4e9))
    uncapped_avg = base.point.energy / base.point.delay
    interval = max(0.02, min(0.25, base.point.delay / 12.0))
    return {
        "budget_watts": 0.85 * uncapped_avg,
        "interval": interval,
        "allowed_recovery_s": 4 * interval,
    }


def drill_task(setup: dict, hardened: bool, seed: int = 0) -> ChaosTask:
    return ChaosTask(
        workload=WORKLOAD,
        plan=drill_plan(setup["interval"], seed=seed),
        budget_watts=setup["budget_watts"],
        policy="redist",
        hardened=hardened,
        interval=setup["interval"],
        allowed_recovery_s=setup["allowed_recovery_s"],
    )


class TestHeadlineClaim:
    def test_hardened_recovers_where_fairweather_violates(self, drill_setup):
        hardened, baseline = run_chaos_sweep(
            [
                drill_task(drill_setup, hardened=True),
                drill_task(drill_setup, hardened=False),
            ],
        )
        # The self-healing governor: zero violations outside the allowed
        # recovery latency of a fault transition, on a composite fault.
        assert hardened.report.post_recovery_violations == 0
        assert hardened.report.recovered
        assert hardened.report.repair_events > 0
        # The fair-weather control: persistent post-recovery violations
        # the invariant monitor catches — the hardening earns its keep.
        assert baseline.report.post_recovery_violations > 0
        assert not baseline.report.recovered
        assert baseline.report.invariant_violations > 0
        assert (
            baseline.report.worst_recovery_latency_s
            > drill_setup["allowed_recovery_s"]
        )

    def test_faults_cost_time_but_not_compliance(self, drill_setup):
        clean_task = ChaosTask(
            workload=WORKLOAD,
            plan=FaultPlan(),
            budget_watts=drill_setup["budget_watts"],
            hardened=True,
            interval=drill_setup["interval"],
            allowed_recovery_s=drill_setup["allowed_recovery_s"],
        )
        clean, drilled = run_chaos_sweep(
            [clean_task, drill_task(drill_setup, hardened=True)],
        )
        assert clean.report.violation_windows == 0
        assert clean.report.repair_events == 0
        # The drill is not free — the crash downtime stretches the run
        # and the defenses fire — but it is *contained*: every window,
        # not just every post-recovery window, stays inside the budget.
        assert drilled.report.delay_s > clean.report.delay_s
        assert drilled.report.repair_events > 0
        assert drilled.report.post_recovery_violations == 0
        assert drilled.report.violation_windows == drilled.report.excused_violations


class TestDeterminism:
    def test_identical_tasks_identical_outcomes(self, drill_setup):
        task = drill_task(drill_setup, hardened=True)
        first, second = run_chaos_sweep([task, task])
        assert first.report == second.report
        assert first.point.energy == second.point.energy
        assert first.point.delay == second.point.delay


class TestCacheResume:
    def test_sweep_resumes_from_cache_without_resimulating(
        self, drill_setup, tmp_path, monkeypatch
    ):
        cache = RunCache(tmp_path / "cache")
        tasks = [
            drill_task(drill_setup, hardened=True),
            drill_task(drill_setup, hardened=False),
        ]
        first = run_chaos_sweep(tasks, use_cache=cache)

        def boom(task):
            raise AssertionError("cache miss: chaos run re-simulated")

        monkeypatch.setattr(ChaosTask, "run", boom)
        second = run_chaos_sweep(tasks, use_cache=cache)
        assert [o.report for o in second] == [o.report for o in first]
        assert [o.point for o in second] == [o.point for o in first]

    def test_foreign_cache_records_fall_through_to_resimulation(
        self, drill_setup, tmp_path
    ):
        cache = RunCache(tmp_path / "cache")
        task = drill_task(drill_setup, hardened=True)
        (fresh,) = run_chaos_sweep([task], use_cache=cache)
        # Overwrite the record with one missing the chaos meta — as if a
        # plain sweep point landed under the same key.
        key = chaos_task_key(task)
        cache.put(key, fresh.point, meta={"workload": WORKLOAD.name})
        (again,) = run_chaos_sweep([task], use_cache=cache)
        assert again.report == fresh.report  # re-simulated, not decoded


class TestTaskKey:
    def test_key_is_stable_across_processes(self, drill_setup):
        a = chaos_task_key(drill_task(drill_setup, hardened=True))
        b = chaos_task_key(drill_task(drill_setup, hardened=True))
        assert a == b

    def test_key_separates_plans_modes_and_recovery_grace(self, drill_setup):
        base = drill_task(drill_setup, hardened=True)
        keys = {
            chaos_task_key(base),
            chaos_task_key(drill_task(drill_setup, hardened=False)),
            chaos_task_key(drill_task(drill_setup, hardened=True, seed=1)),
            chaos_task_key(
                ChaosTask(
                    workload=WORKLOAD,
                    plan=base.plan,
                    budget_watts=base.budget_watts,
                    hardened=True,
                    interval=base.interval,
                    allowed_recovery_s=base.allowed_recovery_s * 2,
                )
            ),
            chaos_task_key(
                ChaosTask(
                    workload=WORKLOAD,
                    plan=FaultPlan(faults=(NodeCrash(0, at=0.1),)),
                    budget_watts=base.budget_watts,
                    hardened=True,
                    interval=base.interval,
                    allowed_recovery_s=base.allowed_recovery_s,
                )
            ),
        }
        assert len(keys) == 5

    def test_invalid_tasks_rejected(self, drill_setup):
        with pytest.raises(ValueError, match="policy"):
            ChaosTask(
                workload=WORKLOAD,
                plan=FaultPlan(),
                budget_watts=100.0,
                policy="round-robin",
            )
        with pytest.raises(ValueError, match="budget_watts"):
            ChaosTask(
                workload=WORKLOAD, plan=FaultPlan(), budget_watts=0.0
            )


class CrashingMix(SyntheticMix):
    """The drill workload, failing the moment it is launched."""

    def program(self, comm, dvs):
        raise RuntimeError("injected chaos-run failure")
        yield  # pragma: no cover - makes this a generator


class TestFailureLabels:
    def test_sweep_error_names_policy_and_mode(self):
        def task(workload):
            return ChaosTask(
                workload=workload,
                plan=FaultPlan(),
                budget_watts=100.0,
                policy="uniform",
                hardened=False,
            )

        crashing = CrashingMix(
            1.0, 0.0, 0.0, iteration_seconds=0.5, iterations=4, n_ranks=8
        )
        events = []
        with pytest.raises(SweepError) as excinfo:
            run_chaos_sweep(
                [task(WORKLOAD), task(crashing)], on_result=events.append
            )
        message = str(excinfo.value)
        assert "task[1] (uniform/fairweather)" in message
        assert "injected chaos-run failure" in message
        # The sibling that ran streams its event under the same label.
        assert [e.label for e in events] == ["uniform/fairweather"]
