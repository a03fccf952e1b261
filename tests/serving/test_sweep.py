"""Serving sweeps: canonical task keys, cache resume, warm bit-identity,
and one front door shared with the other sweep families."""

import pytest

from repro.cache.store import RunCache
from repro.serving.arrivals import MMPPArrivals
from repro.serving.spec import ServingWorkload, TierSpec
from repro.serving.sweep import (
    SERVING_POLICIES,
    ServingTask,
    run_serving_sweep,
    serving_task_key,
)
from repro.session import Session

WORKLOAD = ServingWorkload(
    tiers=(
        TierSpec("fe", nodes=1, service_cycles=1.0e6),
        TierSpec("app", nodes=1, service_cycles=4.0e6),
    ),
    arrivals=MMPPArrivals(
        20.0, 100.0, base_dwell_s=0.8, burst_dwell_s=0.3, seed=2
    ),
    horizon_s=1.5,
    timeout_s=3.0,
)


def tasks_under_test():
    return [
        ServingTask(WORKLOAD, "static"),
        ServingTask(WORKLOAD, "tierdvs", interval=0.2),
    ]


class TestTaskKey:
    def test_key_is_stable(self):
        assert serving_task_key(
            ServingTask(WORKLOAD, "tierdvs")
        ) == serving_task_key(ServingTask(WORKLOAD, "tierdvs"))

    def test_key_separates_every_knob(self):
        seeded = ServingWorkload(
            tiers=WORKLOAD.tiers,
            arrivals=MMPPArrivals(
                20.0, 100.0, base_dwell_s=0.8, burst_dwell_s=0.3, seed=3
            ),
            horizon_s=1.5,
            timeout_s=3.0,
        )
        keys = {
            serving_task_key(t)
            for t in [
                ServingTask(WORKLOAD, "tierdvs"),
                ServingTask(WORKLOAD, "static"),
                ServingTask(WORKLOAD, "static", frequency=600e6),
                ServingTask(WORKLOAD, "cpuspeed"),
                ServingTask(WORKLOAD, "elastic", budget_watts=50.0),
                ServingTask(WORKLOAD, "elastic", budget_watts=60.0),
                ServingTask(WORKLOAD, "tierdvs", interval=0.5),
                ServingTask(WORKLOAD, "tierdvs", safety=2.0),
                ServingTask(seeded, "tierdvs"),
            ]
        }
        assert len(keys) == 9

    def test_default_calibration_is_normalised(self):
        from repro.hardware.calibration import DEFAULT_CALIBRATION

        assert serving_task_key(
            ServingTask(WORKLOAD, "static")
        ) == serving_task_key(
            ServingTask(WORKLOAD, "static", calibration=DEFAULT_CALIBRATION)
        )

    def test_invalid_tasks_rejected(self):
        with pytest.raises(ValueError, match="policy"):
            ServingTask(WORKLOAD, "ondemand")
        with pytest.raises(ValueError, match="policy"):
            ServingTask(WORKLOAD, "powercap")
        with pytest.raises(ValueError, match="interval"):
            ServingTask(WORKLOAD, "tierdvs", interval=0.0)

    def test_budget_only_applies_to_the_elastic_recipe(self):
        for policy in ("static", "cpuspeed", "tierdvs"):
            with pytest.raises(ValueError, match="budget_watts"):
                ServingTask(WORKLOAD, policy, budget_watts=50.0)
        with pytest.raises(ValueError, match="policy"):
            ServingTask(WORKLOAD, "powercap", budget_watts=50.0)

    def test_a_recipe_rejects_the_fields_it_ignores(self):
        # Each would run the recipe's default under another cache key.
        ignored = {
            "static": dict(interval=0.2, safety=2.0, allocator="uniform"),
            "cpuspeed": dict(
                frequency=600e6, interval=0.2, safety=2.0, allocator="uniform"
            ),
            "tierdvs": dict(frequency=600e6, allocator="uniform"),
            "elastic": dict(frequency=600e6, safety=2.0),
        }
        for policy, overrides in ignored.items():
            budget = 50.0 if policy == "elastic" else None
            for name, value in overrides.items():
                with pytest.raises(ValueError, match=f"{name} only applies"):
                    ServingTask(
                        WORKLOAD, policy, budget_watts=budget, **{name: value}
                    )

    def test_build_policy_covers_every_recipe(self):
        for policy in SERVING_POLICIES:
            task = ServingTask(
                WORKLOAD,
                policy,
                budget_watts=50.0 if policy == "elastic" else None,
            )
            built = task.build_policy()
            assert policy in type(built).__name__.lower().replace(
                "servingpolicy", policy
            ) or policy in built.name


class TestSweep:
    def test_outcomes_preserve_input_order(self):
        outcomes = run_serving_sweep(tasks_under_test())
        assert [o.point.label for o in outcomes] == ["static", "tierdvs"]
        for outcome in outcomes:
            assert outcome.report.n_requests > 0
            assert outcome.point.energy == outcome.report.energy_j

    def test_warm_rerun_is_bit_identical(self, tmp_path, monkeypatch):
        cache = RunCache(tmp_path / "cache")
        cold = run_serving_sweep(tasks_under_test(), use_cache=cache)

        def boom(task):
            raise AssertionError("cache miss: serving run re-simulated")

        monkeypatch.setattr(ServingTask, "run", boom)
        warm = run_serving_sweep(tasks_under_test(), use_cache=cache)
        assert [o.point for o in warm] == [o.point for o in cold]
        assert [o.report for o in warm] == [o.report for o in cold]

    def test_foreign_cache_records_fall_through_to_resimulation(
        self, tmp_path
    ):
        cache = RunCache(tmp_path / "cache")
        task = ServingTask(WORKLOAD, "static")
        (fresh,) = run_serving_sweep([task], use_cache=cache)
        key = serving_task_key(task)
        cache.put(key, fresh.point, meta={"workload": WORKLOAD.name})
        (again,) = run_serving_sweep([task], use_cache=cache)
        assert again.report == fresh.report  # re-simulated, not decoded

    def test_parallel_equals_serial(self):
        serial = run_serving_sweep(tasks_under_test())
        parallel = run_serving_sweep(tasks_under_test(), jobs=2)
        assert [o.point for o in parallel] == [o.point for o in serial]
        assert [o.report for o in parallel] == [o.report for o in serial]

    def test_signature_matches_the_other_sweeps(self):
        from repro.analysis.parallel import run_sweep
        from repro.faults.sweep import run_chaos_sweep

        assert run_serving_sweep is run_chaos_sweep is run_sweep


class TestSessionIntegration:
    def test_single_task_returns_its_outcome(self):
        session = Session()
        [outcome] = session.sweep([ServingTask(WORKLOAD, "static")])
        assert outcome.point.label == "static"
        assert outcome.report.completed > 0

    def test_session_cache_is_shared_with_the_sweep(self, tmp_path):
        cache = RunCache(tmp_path / "cache")
        session = Session(use_cache=cache)
        first = session.sweep(tasks_under_test())
        hits_before = cache.stats.hits
        second = session.sweep(tasks_under_test())
        assert cache.stats.hits > hits_before
        assert [o.report for o in second] == [o.report for o in first]
