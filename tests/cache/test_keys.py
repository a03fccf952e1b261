"""Canonical key derivation: determinism, normalisation, salting."""

import pytest

from repro import __version__
from repro.analysis.parallel import SweepTask
from repro.cache.keys import (
    CACHE_FORMAT,
    canonical_encode,
    canonical_json,
    simulator_salt,
    task_key,
)
from repro.hardware.activity import CpuActivity
from repro.hardware.calibration import DEFAULT_CALIBRATION
from repro.util.units import MHZ
from repro.workloads.nas_ft import NasFT


def make_task(**kwargs):
    kwargs.setdefault("frequency", 800 * MHZ)
    return SweepTask(NasFT("S", n_ranks=4, iterations=2), "stat", **kwargs)


def test_key_is_deterministic_across_calls():
    assert task_key(make_task()) == task_key(make_task())


def test_key_is_a_sha256_hex_digest():
    key = task_key(make_task())
    assert len(key) == 64
    assert set(key) <= set("0123456789abcdef")


def test_none_calibration_normalises_to_default():
    # SweepTask(wl, "stat", f) and the same task with an explicit default
    # calibration describe the same run (the runner substitutes the
    # default at execution time), so they must share a key.
    explicit = make_task(calibration=DEFAULT_CALIBRATION)
    assert task_key(make_task()) == task_key(explicit)


def test_salt_folds_version_and_format():
    assert simulator_salt() == f"repro/{__version__}/format{CACHE_FORMAT}"
    assert task_key(make_task()) != task_key(make_task(), salt="other-sim/2.0")


def test_distinct_specs_get_distinct_keys():
    base = task_key(make_task())
    assert task_key(make_task(frequency=600 * MHZ)) != base
    dyn = SweepTask(
        NasFT("S", n_ranks=4, iterations=2),
        "dyn",
        frequency=800 * MHZ,
        regions=("fft",),
    )
    assert task_key(dyn) != base


def test_mapping_order_is_canonical():
    assert canonical_json({"a": 1, "b": 2}) == canonical_json({"b": 2, "a": 1})


def test_tuple_and_list_encode_equally():
    assert canonical_encode((1, 2.5, "x")) == canonical_encode([1, 2.5, "x"])


def test_set_encoding_is_order_free():
    assert canonical_encode({3, 1, 2}) == canonical_encode({2, 3, 1})


def test_enum_encodes_by_qualified_name():
    encoded = canonical_encode(CpuActivity.ACTIVE)
    assert encoded["name"] == "ACTIVE"
    assert encoded["__enum__"].endswith("CpuActivity")


def test_calibration_encodes_as_dataclass():
    encoded = canonical_encode(DEFAULT_CALIBRATION)
    assert encoded["__dataclass__"].endswith("Calibration")
    assert "fields" in encoded


def test_workload_encodes_as_object_state():
    encoded = canonical_encode(NasFT("S", n_ranks=4, iterations=2))
    assert encoded["__object__"].endswith("NasFT")
    assert "attrs" in encoded


def test_numpy_values_encode():
    np = pytest.importorskip("numpy")
    assert canonical_encode(np.float64(1.5)) == 1.5
    encoded = canonical_encode(np.arange(3))
    assert encoded["data"] == [0, 1, 2]
    assert encoded["shape"] == [3]


def test_unencodable_object_raises():
    # object() has no __dict__; hashing it silently would under-key.
    with pytest.raises(TypeError, match="canonically encode"):
        canonical_encode(object())


# -- golden keys -----------------------------------------------------------
#
# Literal digests, under an explicit salt so a version bump does not move
# them.  Every other key test compares keys with each other; these pin the
# absolute values, so a refactor of the task classes or the key helpers
# that silently re-keys the cache fails here.

GOLDEN_SALT = "golden/1"


def _golden_chaos_task():
    from repro.faults import ChaosTask, DvfsStuck, FaultPlan, NodeCrash
    from repro.workloads.synthetic import SyntheticMix

    return ChaosTask(
        workload=SyntheticMix(
            1.0, 0.0, 0.0, iteration_seconds=0.5, iterations=4, n_ranks=4
        ),
        plan=FaultPlan(
            faults=(
                NodeCrash(node_id=1, at=0.5, downtime=0.75),
                DvfsStuck(node_id=2, at=0.25, duration=1.0),
            ),
            seed=3,
        ),
        budget_watts=80.0,
        policy="uniform",
        hardened=False,
        interval=0.2,
    )


def _golden_serving_task():
    from repro.serving.arrivals import MMPPArrivals
    from repro.serving.spec import ServingWorkload, TierSpec
    from repro.serving.sweep import ServingTask

    workload = ServingWorkload(
        tiers=(
            TierSpec("fe", nodes=1, service_cycles=1.0e6),
            TierSpec("app", nodes=2, service_cycles=4.0e6),
        ),
        arrivals=MMPPArrivals(
            20.0, 100.0, base_dwell_s=0.8, burst_dwell_s=0.3, seed=2
        ),
        horizon_s=1.5,
        timeout_s=3.0,
    )
    return ServingTask(
        workload, "elastic", budget_watts=60.0, knobs=("dvfs", "gate")
    )


class TestGoldenKeys:
    def test_specless_sweep_task(self):
        assert task_key(make_task(), salt=GOLDEN_SALT) == (
            "872b76bcbe1cffe05c5365ae0f33466a8bec2ac2b44984fc29c09788e99d0d42"
        )

    def test_sweep_task_with_two_group_spec(self):
        from repro.hardware.scaling import CORE_IO, tech_node
        from repro.hardware.spec import ClusterSpec, NodeSpec

        spec = ClusterSpec(
            groups=(
                NodeSpec(count=2),
                NodeSpec(count=2, tech=tech_node(16, "itrs"), core=CORE_IO),
            )
        )
        assert task_key(make_task(spec=spec), salt=GOLDEN_SALT) == (
            "3a7bd53cc0fe78aaef4d5780970f359acdd8be876d56c853130d5a2a77d414cc"
        )

    def test_chaos_task(self):
        from repro.faults import chaos_task_key

        assert chaos_task_key(_golden_chaos_task(), salt=GOLDEN_SALT) == (
            "3bae03426d453b4ea57ff370256c1019bce50336167f6cddcdba37853b199fe0"
        )

    def test_elastic_serving_task_with_knobs(self):
        from repro.serving.sweep import serving_task_key

        assert serving_task_key(_golden_serving_task(), salt=GOLDEN_SALT) == (
            "f7d83f2a665624f205b77a5e33854626a96dc0f6e42cebc1ef4b63da1fcb1450"
        )


def test_records_in_the_stored_layout_are_served_as_hits(tmp_path):
    """Chaos and serving records written in the stored meta layout
    (``kind``, ``workload``, ``report``) keep being served as hits, so a
    cache filled by an earlier build stays warm."""
    from repro.cache.store import RunCache
    from repro.faults import chaos_task_key, run_chaos_sweep
    from repro.metrics.chaos import ChaosReport
    from repro.metrics.records import EnergyDelayPoint
    from repro.metrics.serving import ServingReport, TierBreakdown
    from repro.serving.sweep import run_serving_sweep, serving_task_key

    chaos, serving = _golden_chaos_task(), _golden_serving_task()
    chaos_point = EnergyDelayPoint("cap@80W/uniform", 123.5, 2.25)
    chaos_report = ChaosReport(
        label="cap@80W/uniform", cap_watts=80.0, tolerance=0.02,
        energy_j=123.5, delay_s=2.25, total_windows=11, violation_windows=3,
        excused_violations=2, post_recovery_violations=1,
        worst_recovery_latency_s=0.4, n_transitions=3, repair_events=0,
        invariant_violations=1, allowed_recovery_s=1.0,
    )
    serving_point = EnergyDelayPoint("elastic", 45.0, 1.5)
    serving_report = ServingReport(
        label="elastic", n_requests=40, completed=38, dropped=1,
        timed_out=1, duration_s=1.5, throughput_rps=25.3, p50_s=0.01,
        p95_s=0.03, p99_s=0.05, energy_j=45.0, request_energy_j=30.0,
        unattributed_energy_j=15.0, energy_per_request_j=1.18,
        tiers=(TierBreakdown("fe", 38, 0.001, 0.002, 0.003, 0.004, 0.005),),
        cap_feasible_windows=5, cap_total_windows=6, cap_escalation="gate",
    )

    cache = RunCache(tmp_path)
    cache.put(
        chaos_task_key(chaos),
        chaos_point,
        meta={
            "kind": "chaos-report",
            "workload": chaos.workload.name,
            "report": chaos_report.to_dict(),
        },
    )
    cache.put(
        serving_task_key(serving),
        serving_point,
        meta={
            "kind": "serving-report",
            "workload": serving.workload.name,
            "report": serving_report.to_dict(),
        },
    )

    [chaos_out] = run_chaos_sweep([chaos], use_cache=cache)
    [serving_out] = run_serving_sweep([serving], use_cache=cache)
    assert (chaos_out.point, chaos_out.report) == (chaos_point, chaos_report)
    assert (serving_out.point, serving_out.report) == (
        serving_point,
        serving_report,
    )
    assert (cache.stats.hits, cache.stats.misses) == (2, 0)
