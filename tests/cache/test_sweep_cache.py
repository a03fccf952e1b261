"""End-to-end cache behaviour: warm replay, resume, parallel identity."""

import time

from repro.analysis.parallel import SweepTask, run_sweep
from repro.cache.keys import task_key
from repro.cache.store import RunCache
from repro.util.units import MHZ
from repro.workloads.transpose import ParallelTranspose


FREQS = [600 * MHZ, 800 * MHZ, 1000 * MHZ, 1200 * MHZ, 1400 * MHZ]
REGIONS = ["step2", "step3"]


def make_workload():
    # The fig5 geometry (5×3 grid, 15 ranks) at a test-sized matrix.
    return ParallelTranspose(
        matrix_n=600, grid_rows=5, grid_cols=3, iterations=1
    )


def full_grid():
    """The fig5 grid: cpuspeed plus a static and a dynamic crescendo."""
    wl = make_workload()
    return (
        [SweepTask(wl, "cpuspeed")]
        + [SweepTask(wl, "stat", frequency=f) for f in FREQS]
        + [
            SweepTask(wl, "dyn", frequency=f, regions=tuple(REGIONS))
            for f in FREQS
        ]
    )


def test_warm_sweep_is_bit_identical_and_order_of_magnitude_faster(tmp_path):
    """Acceptance: a repeated fig5-style sweep against a warm cache runs
    >=10x faster than cold and returns bit-identical points."""
    cold_cache = RunCache(tmp_path)
    t0 = time.perf_counter()
    cold = run_sweep(full_grid(), use_cache=cold_cache)
    cold_seconds = time.perf_counter() - t0
    assert cold_cache.stats.misses == 11  # cpuspeed + 5 stat + 5 dyn
    assert cold_cache.stats.entries == 11

    warm_cache = RunCache(tmp_path)  # fresh instance: hits come from disk
    t0 = time.perf_counter()
    warm = run_sweep(full_grid(), use_cache=warm_cache)
    warm_seconds = time.perf_counter() - t0

    # EnergyDelayPoint is a frozen dataclass: == is exact field equality.
    assert warm == cold
    assert warm_cache.stats.hits == 11
    assert warm_cache.stats.misses == 0
    assert cold_seconds >= 10 * warm_seconds, (
        f"warm replay not >=10x faster: cold {cold_seconds:.4f}s, "
        f"warm {warm_seconds:.4f}s"
    )


def test_resume_simulates_only_the_gap(tmp_path):
    tasks = [
        SweepTask(make_workload(), "stat", frequency=f) for f in FREQS[:3]
    ]
    full = run_sweep(tasks, use_cache=RunCache(tmp_path / "full"))

    # Reconstruct an interrupted sweep: all but the last point persisted.
    partial_dir = tmp_path / "partial"
    partial = RunCache(partial_dir)
    for task, point in zip(tasks[:-1], full[:-1]):
        partial.put(task_key(task), point)

    resumed_cache = RunCache(partial_dir)
    resumed = run_sweep(tasks, use_cache=resumed_cache)
    assert resumed == full
    assert resumed_cache.stats.hits == 2
    assert resumed_cache.stats.misses == 1  # only the gap was simulated


def test_parallel_cached_sweep_matches_serial(tmp_path):
    tasks = [
        SweepTask(make_workload(), "stat", frequency=f) for f in FREQS[:3]
    ]
    serial = run_sweep(tasks)

    cache = RunCache(tmp_path)
    parallel = run_sweep(tasks, jobs=2, use_cache=cache)
    assert parallel == serial
    assert cache.stats.entries == 3
    # Every point the parallel run persisted replays exactly.
    assert [cache.get(task_key(t)) for t in tasks] == serial


def test_cache_stores_workload_metadata(tmp_path):
    cache = RunCache(tmp_path)
    task = SweepTask(make_workload(), "cpuspeed")
    run_sweep([task], use_cache=cache)
    _, meta = cache.get(task_key(task), with_meta=True)
    assert meta == {"workload": make_workload().name}
