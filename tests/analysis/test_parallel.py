"""Tests for parallel sweeps: identical results to serial, any pool size."""

import os

import pytest

from repro.analysis.parallel import (
    STRATEGY_KINDS,
    SweepError,
    SweepTask,
    run_sweep,
)
from repro.analysis.runner import full_strategy_sweep
from repro.cache.store import RunCache
from repro.experiments.common import points_of
from repro.util.units import MHZ
from repro.workloads.micro import L2BoundMicro
from repro.workloads.nas_ft import NasFT


FREQS = [600 * MHZ, 1000 * MHZ, 1400 * MHZ]


def make_workload():
    return NasFT("S", n_ranks=4, iterations=2)


class CrashableMicro(L2BoundMicro):
    """An L2 walk that raises while a marker file exists.

    Module-level so it pickles into pool workers; the marker file lets
    the *same* task crash in one sweep and succeed in the next (the
    resume scenario) without changing its cache key between those runs.
    """

    def __init__(self, marker: str, crash: bool):
        super().__init__(passes=5)
        self.marker = marker
        self.crash = crash

    def program(self, comm, dvs):
        if self.crash and os.path.exists(self.marker):
            raise RuntimeError("injected worker crash")
        return (yield from super().program(comm, dvs))


def test_task_builds_each_strategy_kind():
    wl = make_workload()
    assert SweepTask(wl, "stat", 800 * MHZ).build_strategy().kind == "stat"
    assert SweepTask(wl, "cpuspeed").build_strategy().kind == "cpuspeed"
    dyn = SweepTask(wl, "dyn", 800 * MHZ, regions=("fft",)).build_strategy()
    assert dyn.kind == "dyn"


def test_task_validation():
    wl = make_workload()
    with pytest.raises(ValueError):
        SweepTask(wl, "stat").build_strategy()
    with pytest.raises(ValueError):
        SweepTask(wl, "dyn").build_strategy()
    with pytest.raises(ValueError):
        SweepTask(wl, "bogus").build_strategy()


def test_task_validates_at_construction_time():
    """A malformed sweep fails before any simulation starts, and the
    unknown-kind message enumerates the valid kinds."""
    wl = make_workload()
    with pytest.raises(ValueError, match="valid kinds: cpuspeed, dyn, stat"):
        SweepTask(wl, "bogus")
    with pytest.raises(ValueError, match="static task needs a frequency"):
        SweepTask(wl, "stat")
    with pytest.raises(ValueError, match="dynamic task needs a frequency"):
        SweepTask(wl, "dyn")
    assert SweepTask(wl, "cpuspeed").frequency is None  # no frequency needed


def test_strategy_kinds_is_the_public_vocabulary():
    assert STRATEGY_KINDS == ("cpuspeed", "dyn", "stat")
    for kind in STRATEGY_KINDS:
        frequency = None if kind == "cpuspeed" else 800 * MHZ
        task = SweepTask(make_workload(), kind, frequency=frequency)
        assert task.build_strategy().kind == kind


def test_inprocess_sweep_preserves_order():
    tasks = [SweepTask(make_workload(), "stat", f) for f in FREQS]
    points = run_sweep(tasks)
    assert [p.frequency for p in points] == FREQS


def grid_tasks(regions=None, include_dynamic=True):
    """The grid :func:`full_strategy_sweep` runs, as sweep tasks."""
    wl = make_workload()
    tasks = [SweepTask(wl, "cpuspeed")]
    tasks += [SweepTask(wl, "stat", frequency=f) for f in FREQS]
    if include_dynamic:
        tasks += [
            SweepTask(wl, "dyn", frequency=f, regions=regions) for f in FREQS
        ]
    return tasks


def test_parallel_sweep_matches_serial_bit_for_bit():
    """Determinism across process boundaries: the parallel sweep equals
    the serial one exactly."""
    serial = full_strategy_sweep(make_workload(), FREQS, regions=["fft"])
    serial_points = points_of(serial["cpuspeed"] + serial["stat"] + serial["dyn"])

    parallel = run_sweep(grid_tasks(regions=("fft",)), jobs=2)
    assert len(parallel) == len(serial_points)
    for a, b in zip(serial_points, parallel):
        assert a.energy == b.energy, a.label
        assert a.delay == b.delay, a.label
        assert a.label == b.label


def test_parallel_sweep_without_dynamic():
    serial = full_strategy_sweep(make_workload(), FREQS, include_dynamic=False)
    out = run_sweep(grid_tasks(include_dynamic=False), jobs=2)
    assert out == points_of(serial["cpuspeed"] + serial["stat"])


def test_worker_crash_completes_siblings_and_resumes_from_cache(tmp_path):
    """One crashing worker must not lose its siblings' results: they
    complete, land in the cache, and the re-run simulates only the gap."""
    marker = tmp_path / "crash-marker"
    marker.write_text("armed")
    tasks = [
        SweepTask(
            CrashableMicro(str(marker), crash=(f == 1000 * MHZ)),
            "stat",
            frequency=f,
        )
        for f in FREQS
    ]
    cache = RunCache(tmp_path / "cache")
    with pytest.raises(SweepError) as excinfo:
        run_sweep(tasks, jobs=2, use_cache=cache)
    err = excinfo.value
    assert [index for index, _, _ in err.failures] == [1]
    assert isinstance(err.failures[0][2], RuntimeError)
    assert "injected worker crash" in str(err)
    assert err.completed[1] is None
    assert err.completed[0] is not None and err.completed[2] is not None
    assert cache.stats.entries == 2  # the successes persisted immediately

    # "Fix the crash" and rerun: the cache fills everything but the gap.
    marker.unlink()
    resumed_cache = RunCache(tmp_path / "cache")
    points = run_sweep(tasks, use_cache=resumed_cache)
    assert points[0] == err.completed[0]
    assert points[2] == err.completed[2]
    assert points[1] is not None
    assert resumed_cache.stats.hits == 2
    assert resumed_cache.stats.misses == 1


def test_serial_crash_reports_all_failures_in_order(tmp_path):
    marker = tmp_path / "marker"
    marker.write_text("armed")
    tasks = [
        SweepTask(CrashableMicro(str(marker), crash=True), "stat", frequency=f)
        for f in FREQS
    ]
    with pytest.raises(SweepError) as excinfo:
        run_sweep(tasks)
    assert [index for index, _, _ in excinfo.value.failures] == [0, 1, 2]
    assert excinfo.value.completed == [None, None, None]


class InterruptingMicro(L2BoundMicro):
    """Raises a non-``Exception`` mid-run (a Ctrl-C / sys.exit stand-in)."""

    def __init__(self, exc_name: str):
        super().__init__(passes=5)
        self.exc_name = exc_name

    def program(self, comm, dvs):
        raise {"KeyboardInterrupt": KeyboardInterrupt, "SystemExit": SystemExit}[
            self.exc_name
        ]()
        yield  # pragma: no cover - makes this a generator


class TestFailureReporting:
    def test_traceback_points_at_the_original_raise_site(self, tmp_path):
        marker = tmp_path / "marker"
        marker.write_text("armed")
        tasks = [
            SweepTask(
                CrashableMicro(str(marker), crash=True), "stat", frequency=FREQS[0]
            )
        ]
        with pytest.raises(SweepError) as excinfo:
            run_sweep(tasks)
        err = excinfo.value
        assert len(err.tracebacks) == 1
        # The formatted traceback names the line that raised, not the
        # re-raise inside run_sweep.
        assert "injected worker crash" in err.tracebacks[0]
        assert "in program" in err.tracebacks[0]
        assert "in program" in str(err)  # and the message carries it too

    def test_pool_worker_traceback_travels_across_the_process_boundary(
        self, tmp_path
    ):
        marker = tmp_path / "marker"
        marker.write_text("armed")
        tasks = [
            SweepTask(CrashableMicro(str(marker), crash=True), "stat", frequency=f)
            for f in FREQS[:2]
        ]
        with pytest.raises(SweepError) as excinfo:
            run_sweep(tasks, jobs=2)
        # concurrent.futures chains the worker's formatted traceback as
        # the exception's cause (_RemoteTraceback); format_exception
        # follows the chain, so the original raise site survives the hop.
        for text in excinfo.value.tracebacks:
            assert "injected worker crash" in text
            assert "in program" in text

    @pytest.mark.parametrize("exc_name", ["KeyboardInterrupt", "SystemExit"])
    def test_interrupts_are_never_collected_into_a_sweeperror(self, exc_name):
        tasks = [
            SweepTask(InterruptingMicro(exc_name), "stat", frequency=f)
            for f in FREQS
        ]
        with pytest.raises((KeyboardInterrupt, SystemExit)):
            run_sweep(tasks)
