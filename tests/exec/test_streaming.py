"""Streamed sweep results: ``on_result`` events, progress counters, and
cache-hit short-circuits arriving before execution starts."""

from dataclasses import dataclass

import pytest

from repro.analysis.parallel import (
    SweepError,
    SweepEvent,
    SweepTask,
    run_sweep,
)
from repro.cache.store import RunCache
from repro.exec.retry import RetryPolicy
from repro.util.units import MHZ
from repro.workloads.micro import L2BoundMicro

FREQS = [600 * MHZ, 1000 * MHZ, 1400 * MHZ]


def make_tasks():
    return [
        SweepTask(L2BoundMicro(passes=3), "stat", frequency=f) for f in FREQS
    ]


class TestRunSweepStreaming:
    def test_cold_sweep_streams_run_events_with_progress(self):
        events = []
        points = run_sweep(make_tasks(), on_result=events.append)
        assert [e.index for e in events] == [0, 1, 2]
        assert all(isinstance(e, SweepEvent) for e in events)
        assert all(e.source == "run" for e in events)
        assert [e.completed for e in events] == [1, 2, 3]
        assert all(e.total == 3 for e in events)
        assert [e.result for e in events] == points
        assert all(e.attempts == () for e in events)
        assert all(e.label == "stat" for e in events)

    def test_warm_sweep_streams_cache_events_in_input_order(self, tmp_path):
        cache = RunCache(tmp_path)
        run_sweep(make_tasks(), use_cache=cache)
        events = []
        points = run_sweep(make_tasks(), use_cache=cache, on_result=events.append)
        assert [e.source for e in events] == ["cache"] * 3
        assert [e.index for e in events] == [0, 1, 2]
        assert [e.completed for e in events] == [1, 2, 3]
        assert [e.result for e in events] == points

    def test_partial_cache_mixes_sources(self, tmp_path):
        cache = RunCache(tmp_path)
        run_sweep(make_tasks()[:1], use_cache=cache)
        events = []
        run_sweep(make_tasks(), use_cache=cache, on_result=events.append)
        by_source = {e.index: e.source for e in events}
        assert by_source == {0: "cache", 1: "run", 2: "run"}
        # Cache hits land first, then fresh runs; counters stay monotonic.
        assert [e.completed for e in events] == [1, 2, 3]
        assert events[0].source == "cache"


@dataclass(frozen=True)
class FlakyTask:
    """Fails its first run per value (``seen`` is shared, in-process)."""

    value: int
    seen: set

    label = "flaky"

    def run(self) -> int:
        if self.value not in self.seen:
            self.seen.add(self.value)
            raise ValueError(f"transient {self.value}")
        return self.value * 10


@dataclass(frozen=True)
class EchoTask:
    value: int

    label = "echo"

    def run(self) -> int:
        return self.value


class TestAttemptStreaming:
    def test_retried_success_carries_attempt_history(self):
        events = []
        seen = set()
        results = run_sweep(
            [FlakyTask(1, seen), FlakyTask(2, seen)],
            backend="serial",
            retry=RetryPolicy(
                retry_all_errors=True, backoff_base_s=0.0, backoff_max_s=0.0
            ),
            on_result=events.append,
        )
        assert results == [10, 20]
        assert all(len(e.attempts) == 1 for e in events)
        assert all("transient" in e.attempts[0].error for e in events)

    def test_callback_exception_fails_that_task_only(self):
        def boomy(event):
            if event.index == 0:
                raise RuntimeError("observer bug")

        with pytest.raises(SweepError) as excinfo:
            run_sweep(
                [EchoTask(1), EchoTask(2)], backend="serial", on_result=boomy
            )
        assert [i for i, _, _ in excinfo.value.failures] == [0]
        assert excinfo.value.completed[1] == 2
