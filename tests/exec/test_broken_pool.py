"""Worker-death containment: a killed worker costs its in-flight tasks
one retry each on a respawned pool — never a cascading failure.

The killer tasks coordinate across processes through marker files: a
"kill-once" task SIGKILLs its own worker on the first attempt only, so
the retry (on the respawned pool) succeeds; a "kill-always" task kills
its worker on every attempt and must end up the sweep's sole casualty.
"""

import os
import signal
from dataclasses import dataclass
from typing import Optional

import pytest

from repro.analysis.parallel import SweepError, run_sweep
from repro.exec.backends import ProcessPoolBackend, TaskUnit
from repro.exec.retry import RetryPolicy, WorkerLostError, task_seed


def _units(tasks):
    return [TaskUnit(i, t, task_seed(i, t)) for i, t in enumerate(tasks)]


def _killer_execute(task):
    """``(value, marker_path_or_None, kill_always)`` — maybe die, else square."""
    value, marker, kill_always = task
    if marker is not None:
        if kill_always or not os.path.exists(marker):
            if not kill_always:
                with open(marker, "w", encoding="utf-8") as fh:
                    fh.write("killed once\n")
            os.kill(os.getpid(), signal.SIGKILL)
    return value * value


def _plain(value):
    return value, None, False


@dataclass(frozen=True)
class KillerTask:
    """The same maybe-die-else-square body as a sweep task."""

    value: int
    marker: Optional[str] = None
    kill_always: bool = False

    @property
    def label(self) -> str:
        return f"killer[{self.value}]"

    def run(self) -> int:
        return _killer_execute((self.value, self.marker, self.kill_always))


class TestKillOnce:
    def test_sweep_completes_with_one_retry_for_the_casualty(self, tmp_path):
        marker = str(tmp_path / "killed-once")
        tasks = [_plain(v) for v in range(6)]
        tasks[3] = (3, marker, False)

        streamed = {}
        attempts_by_index = {}

        def record(index, result, attempts):
            streamed[index] = result
            attempts_by_index[index] = attempts

        backend = ProcessPoolBackend(max_workers=2)
        failures = backend.run(_killer_execute, _units(tasks), on_result=record)

        assert failures == []
        assert streamed == {i: i * i for i in range(6)}
        # The killed task was charged exactly one lost-worker attempt.
        killed = attempts_by_index[3]
        assert len(killed) == 1
        assert "WorkerLostError" in killed[0].error
        # Innocent bystanders in the same in-flight window are charged at
        # most the same single attempt; nobody loops.
        for index, history in attempts_by_index.items():
            assert len(history) <= 1, (index, history)

    def test_run_sweep_streams_attempt_history(self, tmp_path):
        marker = str(tmp_path / "killed-once-sweep")
        tasks = [KillerTask(v) for v in range(4)]
        tasks[1] = KillerTask(1, marker)
        events = []
        results = run_sweep(
            tasks,
            backend=ProcessPoolBackend(max_workers=2),
            on_result=events.append,
        )
        assert results == [v * v for v in range(4)]
        retried = [e for e in events if e.index == 1]
        assert len(retried) == 1
        assert len(retried[0].attempts) == 1
        assert "WorkerLostError" in retried[0].attempts[0].error


class TestKillAlways:
    def test_repeat_killer_is_the_sole_casualty(self):
        tasks = [_plain(v) for v in range(5)]
        tasks[2] = (2, "/nonexistent-marker-dir/never-created", True)

        streamed = {}
        backend = ProcessPoolBackend(max_workers=2)
        retry = RetryPolicy(max_attempts=2, backoff_base_s=0.01)
        failures = backend.run(
            _killer_execute,
            _units(tasks),
            retry=retry,
            on_result=lambda i, r, a: streamed.__setitem__(i, r),
        )

        assert [f.index for f in failures] == [2]
        assert isinstance(failures[0].error, WorkerLostError)
        assert len(failures[0].attempts) == retry.max_attempts
        # Everyone else completed despite sharing pools with the killer.
        assert streamed == {0: 0, 1: 1, 3: 9, 4: 16}

    def test_sweep_error_reports_only_the_true_casualty(self):
        tasks = [KillerTask(v) for v in range(4)]
        tasks[0] = KillerTask(0, "/nonexistent-marker-dir/never-created", True)
        with pytest.raises(SweepError) as excinfo:
            run_sweep(
                tasks,
                backend=ProcessPoolBackend(max_workers=2),
                retry=RetryPolicy(max_attempts=2, backoff_base_s=0.01),
            )
        err = excinfo.value
        assert [i for i, _, _ in err.failures] == [0]
        assert err.completed == [None, 1, 4, 9]
        assert "task[0] (killer[0])" in str(err)
        assert "after 2 attempts" in str(err)
        assert "attempt history" in str(err)


class TestRespawnLimit:
    def test_gives_up_after_max_respawns(self):
        tasks = [(0, "/nonexistent-marker-dir/never-created", True)]
        backend = ProcessPoolBackend(max_workers=1, max_respawns=0)
        failures = backend.run(
            _killer_execute,
            _units(tasks),
            retry=RetryPolicy(max_attempts=10, backoff_base_s=0.0),
        )
        assert len(failures) == 1
        assert "giving up" in str(failures[0].error) or isinstance(
            failures[0].error, WorkerLostError
        )
