"""Pluggable sweep execution backends.

A backend answers one question: *given N independent, deterministic
tasks, run them all and stream each result back as it lands*.  The three
implementations cover the deployment spectrum:

* :class:`SerialBackend` — in-process, zero dependencies, the oracle
  every other backend must match bit for bit;
* :class:`ProcessPoolBackend` — one worker process per core (or an
  explicit count), with *broken-pool containment*: a worker killed
  mid-task (SIGKILL, OOM) costs exactly the in-flight tasks one retry
  attempt each on a respawned pool, instead of cascading a misleading
  ``BrokenProcessPool`` failure to every remaining task;
* :class:`~repro.exec.mpi.MpiBackend` — mpi4py ranks when MPI is
  present, degrading gracefully to a single-rank emulator when not.

Every attempt runs under the :class:`~repro.exec.retry.RetryPolicy`
contract: per-task wall-clock timeouts, exponential backoff with
deterministic jitter, and an :class:`~repro.exec.retry.AttemptRecord`
history that travels with both failures (via
:class:`~repro.analysis.parallel.SweepError`) and successes (via
streamed events).

Backends do not know about caching, tracing, or task semantics — the
sweep layer (:func:`repro.analysis.parallel.run_sweep`) owns those and
hands backends plain ``(index, task, seed)`` units plus a picklable
``execute`` callable.
"""

from __future__ import annotations

import abc
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Callable, List, Optional, Sequence, Tuple, Union

from repro.exec.retry import (
    DEFAULT_RETRY,
    AttemptRecord,
    RetryPolicy,
    WorkerLostError,
    call_with_timeout,
    format_error,
)

__all__ = [
    "BACKENDS",
    "ExecBackend",
    "ProcessPoolBackend",
    "SerialBackend",
    "TaskFailure",
    "TaskUnit",
    "resolve_backend",
]

#: The names :func:`resolve_backend` (and ``repro-experiment
#: --backend``) accepts.
BACKENDS = ("serial", "process", "mpi")

#: ``on_result(index, result, attempts)`` — called the moment a task
#: completes, with the failed-attempt history that preceded the success.
ResultCallback = Callable[[int, object, Tuple[AttemptRecord, ...]], None]


@dataclass(frozen=True)
class TaskUnit:
    """One schedulable task: its sweep index, payload, and jitter seed."""

    index: int
    task: object
    seed: str


@dataclass(frozen=True)
class TaskFailure:
    """A task that exhausted its attempts (or failed fast)."""

    index: int
    task: object
    error: BaseException
    attempts: Tuple[AttemptRecord, ...]


def _ignore_result(index, result, attempts) -> None:
    return None


def attempt_task(
    execute: Callable[[object], object],
    unit: TaskUnit,
    retry: RetryPolicy,
) -> Tuple[bool, object, Tuple[AttemptRecord, ...]]:
    """Run one task in this process under the retry policy.

    Returns ``(ok, result_or_error, attempts)`` where ``attempts`` holds
    one record per *failed* attempt.  ``KeyboardInterrupt`` /
    ``SystemExit`` always propagate.
    """
    attempts: List[AttemptRecord] = []
    while True:
        attempt_no = len(attempts) + 1
        try:
            result = call_with_timeout(execute, unit.task, retry.timeout_s)
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as exc:  # noqa: BLE001 - classified by the policy
            err_repr, err_tb = format_error(exc)
            if retry.is_retryable(exc) and attempt_no < retry.max_attempts:
                backoff = retry.backoff_s(attempt_no, unit.seed)
                attempts.append(
                    AttemptRecord(attempt_no, err_repr, err_tb, backoff)
                )
                time.sleep(backoff)
                continue
            attempts.append(AttemptRecord(attempt_no, err_repr, err_tb))
            return False, exc, tuple(attempts)
        return True, result, tuple(attempts)


class ExecBackend(abc.ABC):
    """How a sweep's pending tasks get executed.

    Contract (shared by every implementation, asserted in
    ``tests/exec/``):

    * results are streamed — ``on_result(index, result, attempts)`` is
      invoked the moment each task completes, never batched at the end
      (the cache-insertion hook that makes sweeps resumable);
    * an exception raised by a task is *collected* into the returned
      :class:`TaskFailure` list, not propagated — except
      ``KeyboardInterrupt``/``SystemExit``, which always propagate;
    * an exception raised by ``on_result`` itself is collected as that
      task's failure (never retried: re-running a simulation because a
      callback is buggy would mask the bug);
    * results are bit-identical across backends — tasks are pure
      functions of their spec, and backends add no nondeterminism.
    """

    name: str = "?"

    @abc.abstractmethod
    def run(
        self,
        execute: Callable[[object], object],
        units: Sequence[TaskUnit],
        *,
        retry: RetryPolicy = DEFAULT_RETRY,
        on_result: ResultCallback = _ignore_result,
    ) -> List[TaskFailure]:
        """Execute every unit; return the failures (empty = clean sweep)."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


def deliver(
    unit: TaskUnit,
    result: object,
    attempts: Tuple[AttemptRecord, ...],
    on_result: ResultCallback,
    failures: List[TaskFailure],
) -> None:
    """Hand one completed result to the callback, collecting its errors."""
    try:
        on_result(unit.index, result, attempts)
    except (KeyboardInterrupt, SystemExit):
        raise
    except Exception as exc:  # noqa: BLE001 - reported via SweepError
        err_repr, err_tb = format_error(exc)
        failures.append(
            TaskFailure(
                unit.index,
                unit.task,
                exc,
                attempts + (AttemptRecord(len(attempts) + 1, err_repr, err_tb),),
            )
        )


class SerialBackend(ExecBackend):
    """In-process execution, one task at a time, in input order.

    The reference implementation: no pickling, no processes, and the
    bit-identity oracle for the parallel backends.  Timeouts are
    enforced only when running on the main thread (``SIGALRM``).
    """

    name = "serial"

    def run(
        self,
        execute,
        units,
        *,
        retry: RetryPolicy = DEFAULT_RETRY,
        on_result: ResultCallback = _ignore_result,
    ) -> List[TaskFailure]:
        failures: List[TaskFailure] = []
        for unit in units:
            ok, payload, attempts = attempt_task(execute, unit, retry)
            if ok:
                deliver(unit, payload, attempts, on_result, failures)
            else:
                failures.append(
                    TaskFailure(unit.index, unit.task, payload, attempts)
                )
        return failures


def _pool_entry(execute, task, timeout_s):
    """Worker body: the task under its wall-clock budget (picklable)."""
    return call_with_timeout(execute, task, timeout_s)


@dataclass
class _TaskState:
    """Coordinator-side bookkeeping for one in-flight-or-queued task."""

    unit: TaskUnit
    attempts: List[AttemptRecord] = field(default_factory=list)
    ready_at: float = 0.0  #: monotonic time the next attempt may start


class ProcessPoolBackend(ExecBackend):
    """A ``ProcessPoolExecutor`` hardened against worker death.

    At most ``max_workers`` tasks are in flight at once (the rest queue
    in the coordinator, not the pool), so when a worker is killed and
    the executor breaks, the blast radius is exactly the in-flight
    window: each of those tasks is charged one
    :class:`~repro.exec.retry.WorkerLostError` attempt, the pool is
    respawned, and the survivors (plus the retryable casualties) run
    again.  Tasks that completed before the break keep their results.
    A task that *keeps* breaking the pool (it kills its own worker)
    exhausts its attempts and is reported as the sole casualty while its
    siblings complete — never the all-tasks ``BrokenProcessPool``
    cascade the bare executor produces.

    Parameters
    ----------
    max_workers:
        Worker processes (``None`` = one per core).
    max_respawns:
        Pool rebuilds tolerated before the backend gives up and fails
        the remaining tasks (a runaway-kill backstop).
    """

    name = "process"

    def __init__(
        self,
        max_workers: Optional[int] = None,
        max_respawns: int = 8,
    ) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError(
                f"max_workers must be None or >= 1, got {max_workers}"
            )
        if max_respawns < 0:
            raise ValueError(
                f"max_respawns must be >= 0, got {max_respawns}"
            )
        self.max_workers = max_workers
        self.max_respawns = max_respawns

    def _resolved_workers(self, n_tasks: int) -> int:
        import os

        workers = self.max_workers or os.cpu_count() or 1
        return max(1, min(workers, n_tasks))

    def run(
        self,
        execute,
        units,
        *,
        retry: RetryPolicy = DEFAULT_RETRY,
        on_result: ResultCallback = _ignore_result,
    ) -> List[TaskFailure]:
        failures: List[TaskFailure] = []
        queue = deque(_TaskState(unit) for unit in units)
        waiting: List[Tuple[float, int, _TaskState]] = []  # backoff heap
        inflight: dict = {}  # Future -> _TaskState
        tiebreak = 0
        pool: Optional[ProcessPoolExecutor] = None
        respawns = 0
        workers = self._resolved_workers(len(units))

        def requeue_or_fail(state: _TaskState, error: BaseException) -> None:
            nonlocal tiebreak
            attempt_no = len(state.attempts) + 1
            err_repr, err_tb = format_error(error)
            retryable = (
                retry.is_retryable(error) and attempt_no < retry.max_attempts
            )
            backoff = (
                retry.backoff_s(attempt_no, state.unit.seed)
                if retryable
                else 0.0
            )
            state.attempts.append(
                AttemptRecord(attempt_no, err_repr, err_tb, backoff)
            )
            if retryable:
                state.ready_at = time.monotonic() + backoff
                tiebreak += 1
                heappush(waiting, (state.ready_at, tiebreak, state))
            else:
                failures.append(
                    TaskFailure(
                        state.unit.index,
                        state.unit.task,
                        error,
                        tuple(state.attempts),
                    )
                )

        def handle_broken_pool() -> None:
            """Contain a worker death: drain, charge, respawn."""
            nonlocal pool, respawns
            for future, state in list(inflight.items()):
                del inflight[future]
                if future.done() and not future.cancelled():
                    try:
                        result = future.result(timeout=0)
                    except (KeyboardInterrupt, SystemExit):
                        raise
                    except BrokenExecutor:
                        requeue_or_fail(
                            state,
                            WorkerLostError(
                                "worker process died (killed or crashed) "
                                "while this task was in flight"
                            ),
                        )
                    except Exception as exc:  # noqa: BLE001
                        requeue_or_fail(state, exc)
                    else:
                        deliver(
                            state.unit,
                            result,
                            tuple(state.attempts),
                            on_result,
                            failures,
                        )
                else:
                    future.cancel()
                    requeue_or_fail(
                        state,
                        WorkerLostError(
                            "worker process died (killed or crashed) "
                            "while this task was in flight"
                        ),
                    )
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)
                pool = None
            respawns += 1
            if respawns > self.max_respawns:
                while waiting:
                    _, _, state = heappop(waiting)
                    _fail_respawn_limit(state, failures, self.max_respawns)
                while queue:
                    _fail_respawn_limit(
                        queue.popleft(), failures, self.max_respawns
                    )

        try:
            while queue or waiting or inflight:
                now = time.monotonic()
                while waiting and waiting[0][0] <= now:
                    _, _, state = heappop(waiting)
                    queue.append(state)
                while queue and len(inflight) < workers:
                    if pool is None:
                        pool = ProcessPoolExecutor(max_workers=workers)
                    state = queue.popleft()
                    try:
                        future = pool.submit(
                            _pool_entry, execute, state.unit.task,
                            retry.timeout_s,
                        )
                    except BrokenExecutor:
                        queue.appendleft(state)
                        handle_broken_pool()
                        break
                    inflight[future] = state
                if not inflight:
                    if waiting:
                        pause = waiting[0][0] - time.monotonic()
                        if pause > 0:
                            time.sleep(pause)
                    continue
                timeout = None
                if waiting:
                    timeout = max(0.0, waiting[0][0] - time.monotonic())
                done, _ = wait(
                    set(inflight), timeout=timeout,
                    return_when=FIRST_COMPLETED,
                )
                broken = False
                for future in done:
                    state = inflight.pop(future)
                    try:
                        result = future.result()
                    except (KeyboardInterrupt, SystemExit):
                        raise
                    except BrokenExecutor:
                        broken = True
                        requeue_or_fail(
                            state,
                            WorkerLostError(
                                "worker process died (killed or crashed) "
                                "while this task was in flight"
                            ),
                        )
                    except Exception as exc:  # noqa: BLE001
                        requeue_or_fail(state, exc)
                    else:
                        deliver(
                            state.unit,
                            result,
                            tuple(state.attempts),
                            on_result,
                            failures,
                        )
                if broken:
                    handle_broken_pool()
        finally:
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)
        return failures


def _fail_respawn_limit(
    state: _TaskState, failures: List[TaskFailure], limit: int
) -> None:
    error = WorkerLostError(
        f"giving up: the worker pool broke more than {limit} times "
        "(max_respawns); remaining tasks were not attempted further"
    )
    err_repr, err_tb = format_error(error)
    state.attempts.append(
        AttemptRecord(len(state.attempts) + 1, err_repr, err_tb)
    )
    failures.append(
        TaskFailure(
            state.unit.index, state.unit.task, error, tuple(state.attempts)
        )
    )


def resolve_backend(
    backend: Union[str, ExecBackend, None] = None,
    *,
    jobs: Optional[int] = None,
    n_pending: Optional[int] = None,
) -> ExecBackend:
    """The one backend-selection convention.

    ``backend`` is an :class:`ExecBackend` instance (returned as-is), a
    name from :data:`BACKENDS`, or ``None`` to infer from ``jobs`` (the
    public convention: ``None`` = serial in-process, ``0`` = one worker
    per core, ``N`` = N workers).  When inferring, a sweep with at most
    one pending task (``n_pending``) stays serial — spawning a pool for
    a single run is pure overhead.  A named ``"process"`` backend takes
    its worker count from ``jobs`` (``None``/``0`` = one per core).
    """
    if isinstance(backend, ExecBackend):
        return backend
    if backend is None:
        serial = jobs is None or (n_pending is not None and n_pending <= 1)
        backend = "serial" if serial else "process"
    if backend == "serial":
        return SerialBackend()
    if backend == "process":
        return ProcessPoolBackend(max_workers=jobs or None)
    if backend == "mpi":
        from repro.exec.mpi import MpiBackend

        return MpiBackend()
    raise ValueError(
        f"unknown backend {backend!r}; valid backends: "
        f"{', '.join(BACKENDS)} (or an ExecBackend instance)"
    )
