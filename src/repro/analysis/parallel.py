"""Fault-tolerant experiment sweeps over pluggable backends, with a run cache.

Every run in a crescendo is an independent simulation with no shared
state, so sweeps parallelise embarrassingly.  Because the simulator is
fully deterministic, every backend returns *bit-identical* results to
the serial one — asserted in the tests — so callers pick whichever fits
their machine: in-process serial, a hardened local process pool, or
mpi4py ranks (``backend="serial" | "process" | "mpi"``, see
:mod:`repro.exec` and ``docs/BACKENDS.md``).

Every sweep family speaks one task protocol (:class:`Task`): a picklable,
frozen task names itself (``label``), hashes itself (``key()``), runs
itself on a fresh cluster in whatever worker picks it up (``run()``),
and encodes its outcome to and from the run cache (``load``/``store``).
:class:`SweepTask` (an operating point of the paper's crescendo),
:class:`~repro.faults.sweep.ChaosTask` and
:class:`~repro.serving.sweep.ServingTask` all implement it, so
:func:`run_sweep` runs any mix of them;
:func:`~repro.faults.sweep.run_chaos_sweep` and
:func:`~repro.serving.sweep.run_serving_sweep` are aliases of it.

Determinism also makes runs *cacheable*: pass a
:class:`~repro.cache.store.RunCache` and :func:`run_sweep` resolves each
task to its content hash, returns stored outcomes for hits, and inserts
every fresh outcome as it completes.  Insertion-on-completion is what
makes sweeps **resumable**: an interrupted, crashed, or half-killed
sweep has already persisted its finished outcomes, so the re-run
simulates only the gap.  Results also *stream*: pass ``on_result`` and
every completed outcome (cache hits included) arrives as a
:class:`SweepEvent` with progress counters the moment it lands, instead
of gather-at-the-end.

Failures are collected, not contagious: a task that raises does not
stop the remaining tasks, and a task whose *worker* dies (SIGKILL, OOM)
costs only that task a retry on a respawned pool — never a cascading
``BrokenProcessPool`` failure for every sibling.  Retries, backoff, and
per-task timeouts follow the sweep's
:class:`~repro.exec.retry.RetryPolicy`.  When any task remains failed
after its attempts, :func:`run_sweep` finishes everything else (caching
the successes) and then raises :class:`SweepError` listing each failed
task by index with its per-attempt history.
"""

from __future__ import annotations

import traceback
import warnings
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Callable,
    ClassVar,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
)

import repro.cache.keys as cache_keys
from repro.cache.context import resolve_cache
from repro.dvs.strategy import (
    CpuspeedStrategy,
    DVSStrategy,
    DynamicStrategy,
    StaticStrategy,
)
from repro.exec.backends import (
    ExecBackend,
    SerialBackend,
    TaskUnit,
    resolve_backend,
)
from repro.exec.retry import (
    DEFAULT_RETRY,
    AttemptRecord,
    RetryPolicy,
    format_attempts,
    task_seed,
)
from repro.hardware.calibration import Calibration
from repro.hardware.spec import ClusterSpec
from repro.metrics.protocol import ReportProtocol
from repro.metrics.records import EnergyDelayPoint
from repro.obs.tracer import Tracer, tracing
from repro.workloads.base import Workload

__all__ = [
    "STRATEGY_KINDS",
    "ReportCodec",
    "ReportOutcome",
    "SweepError",
    "SweepEvent",
    "SweepTask",
    "Task",
    "run_sweep",
]

#: The strategy recipes a :class:`SweepTask` can describe.
STRATEGY_KINDS = ("cpuspeed", "dyn", "stat")


class SweepError(RuntimeError):
    """One or more sweep tasks failed (the rest completed).

    Attributes
    ----------
    failures:
        ``(index, task, error)`` for every failed task, in input order.
    completed:
        The full result list, ``None`` at each failed index — everything
        that *did* finish (and was cached, when a cache was active).
    attempts:
        Per-failure attempt histories aligned with ``failures``: each a
        tuple of :class:`~repro.exec.retry.AttemptRecord` covering every
        attempt the retry policy allowed (timeouts, lost workers, and
        the final error all appear).
    tracebacks:
        Formatted traceback text aligned with ``failures`` — the original
        raise site, not the re-raise here.  Pool workers' tracebacks
        travel through the exception's cause chain (``_RemoteTraceback``)
        and are included.
    """

    def __init__(
        self,
        failures: Sequence[Tuple[int, object, BaseException]],
        completed: Sequence[Optional[object]],
        attempts: Optional[Sequence[Tuple[AttemptRecord, ...]]] = None,
    ):
        self.failures = list(failures)
        self.completed = list(completed)
        self.attempts: List[Tuple[AttemptRecord, ...]] = (
            [tuple(a) for a in attempts]
            if attempts is not None
            else [() for _ in self.failures]
        )
        self.tracebacks: List[str] = [
            "".join(traceback.format_exception(type(err), err, err.__traceback__))
            for _, _, err in self.failures
        ]
        summary = "; ".join(
            f"task[{i}] ({getattr(task, 'label', type(task).__name__)}): "
            f"{err!r}"
            + (
                f" after {len(history)} attempts"
                if len(history) > 1
                else ""
            )
            for (i, task, err), history in zip(self.failures, self.attempts)
        )
        histories = "\n".join(
            f"task[{i}] attempt history:\n{format_attempts(history)}"
            for (i, _, _), history in zip(self.failures, self.attempts)
            if history
        )
        super().__init__(
            f"{len(self.failures)} of {len(self.completed)} sweep tasks "
            f"failed: {summary}\n"
            + (histories + "\n" if histories else "")
            + "\n".join(self.tracebacks)
        )


@dataclass(frozen=True)
class SweepEvent:
    """One streamed sweep completion (see ``on_result``).

    ``source`` is ``"cache"`` for a warm hit (streamed before execution
    starts, in input order) or ``"run"`` for a freshly executed task.
    ``completed``/``total`` are progress counters: ``completed`` counts
    this event.  ``attempts`` carries the failed attempts that preceded
    a successful run (empty for first-try successes and cache hits).
    """

    index: int
    total: int
    completed: int
    source: str
    result: object
    label: str = ""
    attempts: Tuple[AttemptRecord, ...] = ()


class Task(Protocol):
    """What :func:`run_sweep` asks of a task.

    ``label`` names the task in every :class:`SweepEvent`, tracer span
    and :class:`SweepError` message.  ``run()`` is the worker body: it runs
    the task on a fresh cluster and returns its outcome (tasks must be
    picklable for the parallel backends).  With a cache active, ``key()``
    is the task's content hash, ``load(cache, key)`` decodes a stored
    outcome (``None`` on a miss or a foreign record) and
    ``store(cache, key, outcome)`` persists a fresh one.
    """

    label: str

    def key(self) -> str: ...

    def run(self) -> object: ...

    def load(self, cache, key: str) -> Optional[object]: ...

    def store(self, cache, key: str, outcome: object) -> None: ...


@dataclass(frozen=True)
class ReportOutcome:
    """What a report-carrying task (chaos, serving) produces: its point
    plus its report."""

    point: EnergyDelayPoint
    report: ReportProtocol


class ReportCodec:
    """The cache codec of a task whose outcome is a :class:`ReportOutcome`.

    The point is the record's point; the report and the task's
    ``workload`` name ride in its meta, tagged with ``meta_kind``.  A
    record of another family stored under the same key never decodes as
    this one, and a record whose report does not parse falls through to
    re-simulation.
    """

    meta_kind: ClassVar[str]
    report_type: ClassVar[type]  #: decoded with ``report_type.from_dict``

    def load(self, cache, key: str) -> Optional[object]:
        hit = cache.get(key, with_meta=True)
        if hit is None:
            return None
        point, meta = hit
        if not meta or meta.get("kind") != self.meta_kind:
            return None
        try:
            report = self.report_type.from_dict(meta["report"])
        except (KeyError, TypeError, ValueError):
            return None  # poisoned meta: fall through to re-simulation
        return ReportOutcome(point=point, report=report)

    def store(self, cache, key: str, outcome) -> None:
        cache.put(
            key,
            outcome.point,
            meta={
                "kind": self.meta_kind,
                "workload": getattr(self.workload, "name", ""),
                "report": outcome.report.to_dict(),
            },
        )


@dataclass(frozen=True)
class SweepTask:
    """One run: a workload plus a strategy recipe (picklable).

    Validated at construction time, so a malformed sweep fails before any
    simulation (or pool) is started.
    """

    workload: Workload
    strategy_kind: str  #: one of :data:`STRATEGY_KINDS`
    frequency: Optional[float] = None  #: static/dynamic base frequency (Hz)
    regions: Optional[tuple] = None  #: dynamic-region names
    calibration: Optional[Calibration] = None
    spec: Optional[ClusterSpec] = None  #: cluster hardware (None = legacy)

    def __post_init__(self) -> None:
        if self.strategy_kind not in STRATEGY_KINDS:
            raise ValueError(
                f"unknown strategy kind {self.strategy_kind!r}; "
                f"valid kinds: {', '.join(STRATEGY_KINDS)}"
            )
        if self.strategy_kind in ("stat", "dyn") and self.frequency is None:
            noun = "static" if self.strategy_kind == "stat" else "dynamic"
            raise ValueError(
                f"{noun} task needs a frequency "
                f"(SweepTask(workload, {self.strategy_kind!r}, frequency=...))"
            )
        if self.spec is not None and self.spec.n_nodes < self.workload.n_ranks:
            raise ValueError(
                f"cluster spec has {self.spec.n_nodes} nodes; workload "
                f"needs {self.workload.n_ranks}"
            )

    @property
    def label(self) -> str:
        return self.strategy_kind

    def key(self) -> str:
        return cache_keys.task_key(self)

    def run(self) -> EnergyDelayPoint:
        from repro.analysis.runner import run_measured

        return run_measured(
            self.workload,
            self.build_strategy(),
            calibration=self.calibration,
            spec=self.spec,
        ).point

    def load(self, cache, key: str) -> Optional[EnergyDelayPoint]:
        return cache.get(key)

    def store(self, cache, key: str, point: EnergyDelayPoint) -> None:
        cache.put(
            key, point, meta={"workload": getattr(self.workload, "name", "")}
        )

    def build_strategy(self) -> DVSStrategy:
        if self.strategy_kind == "stat":
            if self.frequency is None:
                raise ValueError("static task needs a frequency")
            return StaticStrategy(self.frequency)
        if self.strategy_kind == "dyn":
            if self.frequency is None:
                raise ValueError("dynamic task needs a base frequency")
            return DynamicStrategy(
                self.frequency,
                regions=list(self.regions) if self.regions else None,
            )
        if self.strategy_kind == "cpuspeed":
            return CpuspeedStrategy()
        raise ValueError(
            f"unknown strategy kind {self.strategy_kind!r}; "
            f"valid kinds: {', '.join(STRATEGY_KINDS)}"
        )


def _run_task(task: Task) -> object:
    """Worker body: run one task (picklable, unlike a bound method)."""
    return task.run()


def _warn_tracer_override(jobs: Optional[int], backend) -> None:
    """Name the ``jobs``/``backend`` request a tracer overrides.

    A tracer records into this process's ring buffers, so pool workers
    would trace into the void: tracing forces serial in-process
    execution.
    """
    requested = []
    if jobs is not None:
        requested.append(f"jobs={jobs!r}")
    if backend not in (None, "serial") and not isinstance(
        backend, SerialBackend
    ):
        requested.append(f"backend={getattr(backend, 'name', backend)!r}")
    if requested:
        warnings.warn(
            "run_sweep: a tracer records into this process's ring "
            "buffers, so tracing forces serial in-process execution; "
            f"ignoring {' and '.join(requested)}",
            UserWarning,
            stacklevel=3,
        )


def run_sweep(
    tasks: Sequence[Task],
    *,
    jobs: Optional[int] = None,
    use_cache: Union[bool, object] = False,
    cache_dir: Optional[Union[str, Path]] = None,
    tracer: Optional[Tracer] = None,
    backend: Union[str, ExecBackend, None] = None,
    retry: Optional[RetryPolicy] = None,
    on_result: Optional[Callable[[SweepEvent], None]] = None,
) -> List:
    """Run tasks of any family (any mix of them), preserving input order.

    Returns each task's outcome: an
    :class:`~repro.metrics.records.EnergyDelayPoint` for a
    :class:`SweepTask`, a :class:`ReportOutcome` for a
    :class:`~repro.faults.sweep.ChaosTask` or a
    :class:`~repro.serving.sweep.ServingTask`.

    Parameters (keyword-only):

    ``jobs``
        ``None`` runs serial in-process (the default), ``0`` uses one
        worker process per CPU core, ``N`` uses N workers.  Parallel
        runs are bit-identical to serial ones.
    ``use_cache`` / ``cache_dir``
        ``True`` opens a :class:`~repro.cache.store.RunCache` at
        ``cache_dir`` (default: ``$REPRO_CACHE_DIR`` or
        ``~/.cache/repro/runs``); an existing :class:`RunCache` is
        shared as-is.  Stored outcomes short-circuit their tasks and
        fresh outcomes persist the moment they complete, so interrupted
        sweeps resume.  The store is safe to share between concurrent
        sweeps (see ``docs/CACHING.md``).
    ``tracer``
        A :class:`~repro.obs.tracer.Tracer` to record the sweep into:
        installed as the active tracer for the whole call (deep
        simulator instrumentation included) plus one wall-clock span
        per executed task.  Forces serial in-process execution (a
        ``UserWarning`` names the override when it ignores an explicit
        ``jobs``/``backend``).
    ``backend``
        ``"serial"``, ``"process"``, ``"mpi"``, or an
        :class:`~repro.exec.backends.ExecBackend` instance; ``None``
        infers from ``jobs``.  See ``docs/BACKENDS.md``.
    ``retry``
        A :class:`~repro.exec.retry.RetryPolicy` bounding per-task
        attempts, backoff, and wall-clock timeout.  The default retries
        substrate failures (lost workers, timeouts) up to 3 attempts
        and fails deterministic task errors fast.
    ``on_result``
        Streaming callback: invoked with a :class:`SweepEvent` the
        moment each result lands (cache hits first, in input order;
        then fresh runs in completion order) with progress counters.

    Raises
    ------
    SweepError
        After all tasks have been attempted, if any of them failed —
        with per-task attempt histories attached.
    """
    if jobs is not None and jobs < 0:
        raise ValueError(f"jobs must be None or >= 0, got {jobs}")
    run_cache = resolve_cache(use_cache, cache_dir)
    scope = tracing(tracer) if tracer is not None else nullcontext()
    with scope:
        total = len(tasks)
        results: List[Optional[object]] = [None] * total
        keys: List[Optional[str]] = [None] * total
        completed = 0
        if run_cache is not None:
            for i, task in enumerate(tasks):
                keys[i] = task.key()
                results[i] = task.load(run_cache, keys[i])

        pending = [i for i, r in enumerate(results) if r is None]
        if on_result is not None:
            for i, hit in enumerate(results):
                if hit is not None:
                    completed += 1
                    on_result(
                        SweepEvent(
                            i, total, completed, "cache", hit, tasks[i].label
                        )
                    )

        def finish(index: int, result: object, attempts) -> None:
            nonlocal completed
            results[index] = result
            if run_cache is not None:
                tasks[index].store(run_cache, keys[index], result)
            completed += 1
            if on_result is not None:
                on_result(
                    SweepEvent(
                        index, total, completed, "run", result,
                        tasks[index].label, tuple(attempts),
                    )
                )

        if tracer is None:
            execute: Callable[[Task], object] = _run_task
            backend_obj = resolve_backend(
                backend, jobs=jobs, n_pending=len(pending)
            )
        else:
            _warn_tracer_override(jobs, backend)

            def execute(task: Task) -> object:
                with tracer.wall_span(task.label, "sweep.task", "sweep"):
                    return task.run()

            backend_obj = SerialBackend()
        units = [
            TaskUnit(i, tasks[i], task_seed(i, tasks[i], keys[i]))
            for i in pending
        ]
        task_failures = backend_obj.run(
            execute,
            units,
            retry=retry if retry is not None else DEFAULT_RETRY,
            on_result=finish,
        )
    if task_failures:
        ordered = sorted(task_failures, key=lambda f: f.index)
        raise SweepError(
            [(f.index, f.task, f.error) for f in ordered],
            results,
            attempts=[f.attempts for f in ordered],
        )
    return results
