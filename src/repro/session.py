"""The stable front door: one object that carries your run options.

Everything :class:`Session` does is available from the deep modules —
:func:`repro.analysis.parallel.run_sweep`,
:func:`repro.experiments.registry.run_experiment`,
:func:`repro.analysis.runner.run_measured` — with the same keywords.
The session exists so scripts and notebooks state their policy *once*
(cache, parallelism, tracing, calibration) and every call inherits it::

    from repro import Session, SweepTask, Tracer
    from repro.workloads import NasFT

    s = Session(use_cache=True, jobs=0, tracer=Tracer())
    points = s.sweep(
        [SweepTask(NasFT("S", n_ranks=4, iterations=2), "stat",
                   frequency=f) for f in (6e8, 1e9, 1.4e9)]
    )
    s.export_trace("sweep.trace.json")

A session is cheap and stateless apart from its options and its shared
:class:`~repro.cache.store.RunCache` handle; make as many as you like.
"""

from __future__ import annotations

from contextlib import nullcontext
from pathlib import Path
from typing import List, Optional, Sequence, Union

from repro.cache.context import resolve_cache
from repro.cache.store import RunCache
from repro.hardware.calibration import Calibration
from repro.obs.tracer import Tracer, tracing

__all__ = ["Session"]


class Session:
    """Carries run options across sweeps, experiments, and single runs.

    Parameters (all keyword-only, all optional — the default session is
    serial, uncached, and untraced, exactly like calling the deep
    functions bare):

    ``use_cache`` / ``cache_dir``
        As in :func:`~repro.analysis.parallel.run_sweep`: ``True`` opens
        a content-addressed :class:`~repro.cache.store.RunCache` at
        ``cache_dir`` (default: ``$REPRO_CACHE_DIR`` or
        ``~/.cache/repro/runs``); a :class:`RunCache` is shared as-is.
        The session resolves the cache once, so every call shares one
        store and one hit/miss ledger (:attr:`cache`).
    ``jobs``
        Worker processes for sweeps: ``None`` = serial in-process,
        ``0`` = one per core, ``N`` = N workers.
    ``tracer``
        A :class:`~repro.obs.tracer.Tracer` recording everything the
        session runs (forces sweeps serial — see
        :func:`~repro.analysis.parallel.run_sweep`).  Feeds
        :meth:`attribution` and :meth:`export_trace`.
    ``backend``
        Sweep execution backend — ``"serial"``, ``"process"``, ``"mpi"``,
        or an :class:`~repro.exec.backends.ExecBackend` instance;
        ``None`` infers from ``jobs``.  Results are bit-identical across
        backends (see ``docs/BACKENDS.md``).
    ``retry``
        A :class:`~repro.exec.retry.RetryPolicy` applied to every sweep
        task (``None`` = the sweep default: retry lost workers and
        timeouts, fail deterministic errors fast).
    ``calibration``
        Default :class:`~repro.hardware.calibration.Calibration` for
        :meth:`run` (sweep tasks carry their own).
    """

    def __init__(
        self,
        *,
        use_cache: Union[bool, RunCache] = False,
        cache_dir: Optional[Union[str, Path]] = None,
        jobs: Optional[int] = None,
        tracer: Optional[Tracer] = None,
        backend: object = None,
        retry: object = None,
        calibration: Optional[Calibration] = None,
    ) -> None:
        self.cache: Optional[RunCache] = resolve_cache(use_cache, cache_dir)
        self.jobs = jobs
        self.tracer = tracer
        self.backend = backend
        self.retry = retry
        self.calibration = calibration

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = [
            f"jobs={self.jobs!r}",
            f"cached={self.cache is not None}",
            f"traced={self.tracer is not None}",
        ]
        return f"Session({', '.join(parts)})"

    # -- single runs ---------------------------------------------------
    def run(self, workload, strategy, cluster_factory=None, spec=None):
        """One measured run (traced when the session has a tracer).

        ``spec`` is an optional
        :class:`~repro.hardware.spec.ClusterSpec` selecting the hardware
        (``None`` = the paper's homogeneous cluster sized to the
        workload).  Returns a
        :class:`~repro.analysis.runner.MeasuredRun`.
        """
        from repro.analysis.runner import run_measured, traced_run

        if self.tracer is not None:
            return traced_run(
                workload,
                strategy,
                self.tracer,
                calibration=self.calibration,
                cluster_factory=cluster_factory,
                spec=spec,
            )
        return run_measured(
            workload,
            strategy,
            calibration=self.calibration,
            cluster_factory=cluster_factory,
            spec=spec,
        )

    # -- sweeps --------------------------------------------------------
    def sweep(self, tasks: Sequence) -> List:
        """:func:`~repro.analysis.parallel.run_sweep` with this
        session's cache, jobs, and tracer.

        ``tasks`` may mix families: operating points
        (:class:`~repro.analysis.parallel.SweepTask`), chaos runs and
        serving runs all speak the same task protocol.
        """
        from repro.analysis.parallel import run_sweep

        return run_sweep(
            tasks,
            jobs=self.jobs,
            use_cache=self.cache if self.cache is not None else False,
            tracer=self.tracer,
            backend=self.backend,
            retry=self.retry,
        )

    # -- experiments ---------------------------------------------------
    def experiment(self, experiment_id: str, **kwargs):
        """:func:`~repro.experiments.registry.run_experiment` under this
        session's cache and jobs (tracer installed for the call; a
        traced experiment runs its sweeps serially)."""
        from repro.experiments.registry import run_experiment

        jobs = self.jobs if self.tracer is None else None
        backend = self.backend if self.tracer is None else None
        scope = (
            tracing(self.tracer) if self.tracer is not None else nullcontext()
        )
        with scope:
            return run_experiment(
                experiment_id,
                use_cache=self.cache if self.cache is not None else False,
                jobs=jobs,
                backend=backend,
                retry=self.retry,
                **kwargs,
            )

    # -- observability -------------------------------------------------
    def attribution(self, run, *, categories=None, label="attribution"):
        """Per-rank, per-phase energy attribution of a traced run.

        ``run`` is the :class:`~repro.analysis.runner.MeasuredRun` that
        :meth:`run` returned; the session must have a tracer (the spans
        joined against the power timeline live in its ring buffers).
        Returns an :class:`~repro.metrics.attribution.AttributionReport`.
        """
        if self.tracer is None:
            raise ValueError(
                "attribution needs a traced session: "
                "Session(tracer=Tracer())"
            )
        from repro.metrics.attribution import (
            DEFAULT_CATEGORIES,
            build_attribution_report,
        )

        return build_attribution_report(
            run.cluster,
            self.tracer,
            run.spmd.start,
            run.spmd.end,
            categories=(
                tuple(categories) if categories else DEFAULT_CATEGORIES
            ),
            label=label,
        )

    def export_trace(
        self, path: Union[str, Path], format: str = "chrome", run=None
    ) -> int:
        """Write the session tracer's records to ``path``.

        ``format`` is ``"chrome"`` (trace-event JSON, loads in Perfetto
        and ``chrome://tracing``) or ``"jsonl"``.  Passing a measured
        ``run`` (what :meth:`run` returned) additionally exports each
        node's power timeline as one counter track per node, read off
        the frozen power series, so the Perfetto view shows watts next
        to the traced phases.  Returns the number of records written.
        """
        if self.tracer is None:
            raise ValueError(
                "export_trace needs a traced session: "
                "Session(tracer=Tracer())"
            )
        from repro.obs.export import (
            TraceData,
            export_chrome_trace,
            export_jsonl,
            power_counter_records,
        )

        source = TraceData.from_tracer(self.tracer)
        if run is not None:
            source.counters.extend(
                power_counter_records(
                    run.cluster, run.spmd.start, run.spmd.end
                )
            )
        if format == "chrome":
            return export_chrome_trace(path, source)
        if format == "jsonl":
            return export_jsonl(path, source)
        raise ValueError(
            f"unknown trace format {format!r}; use 'chrome' or 'jsonl'"
        )
