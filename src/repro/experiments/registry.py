"""Registry of all experiments (one per paper table/figure + extensions)."""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Dict, Optional, Union

from repro.analysis.records import ExperimentResult
from repro.cache.context import resolve_cache, sweep_context
from repro.cache.store import RunCache
from repro.experiments import (
    chaos,
    fig1,
    fig2,
    fig3,
    fig4,
    fig5,
    fig6,
    fig7,
    fig8,
    headline,
    knobmap,
    powercap,
    serving,
    tables,
    techscaling,
)

__all__ = ["EXPERIMENTS", "register", "run_experiment", "list_experiments"]

#: experiment id → zero-argument runner with paper-faithful defaults.
#: Populate through :func:`register`, which rejects duplicate ids.
EXPERIMENTS: Dict[str, Callable[[], ExperimentResult]] = {}


def register(
    experiment_id: str, runner: Callable[[], ExperimentResult]
) -> None:
    """Add an experiment to the registry.

    Raises
    ------
    ValueError
        If ``experiment_id`` is already registered — a silent overwrite
        would make ``repro-experiment <id>`` run different code depending
        on import order.
    """
    if experiment_id in EXPERIMENTS:
        raise ValueError(
            f"experiment id {experiment_id!r} is already registered "
            f"(to {EXPERIMENTS[experiment_id].__module__}."
            f"{EXPERIMENTS[experiment_id].__qualname__}); "
            "pick a distinct id"
        )
    EXPERIMENTS[experiment_id] = runner


for _id, _runner in [
    ("fig1", fig1.run),
    ("fig2", fig2.run),
    ("fig3", fig3.run),
    ("fig4", fig4.run),
    ("fig5", fig5.run),
    ("fig6", fig6.run),
    ("fig7", fig7.run),
    ("fig8", fig8.run),
    ("table1", tables.run_table1),
    ("table2", tables.run_table2),
    ("table3", tables.run_table3),
    ("headline", headline.run),
    ("powercap", powercap.run),
    ("chaos", chaos.run),
    ("knobmap", knobmap.run),
    ("serving", serving.run),
    ("techscaling", techscaling.run),
]:
    register(_id, _runner)
del _id, _runner


def list_experiments() -> Dict[str, str]:
    """Experiment ids (sorted) with one-line titles, without running them."""
    docs = {}
    for key in sorted(EXPERIMENTS):
        doc = (EXPERIMENTS[key].__doc__ or "").strip().splitlines()
        docs[key] = doc[0] if doc else ""
    return docs


def run_experiment(
    experiment_id: str,
    *,
    use_cache: Union[bool, RunCache] = False,
    cache_dir: Optional[Union[str, Path]] = None,
    jobs: Optional[int] = None,
    backend: object = None,
    retry: object = None,
    **kwargs,
) -> ExperimentResult:
    """Run one experiment by id.

    Parameters
    ----------
    use_cache:
        ``True`` to run under a content-addressed
        :class:`~repro.cache.store.RunCache` (completed operating points
        are skipped, new points are persisted as they finish), or an
        existing :class:`RunCache` instance to share one across calls.
    cache_dir:
        Cache directory when ``use_cache=True`` (default:
        ``$REPRO_CACHE_DIR`` or ``~/.cache/repro/runs``).
    jobs:
        Worker-process count for the experiment's sweeps: ``None`` keeps
        serial in-process execution, ``0`` forces ``os.cpu_count()``
        workers, ``N`` uses N workers.  Parallel runs are bit-identical
        to serial ones.
    backend:
        Sweep execution backend — ``"serial"``, ``"process"``, ``"mpi"``
        or an :class:`~repro.exec.backends.ExecBackend` instance;
        ``None`` infers from ``jobs``.  Results are bit-identical across
        backends (see ``docs/BACKENDS.md``).
    retry:
        A :class:`~repro.exec.retry.RetryPolicy` applied to every sweep
        task the experiment runs (``None`` = the sweep default: retry
        lost workers and timeouts, fail deterministic errors fast).
    kwargs:
        Forwarded to the experiment's runner (e.g. ``iterations=2``).
    """
    if experiment_id not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; "
            f"available: {sorted(EXPERIMENTS)}"
        )
    cache = resolve_cache(use_cache, cache_dir)
    if cache is None and jobs is None and backend is None and retry is None:
        return EXPERIMENTS[experiment_id](**kwargs)
    with sweep_context(cache=cache, jobs=jobs, backend=backend, retry=retry):
        return EXPERIMENTS[experiment_id](**kwargs)
