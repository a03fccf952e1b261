"""The ambient sweep context: caching, parallelism, and backends without
plumbing.

Thirteen experiment drivers build crescendos through the shared helpers
in :mod:`repro.experiments.common`.  Rather than thread
``cache``/``jobs``/``backend`` arguments through every ``fig*.run``
signature, the registry (and anything else) installs a
:class:`SweepContext` for the duration of a call::

    from repro.cache import RunCache, sweep_context
    from repro.experiments.registry import run_experiment

    with sweep_context(cache=RunCache("/tmp/repro-cache"), jobs=4):
        result = run_experiment("fig5")

Helpers that honour the context (``static_points``, ``dynamic_points``,
``cpuspeed_point``, ``strategy_point_sweep``) route through
:func:`repro.analysis.parallel.run_sweep` with the active cache, worker
count, execution backend, and retry policy.  The default context (no
cache, in-process serial execution, default retries) reproduces the
pre-cache behaviour exactly.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional, Union

from repro.cache.store import RunCache

__all__ = [
    "SweepContext",
    "active_context",
    "default_cache_dir",
    "resolve_cache",
    "sweep_context",
]


@dataclass(frozen=True)
class SweepContext:
    """What ambient machinery sweeps should use.

    ``jobs`` has :func:`~repro.analysis.parallel.run_sweep`'s meaning:
    ``None`` runs in-process (the default — serial, no pool), ``0`` uses
    ``os.cpu_count()`` workers, ``N`` uses N workers.  ``backend`` is a
    name from :data:`repro.exec.backends.BACKENDS` (or an
    :class:`~repro.exec.backends.ExecBackend` instance); ``None`` infers
    from ``jobs``.  ``retry`` is a
    :class:`~repro.exec.retry.RetryPolicy` (``None`` = the sweep
    default).
    """

    cache: Optional[RunCache] = None
    jobs: Optional[int] = None
    backend: object = None
    retry: object = None


_ACTIVE: ContextVar[SweepContext] = ContextVar(
    "repro_sweep_context", default=SweepContext()
)


def active_context() -> SweepContext:
    """The currently-installed context (default: no cache, serial)."""
    return _ACTIVE.get()


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro/runs``."""
    env = os.environ.get("REPRO_CACHE_DIR", "").strip()
    if env:
        return Path(env).expanduser()
    return Path("~/.cache/repro/runs").expanduser()


def resolve_cache(
    use_cache: Union[bool, RunCache, None],
    cache_dir: Optional[Union[str, Path]] = None,
) -> Optional[RunCache]:
    """The one ``use_cache``/``cache_dir`` convention, shared by
    :func:`repro.analysis.parallel.run_sweep`, the experiment registry,
    and :class:`repro.session.Session`.

    ``use_cache`` is a :class:`RunCache` to share (returned as-is),
    ``True`` to open one at ``cache_dir`` (default:
    :func:`default_cache_dir`), or ``False``/``None`` for no caching.
    """
    if isinstance(use_cache, RunCache):
        return use_cache
    if use_cache:
        return RunCache(
            Path(cache_dir).expanduser() if cache_dir else default_cache_dir()
        )
    return None


@contextmanager
def sweep_context(
    cache: Optional[RunCache] = None,
    jobs: Optional[int] = None,
    backend: object = None,
    retry: object = None,
) -> Iterator[SweepContext]:
    """Install a :class:`SweepContext` for the dynamic extent of a block."""
    ctx = SweepContext(cache=cache, jobs=jobs, backend=backend, retry=retry)
    token = _ACTIVE.set(ctx)
    try:
        yield ctx
    finally:
        _ACTIVE.reset(token)
