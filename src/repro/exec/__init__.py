"""repro.exec — fault-tolerant, pluggable sweep execution backends.

The execution substrate under every sweep
(:func:`repro.analysis.parallel.run_sweep`, whatever the task family): a
:class:`~repro.exec.backends.ExecBackend` runs independent tasks and
streams results as they land, a
:class:`~repro.exec.retry.RetryPolicy` bounds attempts/backoff/
timeouts per task, and worker death is contained instead of cascading.
See ``docs/BACKENDS.md`` for the selection and tuning guide.
"""

from repro.exec.backends import (
    BACKENDS,
    ExecBackend,
    ProcessPoolBackend,
    SerialBackend,
    TaskFailure,
    TaskUnit,
    resolve_backend,
)
from repro.exec.mpi import MpiBackend, load_mpi, mpi_available
from repro.exec.retry import (
    DEFAULT_RETRY,
    NO_RETRY,
    AttemptRecord,
    RetryPolicy,
    SweepTimeoutError,
    WorkerLostError,
    call_with_timeout,
)

__all__ = [
    "AttemptRecord",
    "BACKENDS",
    "DEFAULT_RETRY",
    "ExecBackend",
    "MpiBackend",
    "NO_RETRY",
    "ProcessPoolBackend",
    "RetryPolicy",
    "SerialBackend",
    "SweepTimeoutError",
    "TaskFailure",
    "TaskUnit",
    "WorkerLostError",
    "call_with_timeout",
    "load_mpi",
    "mpi_available",
    "resolve_backend",
]
