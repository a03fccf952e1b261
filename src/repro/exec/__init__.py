"""repro.exec — fault-tolerant, pluggable sweep execution backends.

The execution substrate under every sweep
(:func:`repro.analysis.parallel.run_sweep`, whatever the task family): a
:class:`~repro.exec.backends.ExecBackend` runs independent tasks and
streams results as they land, a
:class:`~repro.exec.retry.RetryPolicy` bounds attempts/backoff/
timeouts per task, and worker death is contained instead of cascading.
See ``docs/BACKENDS.md`` for the selection and tuning guide.
"""

from repro.exec.backends import ProcessPoolBackend

__all__ = ["ProcessPoolBackend"]
