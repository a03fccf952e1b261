"""Content-addressed run cache (``repro.cache``).

The simulator is fully deterministic — ``tests/analysis/test_parallel.py``
asserts bit-identical results across process boundaries — so any run is
fully determined by *what* was run: the workload spec, the strategy
recipe, the calibration, and the simulator version.  This package turns
that property into speed: every completed
:class:`~repro.metrics.records.EnergyDelayPoint` is stored on disk under
a canonical content hash of those four inputs, and any sweep that asks
for the same point again gets the stored record back instead of
re-simulating.

Layers:

* :mod:`~repro.cache.keys` — canonical encoding and SHA-256 key
  derivation, including the simulator-version salt that invalidates the
  cache wholesale whenever the model changes;
* :mod:`~repro.cache.store` — :class:`RunCache`, the on-disk JSON-lines
  shard store with an LRU size cap, corruption-tolerant loads, and
  hit/miss/eviction statistics;
* :mod:`~repro.cache.context` — the ambient :class:`SweepContext` that
  lets the experiments layer opt whole drivers into caching and
  parallelism without threading arguments through every figure;
* :mod:`~repro.cache.cli` — the ``repro-cache`` command
  (``stats`` / ``clear``).

Because cached records round-trip through JSON ``repr`` floats, a warm
re-run returns *bit-identical* points to the cold run — asserted in
``tests/cache/test_sweep_cache.py`` along with the ≥10× speedup.
"""

from repro.cache.context import sweep_context
from repro.cache.keys import task_key
from repro.cache.store import RunCache

__all__ = ["RunCache", "sweep_context", "task_key"]
