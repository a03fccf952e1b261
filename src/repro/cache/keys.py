"""Canonical cache-key derivation.

A cache key must satisfy two properties:

* **complete** — everything that can change a run's result is part of
  the key.  For this simulator that closure is small and explicit: the
  workload spec, the strategy recipe, the calibration, and the simulator
  version (there is no RNG and no wall-clock dependence);
* **canonical** — two equal specs hash equally regardless of dict
  ordering, tuple-vs-list spelling, or which process computed the hash.

:func:`canonical_encode` lowers an arbitrary spec object (dataclasses,
enums, mappings, numpy scalars/arrays, plain objects) into a JSON-able
tree with deterministic ordering; :func:`canonical_json` serialises it
with sorted keys and no whitespace; :func:`task_key` (operating points)
and :func:`tagged_task_key` (whole-task families such as chaos and
serving runs) prepend the version salt and hash the result with SHA-256.

The **salt** (:func:`simulator_salt`) folds ``repro.__version__`` and
:data:`CACHE_FORMAT` into every key.  Bumping either invalidates the
whole cache without touching it on disk — stale shards simply become
unreachable and age out through the LRU cap.  Bump ``CACHE_FORMAT``
whenever the simulator's numerics change without a version bump.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from typing import Any, Mapping, Optional

from repro import __version__

__all__ = [
    "CACHE_FORMAT",
    "canonical_encode",
    "canonical_json",
    "simulator_salt",
    "tagged_task_key",
    "task_key",
]

#: On-disk format / numerics generation.  Part of every key via the salt.
CACHE_FORMAT = 1


def simulator_salt() -> str:
    """The invalidation salt folded into every cache key.

    Derived from the package version and the cache format generation, so
    results simulated by one version of the model can never be returned
    for another.
    """
    return f"repro/{__version__}/format{CACHE_FORMAT}"


def _qualname(obj: object) -> str:
    cls = type(obj)
    return f"{cls.__module__}.{cls.__qualname__}"


def canonical_encode(obj: Any) -> Any:
    """Lower ``obj`` to a JSON-able tree with deterministic ordering.

    Handles the vocabulary of this codebase's spec objects: primitives,
    sequences, mappings (sorted by encoded key), enums, frozen and
    mutable dataclasses, numpy scalars and arrays, and plain objects
    (encoded as class qualname + instance ``__dict__``, which together
    fully determine behaviour for deterministic spec classes like
    :class:`~repro.workloads.base.Workload` subclasses).

    Raises
    ------
    TypeError
        For objects that carry no state (no ``__dict__``) and match no
        other rule — hashing those silently would under-key the cache.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        # json round-trips repr(float) exactly; keep the raw value.
        return obj
    if isinstance(obj, enum.Enum):
        return {"__enum__": _qualname(obj), "name": obj.name}
    if isinstance(obj, (bytes, bytearray)):
        return {"__bytes__": bytes(obj).hex()}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            "__dataclass__": _qualname(obj),
            "fields": {
                f.name: canonical_encode(getattr(obj, f.name))
                for f in dataclasses.fields(obj)
            },
        }
    if isinstance(obj, Mapping):
        items = [
            [canonical_encode(k), canonical_encode(v)] for k, v in obj.items()
        ]
        items.sort(key=lambda kv: json.dumps(kv[0], sort_keys=True))
        return {"__map__": items}
    if isinstance(obj, (list, tuple)):
        return [canonical_encode(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        encoded = [canonical_encode(v) for v in obj]
        encoded.sort(key=lambda v: json.dumps(v, sort_keys=True))
        return {"__set__": encoded}
    # numpy scalars/arrays without importing numpy here (it is a hard
    # dependency elsewhere, but the cache layer should not care).
    item = getattr(obj, "item", None)
    if callable(item) and getattr(obj, "shape", None) == ():
        return canonical_encode(obj.item())
    tolist = getattr(obj, "tolist", None)
    if callable(tolist) and hasattr(obj, "dtype"):
        return {
            "__ndarray__": str(obj.dtype),
            "shape": list(getattr(obj, "shape", [])),
            "data": tolist(),
        }
    state = getattr(obj, "__dict__", None)
    if state is not None:
        return {
            "__object__": _qualname(obj),
            "attrs": {
                k: canonical_encode(v)
                for k, v in sorted(state.items())
                if not callable(v)
            },
        }
    raise TypeError(
        f"cannot canonically encode {type(obj).__name__!r} for cache keying"
    )


def canonical_json(obj: Any) -> str:
    """The canonical serialisation: sorted keys, no whitespace."""
    return json.dumps(
        canonical_encode(obj), sort_keys=True, separators=(",", ":")
    )


def task_key(task: Any, salt: Optional[str] = None) -> str:
    """SHA-256 content hash of one sweep task (hex digest).

    ``task`` is a :class:`~repro.analysis.parallel.SweepTask`; a
    ``calibration`` of ``None`` is normalised to the default calibration
    because that is what the runner substitutes at execution time —
    ``SweepTask(wl, "stat", f)`` and
    ``SweepTask(wl, "stat", f, calibration=DEFAULT_CALIBRATION)`` are the
    same run and must share a key.

    A ``spec`` of ``None`` (the legacy homogeneous cluster) contributes
    nothing to the payload, so every pre-spec cache key is unchanged;
    an explicit :class:`~repro.hardware.spec.ClusterSpec` is folded in
    canonically (order-sensitive across its node groups).
    """
    from repro.hardware.calibration import DEFAULT_CALIBRATION

    calibration = getattr(task, "calibration", None)
    if calibration is None:
        calibration = DEFAULT_CALIBRATION
    payload = {
        "salt": salt if salt is not None else simulator_salt(),
        "workload": canonical_encode(task.workload),
        "strategy": {
            "kind": task.strategy_kind,
            "frequency": task.frequency,
            "regions": canonical_encode(task.regions),
        },
        "calibration": canonical_encode(calibration),
    }
    spec = getattr(task, "spec", None)
    if spec is not None:
        payload["cluster"] = canonical_encode(spec)
    return _digest(payload)


def tagged_task_key(task: Any, kind: str, salt: Optional[str] = None) -> str:
    """SHA-256 content hash of a task hashed whole, under a family tag.

    The task's every field and its class's qualname go into the hash
    (:func:`canonical_encode`), next to the version salt and the family
    ``kind`` tag.  As in :func:`task_key`, a ``calibration`` of ``None``
    is normalised to the default calibration the runner substitutes at
    execution time.  Chaos and serving tasks key through this (see
    :func:`repro.faults.sweep.chaos_task_key` and
    :func:`repro.serving.sweep.serving_task_key`).
    """
    from repro.hardware.calibration import DEFAULT_CALIBRATION

    if task.calibration is None:
        task = dataclasses.replace(task, calibration=DEFAULT_CALIBRATION)
    return _digest(
        {
            "salt": salt if salt is not None else simulator_salt(),
            "kind": kind,
            "task": canonical_encode(task),
        }
    )


def _digest(payload: dict) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
