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
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

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


#: The leaf types, stored in an encoded tree as they are.  Exact types
#: only: subclasses (``IntEnum``, ``StrEnum``, numpy's ``float64``) go
#: through :data:`_ENCODERS` and end up at :func:`_same`.
_LEAVES = frozenset({type(None), bool, int, str, float})


class _EncoderTable(dict):
    """Class -> that class's compiled encoder, compiled on first use.

    Keyed by class alone: an entry holds the class's field names,
    qualname and rule, never a value being encoded.
    """

    def __missing__(self, cls: type) -> Callable[[Any], Any]:
        encoder = self[cls] = _compile(cls)
        return encoder


_ENCODERS = _EncoderTable()

#: Enum class -> {member: the member's sort text}; see :func:`_sort_text`.
_ENUM_SORT_TEXT: Dict[type, Dict[enum.Enum, str]] = {}


def canonical_encode(obj: Any) -> Any:
    """Lower ``obj`` to a JSON-able tree with deterministic ordering.

    Handles the vocabulary of this codebase's spec objects: primitives,
    sequences, mappings (sorted by encoded key), enums, frozen and
    mutable dataclasses, numpy scalars and arrays, and plain objects
    (encoded as class qualname + instance ``__dict__``, which together
    fully determine behaviour for deterministic spec classes like
    :class:`~repro.workloads.base.Workload` subclasses).

    Each class's rule is picked once, on first use, and compiled into
    an encoder (see :func:`_compile`); a leaf value is stored in its
    parent without a call.

    Raises
    ------
    TypeError
        For objects that carry no state (no ``__dict__``) and match no
        other rule — hashing those silently would under-key the cache.
    """
    cls = type(obj)
    if cls in _LEAVES:
        return obj
    return _ENCODERS[cls](obj)


def _compile(cls: type) -> Callable[[Any], Any]:
    """The encoder of ``cls``'s instances.

    The rules, in order: ``int``/``str``/``float`` subclasses as they
    are, enums by qualified member name, bytes as hex, dataclasses by
    field, mappings and sets sorted by their elements' sort text,
    sequences in order, then numpy scalars and arrays, and any other
    object by its ``__dict__``.
    """
    qualname = f"{cls.__module__}.{cls.__qualname__}"
    plain = issubclass(cls, (int, str, float))
    if issubclass(cls, enum.Enum):
        encode = _same if plain else (
            lambda member: {"__enum__": qualname, "name": member.name}
        )
        _ENUM_SORT_TEXT[cls] = {
            member: json.dumps(encode(member), sort_keys=True)
            for member in cls.__members__.values()
        }
        return encode
    if plain:
        return _same
    if issubclass(cls, (bytes, bytearray)):
        return _encode_bytes
    is_class = issubclass(cls, type)
    if dataclasses.is_dataclass(cls) and not is_class:
        # Sorted, so the JSON encoder's key sort finds each dict in order.
        return _fields_encoder(
            qualname, tuple(sorted(f.name for f in dataclasses.fields(cls)))
        )
    if issubclass(cls, Mapping):
        return _encode_map
    if issubclass(cls, (list, tuple)):
        return _encode_sequence
    if issubclass(cls, (set, frozenset)):
        return _encode_set
    if is_class or any(
        hasattr(cls, name) for name in ("item", "tolist", "__getattr__")
    ):
        # numpy values (a 0-d array is a scalar, any other shape is an
        # array), class objects and objects whose attributes resolve
        # dynamically: decided per instance.
        return _encode_duck
    return lambda obj: _encode_object(obj, qualname)


def _same(obj: Any) -> Any:
    return obj


def _encode_bytes(obj: Any) -> dict:
    return {"__bytes__": bytes(obj).hex()}


def _fields_encoder(
    qualname: str, names: Tuple[str, ...]
) -> Callable[[Any], dict]:
    def encode(obj: Any) -> dict:
        fields = {}
        for name in names:
            value = getattr(obj, name)
            cls = type(value)
            fields[name] = value if cls in _LEAVES else _ENCODERS[cls](value)
        return {"__dataclass__": qualname, "fields": fields}

    return encode


def _encode_sequence(obj: Any) -> list:
    return [
        value if type(value) in _LEAVES else _ENCODERS[type(value)](value)
        for value in obj
    ]


def _sort_text(value: Any, encoded: Any) -> str:
    """The text a map key or set element sorts by: its JSON dump.

    ``str`` values and enum members take it from a cheaper source that
    gives the same text (the JSON string escape, the member's
    precomputed text).
    """
    cls = type(value)
    if cls is str:
        return encode_basestring_ascii(value)
    texts = _ENUM_SORT_TEXT.get(cls)
    if texts is not None:
        text = texts.get(value)
        if text is not None:
            return text
    return json.dumps(encoded, sort_keys=True)


_FIRST = itemgetter(0)


def _encode_map(obj: Any) -> dict:
    items = []
    for key, value in obj.items():
        encoded_key = canonical_encode(key)
        items.append(
            (
                _sort_text(key, encoded_key),
                [encoded_key, canonical_encode(value)],
            )
        )
    items.sort(key=_FIRST)
    return {"__map__": [item for _, item in items]}


def _encode_set(obj: Any) -> dict:
    items = []
    for value in obj:
        encoded = canonical_encode(value)
        items.append((_sort_text(value, encoded), encoded))
    items.sort(key=_FIRST)
    return {"__set__": [encoded for _, encoded in items]}


def _encode_object(obj: Any, qualname: str) -> dict:
    state = getattr(obj, "__dict__", None)
    if state is None or "item" in state or "tolist" in state:
        # No state to encode, or array-like by instance attributes.
        return _encode_duck(obj)
    return _encode_attrs(qualname, state)


def _encode_duck(obj: Any) -> Any:
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
    if state is None:
        raise TypeError(
            f"cannot canonically encode {type(obj).__name__!r} for cache "
            "keying"
        )
    cls = type(obj)
    return _encode_attrs(f"{cls.__module__}.{cls.__qualname__}", state)


def _encode_attrs(qualname: str, state: dict) -> dict:
    attrs = {}
    for name, value in state.items():
        cls = type(value)
        if cls in _LEAVES:
            attrs[name] = value
        elif not callable(value):
            attrs[name] = _ENCODERS[cls](value)
    return {"__object__": qualname, "attrs": attrs}


#: The canonical serialiser: sorted keys, no whitespace.  An encoded
#: tree is built fresh and holds no cycles, so the circular-reference
#: bookkeeping is skipped.
_CANONICAL_JSON = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), check_circular=False
)


def canonical_json(obj: Any) -> str:
    """The canonical serialisation: sorted keys, no whitespace."""
    return _CANONICAL_JSON.encode(canonical_encode(obj))


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

    encoded = canonical_encode(task)
    if task.calibration is None:
        encoded["fields"]["calibration"] = canonical_encode(
            DEFAULT_CALIBRATION
        )
    return _digest(
        {
            "salt": salt if salt is not None else simulator_salt(),
            "kind": kind,
            "task": encoded,
        }
    )


def _digest(payload: dict) -> str:
    text = _CANONICAL_JSON.encode(payload)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
