"""Frozen records that are cheap to build.

A record built once per event, control window, request or message is a
:func:`record`: a ``dataclass(frozen=True, slots=True)`` whose instances
can be weak-referenced and whose ``__init__`` stores each field through
its slot descriptor.  A frozen dataclass's own ``__init__`` goes through
``object.__setattr__`` by name for every field, which costs about twice
as much; equality, hashing, ``repr``, ``fields``, ``replace``, pickling
and ``FrozenInstanceError`` are the dataclass's own.

Each record's ``__init__`` is compiled under the file name
``<record ClassName>``, so a profile gives it a row of its own: every
dataclass-generated ``__init__`` shares the name ``<string>``, and
``pstats`` keeps only one of them.
"""

from __future__ import annotations

from dataclasses import MISSING, FrozenInstanceError, dataclass, fields
from typing import TypeVar

__all__ = ["record"]

T = TypeVar("T", bound=type)


class _Weakrefable:
    # ``dataclass(weakref_slot=True)`` exists only from Python 3.11.
    __slots__ = ("__weakref__",)


# A frozen slots dataclass's own ``__setattr__``/``__delattr__`` raise
# ``TypeError`` for a name that is not a field (they check against the
# class before its slots were added); a frozen dataclass raises this.
def _setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def record(cls: T) -> T:
    """``@dataclass(frozen=True, slots=True)`` with a ``__weakref__``
    slot and a slot-writing ``__init__`` that calls ``__post_init__``
    when the class defines one.

    Fields take plain defaults only: a ``default_factory``,
    ``init=False``, keyword-only, ``ClassVar`` or ``InitVar`` field
    raises ``TypeError``.
    """
    namespace = {
        name: value
        for name, value in vars(cls).items()
        if name not in ("__dict__", "__weakref__")
    }
    namespace["__qualname__"] = cls.__qualname__
    bases = tuple(base for base in cls.__bases__ if base is not object)
    cls = dataclass(frozen=True, slots=True)(
        type(cls)(cls.__name__, bases + (_Weakrefable,), namespace)
    )
    env, params, body = {}, [], []
    for f in cls.__dataclass_fields__.values():
        plain = f in fields(cls) and f.init and not f.kw_only
        if not plain or f.default_factory is not MISSING:
            raise TypeError(f"record field {cls.__name__}.{f.name} is unsupported")
        env[f"_set_{f.name}"] = getattr(cls, f.name).__set__
        if f.default is MISSING:
            params.append(f.name)
        else:
            env[f"_default_{f.name}"] = f.default
            params.append(f"{f.name}=_default_{f.name}")
        body.append(f"    _set_{f.name}(self, {f.name})\n")
    if hasattr(cls, "__post_init__"):
        body.append("    self.__post_init__()\n")
    source = f"def __init__(self, {', '.join(params)}):\n{''.join(body) or '    pass'}"
    exec(compile(source, f"<record {cls.__name__}>", "exec"), env)
    env["__init__"].__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__ = env["__init__"]
    cls.__setattr__ = _setattr
    cls.__delattr__ = _delattr
    return cls
