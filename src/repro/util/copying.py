"""Shallow copies that keep attribute reads fast."""

from __future__ import annotations

from typing import TypeVar

__all__ = ["shallow_copy"]

T = TypeVar("T")


def shallow_copy(obj: T) -> T:
    """A new instance of ``obj``'s class with the same attribute values.

    Unlike :func:`copy.copy`, the copy's attributes are set one by one,
    in the source's order, so CPython keeps them in the instance's fast
    inline storage: a copy made through ``__dict__`` reads its attributes
    several times slower, which matters for the simulator's hottest
    objects.
    """
    twin = object.__new__(type(obj))
    for name, value in vars(obj).items():
        setattr(twin, name, value)
    return twin
