"""The common report protocol every metrics report implements.

Seven report classes come out of the metrics layer — :class:`Ed2pReport`
(operating-point efficiency), :class:`PowerCapReport` (budget
compliance), :class:`ChaosReport` (fault recovery),
:class:`AttributionReport` (per-phase energy), :class:`ServingReport`
(latency and joules per request), :class:`ScalingReport`
(cross-generation verdicts) and :class:`KnobMapReport` (the load ×
budget knob map) — and they all speak the same surface:

* ``label`` — what the report describes;
* ``to_dict()`` — JSON-able plain data (what the run cache stores);
* ``to_json(indent=None)`` — the same, serialised;
* ``summary_lines()`` — human-readable lines for terminals and logs.

:class:`ReportProtocol` is runtime-checkable, so callers can accept
"any report" structurally::

    from repro.metrics import ReportProtocol

    def archive(report: ReportProtocol) -> None:
        assert isinstance(report, ReportProtocol)
        path.write_text(report.to_json(indent=2))

``tests/metrics/test_report_protocol.py`` exercises all seven classes
against this contract so a new report (or a renamed method) cannot
silently fork the surface.

**The stored form.** :class:`ReportBase` derives ``to_dict()`` and
``from_dict()`` from a frozen dataclass's fields, for the reports and
for their row classes alike.  Each field is one key named after it.  A
tuple of rows is stored as a list of the rows' dicts, a tuple of strings
as a list, a dict as a copy, and any other value as it is.  Decoding
applies the field's annotation: ``str``, ``int``, ``float`` and ``bool``
coerce the value, ``Optional[T]`` keeps ``None`` and coerces anything
else to ``T``, a tuple decodes each element, and ``Dict[str, T]``
becomes ``{str(k): T(v)}``.  Unknown keys are ignored, and a malformed
record raises only ``KeyError``, ``TypeError`` or ``ValueError`` — the
errors the run cache catches to re-simulate instead.

A key may be absent only when its field has a default, and it then
decodes to that default.  That is how the format grows compatibly: a
new field with a default reads every older record as before.  The
stored layouts are pinned literally in
``tests/cache/test_report_format.py``.
"""

from __future__ import annotations

import dataclasses
import json
import typing
from typing import Any, Callable, Dict, List, Optional, Protocol, Tuple
from typing import runtime_checkable

__all__ = ["ReportProtocol", "ReportBase"]


@runtime_checkable
class ReportProtocol(Protocol):
    """Structural type of every metrics report."""

    @property
    def label(self) -> str: ...

    def to_dict(self) -> dict: ...

    def to_json(self, indent: Optional[int] = None) -> str: ...

    def summary_lines(self) -> List[str]: ...


class ReportBase:
    """The stored form of a report or row dataclass, from its fields.

    Plain mixin (no dataclass fields) — frozen dataclasses inherit from
    it without affecting their generated ``__init__``/``__eq__``.  See
    the module docstring for the encoding and decoding rules.
    """

    def to_dict(self) -> dict:
        """JSON-able form, one key per field (stored as run-cache meta)."""
        return _CODECS[type(self)][0](self)

    @classmethod
    def from_dict(cls, data: dict):
        """The instance ``to_dict()`` stored as ``data``."""
        return _CODECS[cls][1](data)

    def to_json(self, indent: Optional[int] = None) -> str:
        """``to_dict()`` serialised with sorted keys (stable diffs)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


_Codec = Tuple[Callable[[Any], dict], Callable[[Any], Any]]


class _CodecTable(dict):
    """Class -> its ``(encode, decode)`` pair, compiled on first use.

    Compiling resolves the class's annotations once, so a decode (one
    per warm cache hit) is a walk over a prepared field table.
    """

    def __missing__(self, cls: type) -> _Codec:
        codec = self[cls] = _compile(cls)
        return codec


_CODECS = _CodecTable()


def _compile(cls: type) -> _Codec:
    hints = typing.get_type_hints(cls)
    fields = dataclasses.fields(cls)
    encoders = [(f.name, _encoder(hints[f.name])) for f in fields]
    required = []
    defaulted = []
    for f in fields:
        entry = (f.name, _decoder(hints[f.name], f"{cls.__name__}.{f.name}"))
        if (
            f.default is dataclasses.MISSING
            and f.default_factory is dataclasses.MISSING
        ):
            required.append(entry)
        else:
            defaulted.append(entry)

    def encode(obj) -> dict:
        return {
            name: getattr(obj, name)
            if convert is None
            else convert(getattr(obj, name))
            for name, convert in encoders
        }

    def decode(data):
        # A dataclass's fields without a default come first, so they go
        # positionally; the defaulted ones present in ``data`` by name.
        args = [convert(data[name]) for name, convert in required]
        present = {}
        for name, convert in defaulted:
            try:
                value = data[name]
            except KeyError:
                continue
            present[name] = convert(value)
        return cls(*args, **present)

    return encode, decode


def _encoder(hint) -> Optional[Callable[[Any], Any]]:
    """How a field's value is stored (``None``: as it is)."""
    origin = typing.get_origin(hint)
    if origin is dict:
        return dict
    if origin is tuple:
        if _is_record(typing.get_args(hint)[0]):
            return lambda rows: [row.to_dict() for row in rows]
        return list
    return None


def _decoder(hint, where: str) -> Callable[[Any], Any]:
    """How a field's stored value is read back, from its annotation."""
    if hint in (str, int, float, bool):
        return hint
    origin = typing.get_origin(hint)
    args = typing.get_args(hint)
    if origin is typing.Union and len(args) == 2 and type(None) in args:
        inner = _decoder(args[0] if args[1] is type(None) else args[1], where)
        return lambda value: None if value is None else inner(value)
    if origin is tuple and len(args) == 2 and args[1] is Ellipsis:
        item = args[0]
        element = (
            _CODECS[item][1] if _is_record(item) else _decoder(item, where)
        )
        return lambda values: tuple(map(element, values))
    if origin is dict and args[0] is str:
        value_of = _decoder(args[1], where)

        def mapping(values) -> Dict[str, Any]:
            if not isinstance(values, dict):
                raise TypeError(f"expected an object, got {values!r}")
            return {str(k): value_of(v) for k, v in values.items()}

        return mapping
    raise NotImplementedError(f"no stored form for {where}: {hint!r}")


def _is_record(hint) -> bool:
    return isinstance(hint, type) and issubclass(hint, ReportBase)
