"""Trace exporters: Chrome trace-event JSON (Perfetto) and JSONL.

Chrome trace-event mapping (loads into the Perfetto UI):

* spans     → complete events (``ph: "X"``) with µs ``ts``/``dur``;
* counters  → counter events (``ph: "C"``);
* instants  → instant events (``ph: "i"``, process scope);
* tracks    → ``pid``: integer tracks (rank/node ids) keep their id,
  string tracks ("governor", "cache", "sweep") get stable pids from
  :data:`NAMED_TRACK_BASE` up, and every track gets a ``process_name``
  metadata event.

Records on the wall clock share the timeline with simulated-clock
records (both start near zero); every event carries its ``clock`` in
``args`` so the two are distinguishable in the UI and in queries.

:func:`validate_chrome_trace` is the minimal schema the CI trace-smoke
step (and :mod:`repro.obs.cli` ``validate``) checks exported files
against; :func:`load_trace_file` reads either format back into records
for ``summary``/``export``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.obs.tracer import (
    SIM_CLOCK,
    CounterRecord,
    InstantRecord,
    SpanRecord,
    Tracer,
)

__all__ = [
    "NAMED_TRACK_BASE",
    "POWER_COUNTER_NAME",
    "TraceData",
    "chrome_trace_events",
    "export_chrome_trace",
    "export_jsonl",
    "load_trace_file",
    "power_counter_records",
    "to_chrome_trace",
    "to_jsonl",
    "validate_chrome_trace",
]

_US = 1e6  # seconds → trace-event microseconds

#: First pid handed to a string-named track (rank tracks keep their id).
NAMED_TRACK_BASE = 1000

#: ``ph`` values the minimal schema accepts.
_VALID_PHASES = frozenset({"M", "X", "C", "i", "B", "E"})


@dataclass
class TraceData:
    """A tracer's records detached from the tracer (what files hold)."""

    spans: List[SpanRecord] = field(default_factory=list)
    counters: List[CounterRecord] = field(default_factory=list)
    instants: List[InstantRecord] = field(default_factory=list)

    @classmethod
    def from_tracer(cls, tracer: Tracer) -> "TraceData":
        return cls(
            spans=list(tracer.spans),
            counters=list(tracer.counters),
            instants=list(tracer.instants),
        )

    def __len__(self) -> int:
        return len(self.spans) + len(self.counters) + len(self.instants)


Source = Union[Tracer, TraceData]

#: counter name power tracks are exported under (one track per node).
POWER_COUNTER_NAME = "power_w"


def power_counter_records(
    cluster,
    t0: Optional[float] = None,
    t1: Optional[float] = None,
    resolution: float = 0.0,
) -> List[CounterRecord]:
    """Per-node power as counter records, read off the frozen series.

    One :class:`CounterRecord` series per node (``name="power_w"``,
    ``track=node_id``): a sample at ``t0`` with the level then in
    effect, followed by every change point in ``(t0, t1]``, optionally
    thinned so consecutive samples are at least ``resolution`` seconds
    apart.  Interleaves with span/instant records in the same Perfetto
    timeline, so a run's power shows up as counter tracks next to its
    phases.
    """
    records: List[CounterRecord] = []
    for node in cluster.nodes:
        series = node.timeline.series()
        lo = series.start_time if t0 is None else t0
        hi = series.last_change if t1 is None else t1
        if hi < lo:
            raise ValueError(f"power window reversed: [{lo}, {hi}]")
        records.append(
            CounterRecord(
                name=POWER_COUNTER_NAME,
                track=node.node_id,
                t=lo,
                value=float(series.sample(lo)[0]),
            )
        )
        last = lo
        for time, watts in zip(*series.window(lo, hi)):
            if time <= lo:
                continue
            if resolution > 0.0 and time - last < resolution:
                continue
            last = float(time)
            records.append(
                CounterRecord(
                    name=POWER_COUNTER_NAME,
                    track=node.node_id,
                    t=float(time),
                    value=float(watts),
                )
            )
    return records


def _data_of(source: Source) -> TraceData:
    if isinstance(source, TraceData):
        return source
    return TraceData.from_tracer(source)


def _track_pids(data: TraceData) -> Dict[Union[int, str], int]:
    """Stable track → pid assignment (ints keep their id, names sorted)."""
    tracks = {
        r.track
        for records in (data.spans, data.counters, data.instants)
        for r in records
    }
    pids: Dict[Union[int, str], int] = {
        t: t for t in tracks if isinstance(t, int)
    }
    for i, name in enumerate(sorted(t for t in tracks if isinstance(t, str))):
        pids[name] = NAMED_TRACK_BASE + i
    return pids


def chrome_trace_events(source: Source) -> List[dict]:
    """All records as Chrome trace-event dicts (metadata first)."""
    data = _data_of(source)
    pids = _track_pids(data)
    events: List[dict] = [
        {
            "ph": "M",
            "name": "process_name",
            "pid": pid,
            "args": {"name": str(track)},
        }
        for track, pid in sorted(pids.items(), key=lambda kv: kv[1])
    ]
    for s in data.spans:
        args = dict(s.args or {})
        args["clock"] = s.clock
        events.append(
            {
                "ph": "X",
                "name": s.name,
                "cat": s.cat,
                "pid": pids[s.track],
                "tid": 0,
                "ts": s.t0 * _US,
                "dur": max(0.0, s.duration) * _US,
                "args": args,
            }
        )
    for c in data.counters:
        events.append(
            {
                "ph": "C",
                "name": c.name,
                "pid": pids[c.track],
                "ts": c.t * _US,
                "args": {c.name: c.value, "clock": c.clock},
            }
        )
    for i in data.instants:
        args = dict(i.args or {})
        args["clock"] = i.clock
        events.append(
            {
                "ph": "i",
                "name": i.name,
                "cat": i.cat,
                "pid": pids[i.track],
                "tid": 0,
                "ts": i.t * _US,
                "s": "p",
                "args": args,
            }
        )
    return events


def to_chrome_trace(source: Source) -> dict:
    """The full JSON-able document (``traceEvents`` object form)."""
    return {
        "traceEvents": chrome_trace_events(source),
        "displayTimeUnit": "ms",
    }


def export_chrome_trace(path: Union[str, Path], source: Source) -> int:
    """Write Chrome trace-event JSON; returns the event count."""
    document = to_chrome_trace(source)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document), encoding="utf-8")
    return len(document["traceEvents"])


# ----------------------------------------------------------------------
# JSONL
# ----------------------------------------------------------------------
def _record_line(kind: str, record) -> dict:
    line = {"kind": kind, "name": record.name, "track": record.track,
            "clock": record.clock}
    if kind == "span":
        line.update(cat=record.cat, t0=record.t0, t1=record.t1)
        if record.args:
            line["args"] = record.args
    elif kind == "counter":
        line.update(t=record.t, value=record.value)
    else:
        line.update(cat=record.cat, t=record.t)
        if record.args:
            line["args"] = record.args
    return line


def to_jsonl(source: Source) -> str:
    """All records as JSON lines (spans, then counters, then instants)."""
    data = _data_of(source)
    lines = [_record_line("span", s) for s in data.spans]
    lines += [_record_line("counter", c) for c in data.counters]
    lines += [_record_line("instant", i) for i in data.instants]
    return "\n".join(json.dumps(line, sort_keys=True) for line in lines)


def export_jsonl(path: Union[str, Path], source: Source) -> int:
    """Write the JSONL stream; returns the record count."""
    data = _data_of(source)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = to_jsonl(data)
    path.write_text(text + "\n" if text else "", encoding="utf-8")
    return len(data)


# ----------------------------------------------------------------------
# loading (for the CLI: summarise / convert existing files)
# ----------------------------------------------------------------------
def _records_from_jsonl(text: str) -> TraceData:
    data = TraceData()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        raw = raw.strip()
        if not raw:
            continue
        try:
            line = json.loads(raw)
            kind = line["kind"]
            if kind == "span":
                data.spans.append(
                    SpanRecord(
                        name=line["name"],
                        cat=line.get("cat", ""),
                        track=line["track"],
                        t0=float(line["t0"]),
                        t1=float(line["t1"]),
                        clock=line.get("clock", SIM_CLOCK),
                        args=line.get("args"),
                    )
                )
            elif kind == "counter":
                data.counters.append(
                    CounterRecord(
                        name=line["name"],
                        track=line["track"],
                        t=float(line["t"]),
                        value=float(line["value"]),
                        clock=line.get("clock", SIM_CLOCK),
                    )
                )
            elif kind == "instant":
                data.instants.append(
                    InstantRecord(
                        name=line["name"],
                        cat=line.get("cat", ""),
                        track=line["track"],
                        t=float(line["t"]),
                        clock=line.get("clock", SIM_CLOCK),
                        args=line.get("args"),
                    )
                )
            else:
                raise ValueError(f"unknown record kind {kind!r}")
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"bad JSONL record on line {lineno}: {exc}") from exc
    return data


def _records_from_chrome(document: dict) -> TraceData:
    names = {}  # pid → track name from metadata
    for event in document.get("traceEvents", []):
        if event.get("ph") == "M" and event.get("name") == "process_name":
            names[event.get("pid")] = event.get("args", {}).get("name")

    def track_of(event) -> Union[int, str]:
        pid = event.get("pid", 0)
        label = names.get(pid)
        if label is None:
            return pid
        try:
            return int(label)
        except ValueError:
            return label

    data = TraceData()
    for event in document.get("traceEvents", []):
        ph = event.get("ph")
        args = dict(event.get("args") or {})
        clock = args.pop("clock", SIM_CLOCK)
        if ph == "X":
            t0 = float(event["ts"]) / _US
            data.spans.append(
                SpanRecord(
                    name=event.get("name", ""),
                    cat=event.get("cat", ""),
                    track=track_of(event),
                    t0=t0,
                    t1=t0 + float(event.get("dur", 0.0)) / _US,
                    clock=clock,
                    args=args or None,
                )
            )
        elif ph == "C":
            name = event.get("name", "")
            data.counters.append(
                CounterRecord(
                    name=name,
                    track=track_of(event),
                    t=float(event["ts"]) / _US,
                    value=float(args.get(name, 0.0)),
                    clock=clock,
                )
            )
        elif ph == "i":
            data.instants.append(
                InstantRecord(
                    name=event.get("name", ""),
                    cat=event.get("cat", ""),
                    track=track_of(event),
                    t=float(event["ts"]) / _US,
                    clock=clock,
                    args=args or None,
                )
            )
    return data


def load_trace_file(path: Union[str, Path]) -> TraceData:
    """Read a trace back from Chrome JSON or JSONL (sniffed by content)."""
    text = Path(path).read_text(encoding="utf-8")
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            document = json.loads(text)
        except json.JSONDecodeError:
            document = None
        if isinstance(document, dict) and "traceEvents" in document:
            return _records_from_chrome(document)
    return _records_from_jsonl(text)


# ----------------------------------------------------------------------
# validation (the CI trace-smoke schema)
# ----------------------------------------------------------------------
def validate_chrome_trace(document: object) -> List[str]:
    """Errors that make ``document`` an invalid Chrome trace (empty = valid).

    The minimal schema Perfetto's legacy importer relies on: a
    ``traceEvents`` list of dicts, each with a known ``ph``, a string
    ``name``, a ``pid``, a numeric ``ts`` on non-metadata events, and a
    non-negative numeric ``dur`` on complete events.
    """
    errors: List[str] = []
    if not isinstance(document, dict):
        return [f"top level must be an object, got {type(document).__name__}"]
    events = document.get("traceEvents")
    if not isinstance(events, list):
        return ["missing or non-list 'traceEvents'"]
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            errors.append(f"{where}: not an object")
            continue
        ph = event.get("ph")
        if ph not in _VALID_PHASES:
            errors.append(f"{where}: bad ph {ph!r}")
            continue
        if not isinstance(event.get("name"), str):
            errors.append(f"{where}: missing string 'name'")
        if not isinstance(event.get("pid"), (int, str)):
            errors.append(f"{where}: missing 'pid'")
        if ph != "M":
            ts = event.get("ts")
            if not isinstance(ts, (int, float)) or isinstance(ts, bool):
                errors.append(f"{where}: missing numeric 'ts'")
        if ph == "X":
            dur = event.get("dur")
            if (
                not isinstance(dur, (int, float))
                or isinstance(dur, bool)
                or dur < 0
            ):
                errors.append(f"{where}: 'X' event needs numeric dur >= 0")
    return errors
