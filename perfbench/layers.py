"""Split a run's wall time and work across the simulator's layers.

A layer is a set of ``repro`` modules (:data:`LAYERS`).  The traced pass
runs under the standard-library profiler; a function's self time goes to
the layer whose module defines it.  Time in NumPy, the standard library,
builtins and ``repro`` helpers that belong to no layer (``repro.util``,
``repro.obs``, ...) goes to the nearest layer up the call graph, split
by the profiler's per-caller times.  Frames of the benchmark itself stop
that walk: what they spend outside every layer stays unattributed, and
``trace.coverage`` reports the attributed share of the pass.

Counts come from an untraced pass (:class:`Counters`): exact counters the
program already keeps (``EngineStats``, ``CacheStats``, ``ChaosReport``,
``ServingReport``) and call counts of named public functions, wrapped
from outside for that pass only.
"""

from __future__ import annotations

import os
import pstats
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

import repro
import repro.cache.keys
import repro.faults.sweep
import repro.hardware.cluster
import repro.serving.sweep
from repro.cache.store import RunCache
from repro.dvs.cpufreq import CpuFreq
from repro.hardware.cpu import SimCPU
from repro.hardware.network import NetworkFabric
from repro.hardware.series import ClusterSeries, PowerSeries
from repro.hardware.timeline import EnergyCursor
from repro.simmpi.world import World

#: Layer name -> the ``repro`` modules (or packages) it covers.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "sim": ("repro.sim",),
    "simmpi": ("repro.simmpi",),
    "hardware.network": ("repro.hardware.network",),
    "hardware.cpu": ("repro.hardware.cpu",),
    "hardware.series": ("repro.hardware.series", "repro.hardware.timeline"),
    "hardware.node": tuple(
        f"repro.hardware.{m}"
        for m in ("node", "power", "activity", "procstat", "dvfs", "memory")
    ),
    "hardware.cluster": tuple(
        f"repro.hardware.{m}"
        for m in ("cluster", "spec", "scaling", "calibration")
    ),
    "dvs": ("repro.dvs",),
    "powercap": ("repro.powercap",),
    "faults": ("repro.faults",),
    "serving": ("repro.serving",),
    "metrics": ("repro.metrics",),
    "cache": ("repro.cache",),
    "exec": ("repro.exec",),
    "analysis": ("repro.analysis",),
    "workloads": ("repro.workloads",),
}

#: Every per-layer metric a traced run reports, with its unit.
PER_LAYER: Dict[str, str] = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "sim.events": "count",
    "sim.frontiers": "count",
    "sim.cancelled": "count",
    "sim.cancel_frac": "frac",
    "simmpi.sends": "count",
    "hardware.network.transfers": "count",
    "hardware.cpu.run_cycles": "count",
    "hardware.series.queries": "count",
    "dvs.transitions": "count",
    "powercap.windows": "count",
    "powercap.violations": "count",
    "powercap.repairs": "count",
    "faults.transitions": "count",
    "serving.requests": "count",
    "serving.dropped": "count",
    "serving.timed_out": "count",
    "cache.key_us.p50": "us",
    "cache.get_us.p50": "us",
    "cache.put_us.p50": "us",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.hit_frac": "frac",
    "cache.bytes": "bytes",
    "exec.attempts": "count",
    "exec.retries": "count",
    "exec.overhead_s": "s",
    "trace.coverage": "frac",
    "trace.overhead": "x",
}

_REPRO_ROOT = Path(repro.__file__).resolve().parent
_BENCH_ROOT = Path(__file__).resolve().parent
#: ``concurrent.futures`` calls in which a pool coordinator blocks.
_WAITS = ("wait", "result")

Func = Tuple[str, int, str]  # pstats key: (filename, line, name)


def module_of(filename: str) -> Optional[str]:
    """The dotted ``repro`` module defined in ``filename``, if any."""
    try:
        rel = Path(filename).resolve().relative_to(_REPRO_ROOT)
    except (ValueError, OSError):
        return None
    parts = ("repro",) + rel.with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def layer_of(module: Optional[str]) -> Optional[str]:
    if module is None:
        return None
    best, best_len = None, -1
    for layer, prefixes in LAYERS.items():
        for prefix in prefixes:
            hit = module == prefix or module.startswith(prefix + ".")
            if hit and len(prefix) > best_len:
                best, best_len = layer, len(prefix)
    return best


def _is_bench(filename: str) -> bool:
    try:
        Path(filename).resolve().relative_to(_BENCH_ROOT)
    except (ValueError, OSError):
        return False
    return True


def attribute(stats: dict) -> Dict[Optional[str], float]:
    """Self seconds per layer (``None`` = unattributed) from pstats data."""
    owner: Dict[Func, Optional[str]] = {}
    stop: Dict[Func, bool] = {}
    for func in stats:
        owner[func] = layer_of(module_of(func[0]))
        stop[func] = owner[func] is not None or _is_bench(func[0])
    memo: Dict[Func, Dict[Optional[str], float]] = {}

    def spread(weights: Dict[Func, float], seen: frozenset) -> Dict[Optional[str], float]:
        total = sum(weights.values())
        out: Dict[Optional[str], float] = defaultdict(float)
        if total <= 0:
            out[None] = 1.0
            return out
        for caller, weight in weights.items():
            for layer, share in inside(caller, seen).items():
                out[layer] += share * weight / total
        return out

    def inside(func: Func, seen: frozenset) -> Dict[Optional[str], float]:
        """Where time spent inside ``func`` (its cumulative time) belongs."""
        if func not in stats or stop.get(func):
            return {owner.get(func): 1.0}
        if func in memo:
            return memo[func]
        callers = stats[func][4]
        seen = seen | {func}
        weights = {c: v[3] for c, v in callers.items() if c not in seen}
        result = spread(weights, seen)
        memo[func] = result
        return result

    totals: Dict[Optional[str], float] = defaultdict(float)
    for func, (cc, nc, tt, ct, callers) in stats.items():
        if tt <= 0:
            continue
        if stop[func] or not callers:
            totals[owner[func]] += tt
            continue
        weights = {c: v[2] for c, v in callers.items() if c != func}
        if sum(weights.values()) <= 0:
            weights = {c: v[1] for c, v in callers.items() if c != func}
        for layer, share in spread(weights, frozenset([func])).items():
            totals[layer] += tt * share
    return totals


def _is_wait(func: Func) -> bool:
    path = func[0].replace(os.sep, "/")
    return path.endswith("concurrent/futures/_base.py") and func[2] in _WAITS


def exec_waiting(stats: dict) -> float:
    """Seconds the exec layer spent blocked on pool results."""
    return sum(
        edge[3]
        for func, (_, _, _, _, callers) in stats.items()
        if _is_wait(func)
        for caller, edge in callers.items()
        if layer_of(module_of(caller[0])) == "exec"
    )


def profile_metrics(profile, wall_s: float) -> Dict[str, float]:
    """Per-layer self time, coverage and exec overhead of a traced pass."""
    stats = pstats.Stats(profile).stats
    totals = attribute(stats)
    out = {f"{layer}.self_s": totals.get(layer, 0.0) for layer in LAYERS}
    covered = sum(v for k, v in totals.items() if k is not None)
    out["trace.coverage"] = covered / wall_s if wall_s > 0 else 0.0
    out["exec.overhead_s"] = max(0.0, out["exec.self_s"] - exec_waiting(stats))
    return out


#: Count metric -> the public functions whose calls it counts.
CALLS: Dict[str, List[Tuple[type, str]]] = {
    "simmpi.sends": [(World, "post")],
    "hardware.network.transfers": [(NetworkFabric, "transfer")],
    "hardware.cpu.run_cycles": [(SimCPU, "run_cycles")],
    "hardware.series.queries": [
        (PowerSeries, name)
        for name in (
            "cumulative_energy", "sample", "power_at", "energy",
            "average_power", "peak_power", "energy_many",
            "windowed_average", "change_times", "window",
        )
    ]
    + [
        (ClusterSeries, name)
        for name in (
            "total_energy", "average_power", "power_at", "peak_power",
            "node_energies", "node_average_powers", "sample_matrix",
            "windowed_average_matrix",
        )
    ]
    + [(EnergyCursor, "advance")],
    # Called exactly once per frequency change, traced or not.
    "dvs.transitions": [(CpuFreq, "_trace_transition")],
}

#: Timing metric -> the functions each call of which is timed.
TIMED: Dict[str, List[Tuple[object, str]]] = {
    "cache.key_us": [
        (repro.cache.keys, "task_key"),
        (repro.faults.sweep, "chaos_task_key"),
        (repro.serving.sweep, "serving_task_key"),
    ],
    "cache.get_us": [(RunCache, "get")],
    "cache.put_us": [(RunCache, "put")],
}


class Counters:
    """Exact counts of one untraced pass."""

    def __init__(self) -> None:
        self.counts: Dict[str, float] = defaultdict(float)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self._engines: list = []
        self._executed = False

    @contextmanager
    def installed(self) -> Iterator["Counters"]:
        patches = []

        def patch(owner, name, wrapper) -> None:
            patches.append((owner, name, owner.__dict__[name]))
            setattr(owner, name, wrapper)

        for metric, targets in CALLS.items():
            for owner, name in targets:
                patch(owner, name, self._counting(metric, owner.__dict__[name]))
        for metric, targets in TIMED.items():
            for owner, name in targets:
                patch(owner, name, self._timing(metric, getattr(owner, name)))
        make_engine = repro.hardware.cluster.make_engine
        engines = self._engines

        def capturing_make_engine(*args, **kwargs):
            engine = make_engine(*args, **kwargs)
            engines.append(engine)
            return engine

        patch(repro.hardware.cluster, "make_engine", capturing_make_engine)
        try:
            yield self
        finally:
            for owner, name, original in reversed(patches):
                setattr(owner, name, original)

    def _counting(self, metric: str, func):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[metric] += 1
            return func(*args, **kwargs)

        return counted

    def _timing(self, metric: str, func):
        samples = self.samples[metric]
        clock = time.perf_counter

        def timed(*args, **kwargs):
            t0 = clock()
            try:
                return func(*args, **kwargs)
            finally:
                samples.append((clock() - t0) * 1e6)

        return timed

    def on_result(self, event) -> None:
        """Sweep ``on_result`` hook: count executed attempts and retries."""
        self._executed = event.source == "run"
        if self._executed:
            self.counts["exec.attempts"] += 1 + len(event.attempts)
            self.counts["exec.retries"] += len(event.attempts)

    def after_task(self, case, outcome) -> None:
        for engine in self._engines:
            stats = getattr(engine, "stats", None)
            if stats is not None:
                self.counts["sim.events"] += stats.dispatched
                self.counts["sim.frontiers"] += stats.frontiers
                self.counts["sim.cancelled"] += stats.cancelled
        self._engines.clear()
        if not self._executed:
            return  # a cache hit replays a report; it runs nothing
        report = getattr(outcome, "report", None)
        if case.family == "chaos":
            self.counts["powercap.windows"] += report.total_windows
            self.counts["powercap.violations"] += report.violation_windows
            self.counts["powercap.repairs"] += report.repair_events
            self.counts["faults.transitions"] += report.n_transitions
        elif case.family == "serving":
            self.counts["serving.requests"] += report.n_requests
            self.counts["serving.dropped"] += report.dropped
            self.counts["serving.timed_out"] += report.timed_out
            self.counts["powercap.windows"] += report.cap_total_windows or 0

    def metrics(self, cache: Optional[RunCache]) -> Dict[str, float]:
        out = {
            name: self.counts.get(name, 0.0)
            for name, unit in PER_LAYER.items()
            if unit in ("count", "bytes")
        }
        handled = out["sim.events"] + out["sim.cancelled"]
        out["sim.cancel_frac"] = out["sim.cancelled"] / handled if handled else 0.0
        for metric in TIMED:
            samples = self.samples.get(metric)
            out[f"{metric}.p50"] = statistics.median(samples) if samples else 0.0
        if cache is not None:
            stats = cache.stats
            out["cache.hits"] = stats.hits
            out["cache.misses"] = stats.misses
            out["cache.bytes"] = stats.bytes
        lookups = out["cache.hits"] + out["cache.misses"]
        out["cache.hit_frac"] = out["cache.hits"] / lookups if lookups else 0.0
        return out
