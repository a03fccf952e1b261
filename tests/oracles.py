"""Reference walks that the production fast paths are tested against.

Each function is the plain event-by-event (or segment-by-segment)
version of a fast path in ``repro``:

* :func:`run_cycles_walk` is ``SimCPU.run_cycles`` as one race of a
  completion timeout against ``freq_changed`` per scheduling round,
  instead of one armed quantum re-timed in place;
* :func:`chunk_hold` sends one chunk per link hold, the per-chunk walk
  that ``NetworkFabric._bulk_hold`` folds into one completion;
* :func:`power_at_walk` and :func:`peak_walk` answer timeline queries by
  bisecting and scanning the recorded change points, where the
  ``PowerSeries`` kernel uses its columns;
* :func:`canonical_encode_walk` picks a cache-key encoding rule for
  every node of a spec tree by an ``isinstance`` chain, where
  ``repro.cache.keys.canonical_encode`` compiles one encoder per class;
* :func:`state_power`, :func:`node_power` and :class:`ProcStatWalk`
  evaluate the CPU power model and ``/proc/stat`` accounting from
  their formulas on every call, where ``CpuPowerModel.rows`` and
  ``ProcStat`` read tables built once;
* :func:`dvfs_apply_walk` runs a ceiling action's whole
  ``set_ceiling`` → ``set_speed_now`` chain, which ``DvfsActuator.apply``
  must keep running in full;
* :func:`dispatch_walk` applies every action of a plan in full, each
  time, where ``dispatch_plan`` walks steps lowered once per plan and
  only books a ceiling that is in place and reached;
* :class:`DictMonitorWalk` checks node-over-ceiling from a dict of
  powered clocks and a dict of ceilings built per window, where
  ``InvariantMonitor`` walks a position list built at construction;
* :class:`TelemetryBusyWalk` takes a ``ProcStatSample`` snapshot per node
  per window and calls ``utilization_since``, where ``ClusterTelemetry``
  reads position-indexed counters;
* :class:`ReplanWalk` is a ``CapGovernor`` that evaluates every
  prediction from the telemetry model and calls ``policy.plan`` every
  window, where the governor carries an unchanged node's row and an
  unchanged window's plan;
* :class:`ApplyWalk` is a ``CapGovernor`` that applies and checks every
  window through :func:`dispatch_walk` and :class:`DictMonitorWalk`;
* :class:`TelemetryWalk` samples every node's switches, ``/proc/stat``
  snapshot and meter each window through their accessors, where
  ``ClusterTelemetry`` skips the switches of a node whose change stamp
  has not moved, and :class:`FullWindowWalk` is a ``CapGovernor`` on it:
  no window is steady, so every window triages, builds its plan key and
  dispatches its plan;
* :func:`redist_allocate_walk` is ``SlackRedistributionPolicy.allocate``
  re-scoring every node above the floor at every step, where the policy
  re-scores only the node it stepped;
* :func:`serving_report_walk` builds a ``ServingReport`` with one pass
  over the records per tier, one sort per percentile and the
  actuator-log reading of the deepest knob, where
  ``build_serving_report`` walks the records once and sorts each
  percentile list once.

:func:`using_walks` installs the first two in place of the bulk paths,
so a whole experiment can run on the walks and be compared with the
production run.
"""

import bisect
import dataclasses
import enum
import json
import math
from contextlib import contextmanager
from typing import Any, Iterator, Mapping

from repro.hardware.activity import BUSY_STATES, CpuActivity
from repro.hardware.cpu import _CYCLE_EPSILON, SimCPU
from repro.hardware.network import NetworkFabric
from repro.metrics.serving import (
    ServingReport,
    TierBreakdown,
    attribute_request_energy,
)
from repro.powercap.actions import SetFreqCeiling
from repro.powercap.governor import CapGovernor
from repro.powercap.monitor import InvariantMonitor, InvariantViolation
from repro.powercap.policy import CapAllocation, UniformCapPolicy
from repro.powercap.telemetry import (
    NodeWindowSample,
    compute_intensity,
    demand_power,
    predict_node_power,
)
from repro.util.validation import check_nonnegative


def run_cycles_walk(cpu, cycles, state=CpuActivity.ACTIVE):
    """``SimCPU.run_cycles`` as a timeout-vs-``freq_changed`` race."""
    check_nonnegative("cycles", cycles)
    if cpu.cycles_per_work != 1.0:
        cycles = cycles * cpu.cycles_per_work
    engine = cpu.engine
    remaining = float(cycles)
    cpu.set_state(state, 1.0)
    try:
        while remaining > _CYCLE_EPSILON:
            if not cpu.powered:
                cpu.set_state(CpuActivity.IDLE, 1.0)
                yield cpu.power_restored
                cpu.set_state(state, 1.0)
                continue
            freq = cpu.effective_frequency
            started = engine.now
            done = engine.timeout(remaining / freq)
            yield engine.any_of([done, cpu.freq_changed])
            if done.processed:
                remaining = 0.0
            else:
                remaining -= (engine.now - started) * freq
    finally:
        cpu.set_state(CpuActivity.IDLE, 1.0)


def chunk_hold(fabric, remaining, rate, tx, rx):
    """Send one chunk per link hold; return the bytes still to send."""
    chunk = min(fabric.config.chunk_bytes, remaining)
    yield fabric.engine.timeout(chunk / rate)
    return remaining - chunk


@contextmanager
def using_walks() -> Iterator[None]:
    """Run ``SimCPU.run_cycles`` and the fabric's link holds as walks."""
    saved = SimCPU.run_cycles, NetworkFabric._bulk_hold
    SimCPU.run_cycles, NetworkFabric._bulk_hold = run_cycles_walk, chunk_hold
    try:
        yield
    finally:
        SimCPU.run_cycles, NetworkFabric._bulk_hold = saved


def power_at_walk(timeline, time):
    """The timeline's power at ``time``, by bisecting its change points."""
    times, watts = zip(*timeline.segments())
    if time < times[0]:
        raise ValueError(f"t={time} precedes timeline start {times[0]}")
    return watts[bisect.bisect_right(times, time) - 1]


def peak_walk(timeline, t0, t1):
    """The timeline's peak power over ``[t0, t1]``, by a scan."""
    times, watts = zip(*timeline.segments())
    if t1 < t0:
        raise ValueError(f"peak interval reversed: [{t0}, {t1}]")
    if t0 < times[0]:
        raise ValueError(f"t0={t0} precedes timeline start {times[0]}")
    idx = bisect.bisect_right(times, t0) - 1
    peak = watts[idx]
    for i in range(idx + 1, len(times)):
        if times[i] > t1:
            break
        peak = max(peak, watts[i])
    return peak


def _qualname(obj: object) -> str:
    cls = type(obj)
    return f"{cls.__module__}.{cls.__qualname__}"


def canonical_encode_walk(obj: Any) -> Any:
    """``canonical_encode`` as one generic walk over the spec tree."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj
    if isinstance(obj, enum.Enum):
        return {"__enum__": _qualname(obj), "name": obj.name}
    if isinstance(obj, (bytes, bytearray)):
        return {"__bytes__": bytes(obj).hex()}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            "__dataclass__": _qualname(obj),
            "fields": {
                f.name: canonical_encode_walk(getattr(obj, f.name))
                for f in dataclasses.fields(obj)
            },
        }
    if isinstance(obj, Mapping):
        items = [
            [canonical_encode_walk(k), canonical_encode_walk(v)]
            for k, v in obj.items()
        ]
        items.sort(key=lambda kv: json.dumps(kv[0], sort_keys=True))
        return {"__map__": items}
    if isinstance(obj, (list, tuple)):
        return [canonical_encode_walk(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        encoded = [canonical_encode_walk(v) for v in obj]
        encoded.sort(key=lambda v: json.dumps(v, sort_keys=True))
        return {"__set__": encoded}
    item = getattr(obj, "item", None)
    if callable(item) and getattr(obj, "shape", None) == ():
        return canonical_encode_walk(obj.item())
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
                k: canonical_encode_walk(v)
                for k, v in sorted(state.items())
                if not callable(v)
            },
        }
    raise TypeError(
        f"cannot canonically encode {type(obj).__name__!r} for cache keying"
    )


def state_power(model, point, state):
    """CPU watts in ``state`` at ``point``: ``α·P_max`` times the
    point's ``f·V²`` (halted: ``V²``) normalised to the fastest point."""
    alpha = model.factors[state]
    fastest = model.table.fastest
    if state is CpuActivity.IDLE:
        return alpha * model.max_power * (point.voltage / fastest.voltage) ** 2
    return alpha * model.max_power * (point.fv2() / fastest.fv2())


def cpu_power(model, point, state, utilization=1.0, floor=CpuActivity.IDLE):
    """``CpuPowerModel.power`` from the formula."""
    busy = state_power(model, point, state)
    rest = state_power(model, point, floor)
    return utilization * busy + (1.0 - utilization) * rest


def node_power(
    model,
    point,
    state,
    utilization=1.0,
    nic_active=False,
    floor=CpuActivity.IDLE,
    core_fraction=1.0,
):
    """``NodePowerModel.power`` from the formula."""
    cpu_watts = cpu_power(model.cpu, point, state, utilization, floor)
    if core_fraction != 1.0:
        cpu_watts = core_fraction * cpu_watts
    total = model.base_power + cpu_watts
    if nic_active:
        total += model.nic_active_power
    return total


def node_watts(node):
    """What a node draws now, read from its public state."""
    cpu = node.cpu
    if not cpu.powered:
        return node.power_model.gated_power if cpu.suspended else 0.0
    return node_power(
        node.power_model,
        cpu.operating_point,
        cpu.state,
        cpu.utilization,
        node.nic_active,
        cpu.floor,
        cpu.core_allocation,
    )


class ProcStatWalk:
    """``/proc/stat`` busy/idle totals, the busy test made per segment."""

    def __init__(self, spin_counts_busy=True):
        self.spin_counts_busy = spin_counts_busy
        self.busy = 0.0
        self.idle = 0.0

    def _is_busy(self, state):
        if state is CpuActivity.SPIN and not self.spin_counts_busy:
            return False
        return state in BUSY_STATES

    def account(self, duration, state, utilization=1.0, floor=CpuActivity.IDLE):
        busy_frac = utilization * float(self._is_busy(state)) + (
            1.0 - utilization
        ) * float(self._is_busy(floor))
        self.busy += duration * busy_frac
        self.idle += duration * (1.0 - busy_frac)


def dvfs_apply_walk(actuator, action):
    """``DvfsActuator.apply`` with every step taken, whatever is in place."""
    cpufreq = actuator.cpufreqs[action.node_id]
    frequency = action.frequency
    cpufreq.set_ceiling(frequency)
    if action.drive_down:
        if cpufreq.current_frequency > frequency:
            cpufreq.set_speed_now(frequency)
    elif cpufreq.current_frequency < frequency:
        cpufreq.set_speed_now(frequency)
    actuator.pending_target[action.node_id] = frequency


def dispatch_walk(plan, routes):
    """Apply a plan one action at a time, in plan order: a ceiling move
    through :func:`dvfs_apply_walk`, any other action through its
    actuator's ``apply``."""
    for action in plan.actions:
        actuator = routes[type(action)]
        if isinstance(action, SetFreqCeiling):
            dvfs_apply_walk(actuator, action)
        else:
            actuator.apply(action)


class DictMonitorWalk(InvariantMonitor):
    """The invariant monitor checking each window from two dicts: the
    clock of every powered node and every node's ceiling, walked in
    sorted node-id order."""

    def observe_window(self, window, *, target_watts, allocated=True):
        node_frequencies = {
            nid: cpu.frequency for nid, cpu, _ in self._nodes if cpu.powered
        }
        ceilings = {nid: cpufreq.ceiling for nid, _, cpufreq in self._nodes}
        found = []
        limit = self.budget.limit_watts
        if window.cluster_avg_watts > limit * (1.0 + 1e-9):
            found.append(
                InvariantViolation(
                    time=window.t1,
                    kind=self.WINDOW_OVER_BUDGET,
                    detail=(
                        f"measured {window.cluster_avg_watts:.2f} W over "
                        f"limit {limit:.2f} W"
                    ),
                )
            )
        if (
            allocated
            and window.feasible
            and window.predicted_watts > target_watts * (1.0 + 1e-9)
        ):
            found.append(
                InvariantViolation(
                    time=window.t1,
                    kind=self.ALLOCATION_OVER_TARGET,
                    detail=(
                        f"policy predicted {window.predicted_watts:.2f} W "
                        f"above target {target_watts:.2f} W yet claimed "
                        "feasible"
                    ),
                )
            )
        for node_id in sorted(node_frequencies):
            ceiling = ceilings.get(node_id)
            if ceiling is None:
                continue
            actual = node_frequencies[node_id]
            if actual > ceiling * (1.0 + 1e-9):
                found.append(
                    InvariantViolation(
                        time=window.t1,
                        kind=self.NODE_OVER_CEILING,
                        detail=(
                            f"running {actual / 1e6:.0f} MHz above ceiling "
                            f"{ceiling / 1e6:.0f} MHz"
                        ),
                        node_id=node_id,
                    )
                )
        self.violations.extend(found)
        return found


class TelemetryBusyWalk:
    """The busy fractions ``ClusterTelemetry.sample`` reports, from one
    ``/proc/stat`` snapshot per node per window."""

    def __init__(self, cluster):
        self.cluster = cluster
        self.window_start = cluster.engine.now
        self.previous = {
            node.node_id: node.procstat.snapshot() for node in cluster.nodes
        }

    def sample(self):
        """node id → busy fraction of every visible node (empty for a
        zero-length window, which moves no baseline)."""
        now = self.cluster.engine.now
        if now <= self.window_start:
            return {}
        fractions = {}
        for node in self.cluster.nodes:
            node.cpu.finalize()
            snapshot = node.procstat.snapshot()
            busy = snapshot.utilization_since(self.previous[node.node_id])
            self.previous[node.node_id] = snapshot
            if node.telemetry_visible:
                fractions[node.node_id] = busy
        self.window_start = now
        return fractions


class ReplanWalk(CapGovernor):
    """The cap governor with nothing carried between windows.

    Every prediction is ``max(predict_node_power, demand_power)`` under
    the demand marks folded so far, evaluated on each call (no rows),
    and every reallocating window asks the policy for a fresh plan.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._plans_from_key = False  # every window plans afresh

    def _observe_demand(self, samples):
        decay = self.config.demand_decay
        for s in samples:
            measured = compute_intensity(self._model, self._table, s)
            previous = self._demand.get(s.node_id, 1.0)
            self._demand[s.node_id] = max(measured, decay * previous)

    def _predict(self, sample, point):
        demand = self._demand_of(sample.node_id)
        return max(
            predict_node_power(self._model, self._table, sample, point),
            demand_power(self._model, self._table, demand, point),
        )


class ApplyWalk(CapGovernor):
    """The cap governor applying each plan through :func:`dispatch_walk`
    and checking each window through :class:`DictMonitorWalk`: nothing
    lowered once per plan, no position list."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.monitor = DictMonitorWalk(self.budget, self._positions)

    def _apply_plan(self, plan):
        dispatch_walk(plan, self._routes)
        self._gated.update(plan.gated_node_ids)


class TelemetryWalk:
    """``ClusterTelemetry`` with every node read in full every window:
    its switches through ``telemetry_visible`` and ``faults``, its busy
    fraction from ``/proc/stat`` snapshots, its joules from its own
    cursor.  It never reports a window unchanged."""

    unchanged = None

    def __init__(self, cluster):
        self.cluster = cluster
        now = cluster.engine.now
        self.window_start = now
        self.previous = {
            node.node_id: node.procstat.snapshot() for node in cluster.nodes
        }
        self.meters = {
            node.node_id: node.timeline.cursor(now) for node in cluster.nodes
        }
        self.window_joules = {}

    def sample(self):
        now = self.cluster.engine.now
        t0 = self.window_start
        if now <= t0:
            return []
        samples = []
        joules = {}
        for node in self.cluster.nodes:
            nid = node.node_id
            node.cpu.finalize()
            snapshot = node.procstat.snapshot()
            busy = snapshot.utilization_since(self.previous[nid])
            self.previous[nid] = snapshot
            joules[nid] = self.meters[nid].advance(now)
            if not node.telemetry_visible:
                continue
            watts = joules[nid] / (now - t0)
            if node.faults.power_noise is not None:
                watts = node.faults.power_noise(watts, now)
            samples.append(
                NodeWindowSample(nid, t0, now, watts, busy, node.cpu.frequency)
            )
        self.window_joules = joules
        self.window_start = now
        return samples


class FullWindowWalk(CapGovernor):
    """The cap governor on :class:`TelemetryWalk`: no window is steady."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._telemetry = TelemetryWalk(self.cluster)


def redist_allocate_walk(
    policy, samples, target_watts, table, floor, ceiling, predict, intensity
):
    """``SlackRedistributionPolicy.allocate`` re-scoring every candidate
    at every step."""
    by_id = {s.node_id: s for s in samples}
    level = {nid: intensity(s) for nid, s in by_id.items()}
    if (
        not level
        or max(level.values()) - min(level.values())
        < policy._BALANCE_THRESHOLD
    ):
        # Nothing to tell apart (or no node to allocate at all).
        return UniformCapPolicy().allocate(
            samples, target_watts, table, floor, ceiling, predict,
            intensity,
        )
    lo = table.index_of(floor.frequency)
    hi = table.index_of(ceiling.frequency)
    idx = {s.node_id: hi for s in samples}
    watts = {s.node_id: predict(s, table[hi]) for s in samples}
    total = 0.0  # the policy's left fold, on every interpreter
    for node_watts in watts.values():
        total += node_watts

    def overrun(nid, point):
        ratio = level[nid] * (by_id[nid].frequency / point.frequency)
        return max(0.0, ratio - 1.0)

    def step_score(nid):
        cur, nxt = table[idx[nid]], table[idx[nid] - 1]
        freed = watts[nid] - predict(by_id[nid], nxt)
        if level[nid] >= policy._SATURATION:
            penalty = cur.frequency / nxt.frequency - 1.0
        else:
            penalty = overrun(nid, nxt) - overrun(nid, cur)
        return freed / (penalty + policy._EPSILON_PENALTY)

    while total > target_watts:
        candidates = [nid for nid in idx if idx[nid] > lo]
        if not candidates:  # everyone is at the floor already
            return CapAllocation(
                frequencies={
                    nid: table[i].frequency for nid, i in idx.items()
                },
                predicted_watts=total,
                feasible=False,
            )
        # Best watts-per-slowdown first; node id breaks ties so the
        # allocation is deterministic.
        best = max(candidates, key=lambda nid: (step_score(nid), -nid))
        idx[best] -= 1
        new_watts = predict(by_id[best], table[idx[best]])
        total += new_watts - watts[best]
        watts[best] = new_watts
    return CapAllocation(
        frequencies={nid: table[i].frequency for nid, i in idx.items()},
        predicted_watts=total,
        feasible=True,
    )


def _percentile_walk(values, q):
    """Nearest-rank percentile with one sort per call."""
    if not 0.0 < q <= 100.0:
        raise ValueError(f"q must be in (0, 100], got {q}")
    if not values:
        return None
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[rank - 1]


def serving_report_walk(run, label=None):
    """``build_serving_report`` with a pass over the records per tier."""
    governor = getattr(run.policy, "governor", None)
    windows = getattr(governor, "windows", None)
    escalation = None
    if governor is not None:
        escalation = "dvfs"
        for actuator in getattr(governor, "actuators", []):
            log = getattr(actuator, "log", None)
            if not log:
                continue
            kinds = getattr(actuator, "kinds", ())
            names = {k.__name__ for k in kinds}
            if "GateNode" in names and any(
                entry[2] in ("gate", "drain") for entry in log
            ):
                escalation = "gate"
                break
            if "SetCoreAllocation" in names:
                escalation = "cores"
    records = run.records
    completed = [r for r in records if r.status == "ok"]
    dropped = sum(1 for r in records if r.status == "dropped")
    timed_out = sum(1 for r in records if r.status == "timeout")
    duration = run.duration_s
    latencies = [r.latency_s for r in completed]

    per_request, attributed = attribute_request_energy(run.cluster, records)
    del per_request  # report carries the ledger; callers re-derive rows
    energy = run.energy_j

    tiers = []
    for name in run.workload.tier_names:
        spans = [
            span
            for record in records
            for span in record.spans
            if span.tier == name
        ]
        residences = [span.residence_s for span in spans]
        served = len(spans)
        tiers.append(
            TierBreakdown(
                tier=name,
                served=served,
                mean_wait_s=(
                    sum(s.wait_s for s in spans) / served if served else 0.0
                ),
                mean_service_s=(
                    sum(s.service_s for s in spans) / served if served else 0.0
                ),
                p50_s=_percentile_walk(residences, 50.0),
                p95_s=_percentile_walk(residences, 95.0),
                p99_s=_percentile_walk(residences, 99.0),
            )
        )

    return ServingReport(
        label=label
        if label is not None
        else getattr(run.policy, "name", "serving"),
        n_requests=len(records),
        completed=len(completed),
        dropped=dropped,
        timed_out=timed_out,
        duration_s=duration,
        throughput_rps=len(completed) / duration if duration > 0 else 0.0,
        p50_s=_percentile_walk(latencies, 50.0),
        p95_s=_percentile_walk(latencies, 95.0),
        p99_s=_percentile_walk(latencies, 99.0),
        energy_j=energy,
        request_energy_j=attributed,
        unattributed_energy_j=energy - attributed,
        energy_per_request_j=(
            energy / len(completed) if completed else None
        ),
        tiers=tuple(tiers),
        cap_feasible_windows=(
            None
            if windows is None
            else sum(1 for w in windows if w.feasible)
        ),
        cap_total_windows=None if windows is None else len(windows),
        cap_escalation=escalation,
    )
