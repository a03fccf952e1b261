"""Per-node telemetry windows and the governor's power prediction model.

The governor periodically needs, for every node: *how much power did you
draw over the last window, and how much of it was real computation?*  The
first comes from the node's ground-truth
:class:`~repro.hardware.timeline.PowerTimeline`; in a deployment it would
come from RAPL / PDU readings, which report the same windowed average.
The second cannot come from ``/proc/stat`` alone — MPICH-1 busy-waiting
pins the busy counter at 100 % on communication-bound ranks (the paper's
Fig-3 artifact) — so the telemetry layer cross-references the two: given
the window's busy fraction *and* its measured watts, it solves the node
power model for the **effective activity factor** of the busy time.  A
rank that was truly computing shows α ≈ 1.0; a rank that spun in the
progress engine shows α ≈ 0.4 and a DRAM-stalled one α ≈ 0.45, even
though all three look identically "100 % busy" to the kernel.  That
inferred factor is the slack signal the redistribution policy ranks
nodes by, and it makes the per-frequency power prediction
self-calibrating.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, NoReturn

from repro.hardware.activity import CpuActivity
from repro.hardware.cluster import Cluster
from repro.hardware.dvfs import DVFSTable, OperatingPoint
from repro.hardware.node import Node
from repro.hardware.power import NodePowerModel
from repro.hardware.procstat import busy_share
from repro.hardware.timeline import EnergyCursor
from repro.util.records import record

__all__ = [
    "NodeWindowSample",
    "ClusterTelemetry",
    "infer_busy_alpha",
    "predict_node_power",
    "demand_power",
    "spin_floor_power",
    "compute_intensity",
]

#: Busy fraction below which the activity factor is unidentifiable from
#: power (almost no busy time to attribute the draw to).
_MIN_BUSY_FOR_INFERENCE = 0.02


@record
class NodeWindowSample:
    """One node's telemetry over one governor window."""

    node_id: int
    t0: float
    t1: float
    avg_watts: float  #: windowed average node power
    busy_fraction: float  #: /proc/stat busy share of the window
    frequency: float  #: operating frequency (Hz) at the window's end

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


class ClusterTelemetry:
    """Rolling per-node window sampler against a live cluster.

    Each :meth:`sample` call closes every node's open accounting segment
    (exactly as the cpuspeed daemon must before reading ``/proc/stat``),
    then returns one :class:`NodeWindowSample` per node covering the
    interval since the previous call (or since construction).

    After each call :attr:`window_joules` holds every node's raw energy
    over the closed window, dark nodes included and before any
    power-noise fault perturbs the reported watts: the PDU's view of the
    same window, from the same timeline walk.
    """

    def __init__(self, cluster: Cluster):
        self.cluster = cluster
        now = cluster.engine.now
        self._prev_time = now
        # Per-node state by position, in node-id order: one pass over
        # these lists is one window.
        self._nodes: List[Node] = list(cluster.nodes)
        self._ids = [node.node_id for node in self._nodes]
        #: each node's ``/proc/stat`` busy and busy+idle seconds at the
        #: last window close
        self._prev_busy: List[float] = []
        self._prev_total: List[float] = []
        for node in self._nodes:
            snapshot = node.procstat.snapshot()
            self._prev_busy.append(snapshot.busy)
            self._prev_total.append(snapshot.total)
        # Live per-node integrators.  The governor is a *closed-loop*
        # consumer: the watts it reads feed back into frequency
        # decisions, so the window integral must be reproducible
        # bit-for-bit run over run.  The cursor's per-window increment is
        # exactly the scalar window walk (see EnergyCursor.advance) —
        # unlike a frozen-view prefix-sum difference, whose last-ulp
        # rounding depends on the whole trace before the window and
        # would perturb control trajectories.  Batch/offline consumers
        # (profiles, attribution, figures) use the frozen series instead.
        self._meters: List[EnergyCursor] = [
            node.timeline.cursor(now) for node in self._nodes
        ]
        #: node id → joules over the last closed window, in node order
        self.window_joules: Dict[int, float] = {}

    @property
    def window_start(self) -> float:
        """Start time of the window the next :meth:`sample` will close."""
        return self._prev_time

    def sample(self) -> List[NodeWindowSample]:
        """Close the current window and return one sample per *visible*
        node.

        A zero-length window (the governor fired twice at the same sim
        time) returns the empty list — there is nothing to average, and
        NaN-from-0/0 must never reach the policies.

        Nodes whose monitoring agent is down (``telemetry_dark``, or
        crashed outright) report **no sample** — exactly the hole a real
        collector leaves — and consumers must cope with missing node
        ids.  A node with an active power-noise fault reports a
        perturbed ``avg_watts``.

        The window is one pass per node that closes the CPU's
        accounting segment and reads the ``/proc/stat`` counters, the
        power and fault switches and the clock from the hardware's own
        fields, not through their accessors.
        """
        now = self.cluster.engine.now
        t0 = self._prev_time
        if now <= t0:
            return []
        duration = now - t0
        prev_busy, prev_total = self._prev_busy, self._prev_total
        meters = self._meters
        samples = []
        joules_by_position = []
        for i, node in enumerate(self._nodes):
            # Close the open accounting segment before reading the
            # counters, as the cpuspeed daemon must.
            cpu = node.cpu
            cpu._close_segment()
            stat = cpu.procstat
            busy = stat._busy
            total = busy + stat._idle
            busy_fraction = busy_share(busy - prev_busy[i], total - prev_total[i])
            prev_busy[i] = busy
            prev_total[i] = total
            # Advance every node's meter (dark nodes too — their windows
            # must stay aligned for when visibility returns).
            joules = meters[i].advance(now)
            joules_by_position.append(joules)
            faults = node.faults
            if not cpu._powered or faults.telemetry_dark:
                continue
            avg_watts = joules / duration
            noise = faults.power_noise
            if noise is not None:
                avg_watts = noise(avg_watts, now)
            samples.append(
                NodeWindowSample(
                    node.node_id, t0, now, avg_watts, busy_fraction,
                    cpu._point.frequency,
                )
            )
        self.window_joules = dict(zip(self._ids, joules_by_position))
        self._prev_time = now
        return samples


# ---------------------------------------------------------------------------
# the governor's node power model
# ---------------------------------------------------------------------------
def _point_watts(model: NodePowerModel, table: DVFSTable, point) -> tuple:
    """``(busy, idle)`` CPU watts at ``point``: the fully-active draw (the
    α=1 reference) and the halted draw (leakage tracks V²)."""
    busy = model.cpu.max_power * table.relative_fv2(point)
    idle = (
        model.cpu.factors[CpuActivity.IDLE]
        * model.cpu.max_power
        * table.relative_v2(point)
    )
    return busy, idle


class LadderWatts(dict):
    """Ladder frequency → ``(busy, idle)`` CPU watts (see
    :func:`_point_watts`), evaluated once per ladder point.

    A frequency off the ladder raises the ladder's own ``KeyError``.
    """

    def __init__(self, model: NodePowerModel, table: DVFSTable):
        super().__init__(
            (point.frequency, _point_watts(model, table, point)) for point in table
        )
        self._table = table

    def __missing__(self, frequency: float) -> NoReturn:
        # Every ladder frequency is a key, so the ladder's lookup raises.
        self._table.point_for(frequency)
        raise KeyError(frequency)


def solve_busy_alpha(
    sample: NodeWindowSample, base_power: float, watts: Mapping
) -> float:
    """:func:`infer_busy_alpha` against a ``frequency → (busy, idle)``
    table (a :class:`LadderWatts`) built once per ladder."""
    busy_fraction = sample.busy_fraction
    if busy_fraction < _MIN_BUSY_FOR_INFERENCE:
        return 1.0
    busy, idle = watts[sample.frequency]
    cpu_watts = sample.avg_watts - base_power
    residual = cpu_watts - (1.0 - busy_fraction) * idle
    alpha = residual / (busy_fraction * busy)
    return max(0.0, min(1.0, alpha))


def infer_busy_alpha(
    model: NodePowerModel, table: DVFSTable, sample: NodeWindowSample
) -> float:
    """Effective activity factor of the sample's busy time, in [0, 1].

    Solves ``avg = base + busy·α·P_active(f) + (1−busy)·P_idle(f)`` for α.
    Windows with almost no busy time return the conservative 1.0 (if the
    node *does* get busy next window, assume full draw).  A sample at a
    frequency off the ladder raises ``KeyError``.
    """
    return solve_busy_alpha(sample, model.base_power, LadderWatts(model, table))


def predict_node_power(
    model: NodePowerModel,
    table: DVFSTable,
    sample: NodeWindowSample,
    point: OperatingPoint,
) -> float:
    """Predicted average node power (watts) at ``point``.

    Assumes the measured window's activity mix carries over: the busy
    share keeps drawing at its inferred effective factor, the idle share
    stays halted.  The governor re-samples every window, so prediction
    error from the mix shifting (frequency-independent stalls dilate at
    lower clocks) self-corrects within one control period; the budget's
    tolerance plus the governor's safety margin absorb the transient.
    """
    alpha = infer_busy_alpha(model, table, sample)
    busy, idle = _point_watts(model, table, point)
    return (
        model.base_power
        + sample.busy_fraction * alpha * busy
        + (1.0 - sample.busy_fraction) * idle
    )


def demand_power(
    model: NodePowerModel, table: DVFSTable, demand: float, point: OperatingPoint
) -> float:
    """Node draw (watts) if a ``demand`` share of a window is fully active.

    ``demand`` is a compute intensity in [0, 1] (see
    :func:`compute_intensity`); the rest of the window idles.  Monotone
    in both ``demand`` and the operating point, which is what allocation
    loops need from a pessimistic bound.
    """
    busy, idle = _point_watts(model, table, point)
    return model.base_power + demand * busy + (1.0 - demand) * idle


def spin_floor_power(
    model: NodePowerModel, table: DVFSTable, point: OperatingPoint
) -> float:
    """Node draw (watts) if it wakes into a full busy-wait at ``point``.

    The pessimistic floor for capacity planning: a rank that sampled as
    blocked/idle can start spinning in the progress engine within one
    control window (the paper's Fig-3 behaviour is the *default* for
    MPICH-1 waits), jumping from near-idle to α≈0.4 at 100 % busy with
    no warning the governor could react to in time.  Allocators that
    budget such a node below this level are betting against the very
    artifact this codebase reproduces.
    """
    return model.base_power + model.cpu.factors[
        CpuActivity.SPIN
    ] * model.cpu.max_power * table.relative_fv2(point)


def compute_intensity(
    model: NodePowerModel, table: DVFSTable, sample: NodeWindowSample
) -> float:
    """How compute-bound the node's window was, in [0, 1].

    ``busy_fraction × α_effective`` — the fraction of a fully-active
    CPU's draw the node actually used.  ≈1 for retirement-bound ranks;
    ≈0.4 for ranks that spent the window spinning on messages (slack),
    despite ``/proc/stat`` reporting both as 100 % busy.  Lower values
    mean slowing the node costs less performance, so the redistribution
    policy takes frequency from low-intensity nodes first.
    """
    return sample.busy_fraction * infer_busy_alpha(model, table, sample)
