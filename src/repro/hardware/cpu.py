"""The simulated DVS-capable CPU.

:class:`SimCPU` executes *work* for the single MPI rank pinned to its node
(the paper runs one process per laptop).  Work comes in three shapes:

* :meth:`run_cycles` — frequency-dependent computation: ``cycles`` of
  retirement work take ``cycles / f`` seconds, and a frequency change in
  the middle re-times the remainder (this is what makes DVS transitions
  mid-phase behave correctly under the cpuspeed daemon);
* :meth:`stall` — frequency-*independent* wall time in a given activity
  state (a DRAM stall, protocol work pinned to the NIC's pace);
* :meth:`wait_event` — MPICH-1-style message waiting: busy-poll (SPIN)
  up to a threshold, then block in the kernel (IDLE).

Every state, utilization, or frequency change closes an accounting segment:
the duration is charged to the node's ``/proc/stat`` emulation and the node
is notified so it can record the new power level on its timeline.
"""

from __future__ import annotations

from typing import Callable, Generator, List, Optional

from repro.hardware.activity import CpuActivity
from repro.hardware.dvfs import DVFSTable, OperatingPoint
from repro.hardware.procstat import ProcStat
from repro.sim.engine import Engine
from repro.sim.events import PENDING, Event, Timeout
from repro.util.copying import shallow_copy
from repro.util.validation import check_fraction, check_nonnegative

__all__ = ["SimCPU"]

#: Minimum leftover cycles treated as "done" (guards float dust when a
#: frequency change lands at the exact end of a work quantum).
_CYCLE_EPSILON = 1e-6

#: Reading a member off an ``Enum`` class costs about 0.15 µs on CPython
#: 3.11, four times a plain class attribute; the work primitives return
#: to idle once per quantum or wait.
_IDLE = CpuActivity.IDLE


class _CycleWork(Event):
    """One in-flight ``run_cycles`` quantum: the event its worker waits on.

    The CPU keeps a cancellable ``deadline`` timeout armed at the quantum's
    completion instant and re-arms it (after re-timing ``remaining`` as
    ``remaining -= (now - started) * freq``) whenever the frequency
    changes, without racing any events while the frequency holds still.
    """

    __slots__ = ("cpu", "deadline", "remaining", "freq", "started")

    def __init__(self, cpu: "SimCPU", remaining: float):
        # Event.__init__ inlined: one quantum per request on a server.
        self.engine = cpu.engine
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self._cancelled = False
        self.cpu = cpu
        self.remaining = remaining

    def _complete(self, _deadline: Event) -> None:
        """The deadline's only callback, so the worker may wake inside
        this dispatch."""
        self.cpu._inflight.remove(self)
        self.remaining = 0.0
        self._succeed_in_dispatch(None)


class SimCPU:
    """Single-core CPU with Enhanced-SpeedStep-style frequency scaling.

    Parameters
    ----------
    engine:
        Simulation engine.
    table:
        The DVFS ladder.
    procstat:
        The node's ``/proc/stat`` accounting sink.
    on_change:
        Callback invoked (with no arguments) after every accounting-relevant
        change; the node uses it to update its power timeline.
    spin_block_threshold:
        Seconds of busy-wait polling before a waiting receive falls back to
        blocking in the kernel.  ``inf`` reproduces a pure spin-wait MPI
        implementation, ``0`` a pure blocking one.
    cycles_per_work:
        Microarchitectural cost multiplier: how many of *this* core's
        cycles one unit of nominal (workload-counted) work takes.  1.0 is
        the calibrated out-of-order reference; an in-order core needs
        more (see :data:`repro.hardware.scaling.CORE_IO`).
    """

    def __init__(
        self,
        engine: Engine,
        table: DVFSTable,
        procstat: Optional[ProcStat] = None,
        on_change: Optional[Callable[[], None]] = None,
        spin_block_threshold: float = 0.005,
        cycles_per_work: float = 1.0,
    ):
        self.engine = engine
        self.table = table
        self.procstat = procstat if procstat is not None else ProcStat()
        self._on_change = on_change or (lambda: None)
        check_nonnegative("spin_block_threshold", spin_block_threshold)
        self.spin_block_threshold = spin_block_threshold
        if cycles_per_work <= 0:
            raise ValueError(f"cycles_per_work must be > 0, got {cycles_per_work}")
        self.cycles_per_work = cycles_per_work

        self._point: OperatingPoint = table.fastest
        #: ``_point``'s ladder position (0 = slowest): its power row
        self._index: int = len(table) - 1
        self._inflight: List[_CycleWork] = []
        self._state: CpuActivity = CpuActivity.IDLE
        self._utilization: float = 1.0
        self._floor: CpuActivity = CpuActivity.IDLE
        self._segment_start: float = engine.now
        # Notification events are created on first access (see
        # freq_changed): a transition nobody waits on schedules nothing.
        self._freq_event: Optional[Event] = None
        #: cumulative number of completed frequency transitions
        self.transition_count: int = 0
        # Fault-injection state (repro.faults).  Both default to the
        # fault-free fast path: run_cycles/stall race no extra events and
        # set_frequency never refuses unless an injector arms them.
        self._powered: bool = True
        self._gated: bool = False
        self._suspended: bool = False
        self._power_restored: Optional[Event] = None
        #: powered-core fraction (repro.powercap's vertical knob): work
        #: throughput and dynamic CPU power both scale by it.  1.0 (all
        #: cores) is the exact no-op — ``f × 1.0 == f`` bitwise — so
        #: full-core runs are float-identical to a scale-free CPU.
        self._core_scale: float = 1.0
        #: when True, P-state transition requests are silently dropped
        #: (a stuck DVFS regulator); armed by the fault injector.
        self.dvfs_stuck: bool = False
        #: cumulative number of refused/dropped transition requests
        self.refused_transitions: int = 0

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def operating_point(self) -> OperatingPoint:
        return self._point

    @property
    def frequency(self) -> float:
        """Current clock frequency in Hz."""
        return self._point.frequency

    @property
    def state(self) -> CpuActivity:
        return self._state

    @property
    def utilization(self) -> float:
        return self._utilization

    @property
    def floor(self) -> CpuActivity:
        """The state blended with ``state`` for the idle share of time."""
        return self._floor

    @property
    def freq_changed(self) -> Event:
        """Event firing at the next P-state transition (for wait loops).

        Also fires on power loss and core reallocation — every change of
        the work-retirement rate.
        """
        if self._freq_event is None:
            self._freq_event = self.engine.event()
        return self._freq_event

    @property
    def powered(self) -> bool:
        """False while the node is failed-stop (crashed, drawing 0 W)."""
        return self._powered

    @property
    def suspended(self) -> bool:
        """True while the node is *intentionally* power-gated.

        Distinguishes an orderly :meth:`suspend` (platform keeps suspend
        power, wake state retained) from a crash :meth:`power_off`
        (drawing nothing).  Only meaningful while ``powered`` is False.
        """
        return self._suspended

    @property
    def core_allocation(self) -> float:
        """Powered-core fraction in (0, 1] (1.0 = all cores)."""
        return self._core_scale

    @property
    def effective_frequency(self) -> float:
        """Work-retirement rate in Hz: clock × powered-core fraction."""
        return self._point.frequency * self._core_scale

    @property
    def power_restored(self) -> Event:
        """Event firing at the next :meth:`power_on` (for gated waits)."""
        if self._power_restored is None:
            self._power_restored = self.engine.event()
        return self._power_restored

    # ------------------------------------------------------------------
    # accounting plumbing
    # ------------------------------------------------------------------
    def _close_segment(self) -> None:
        """Charge the time since the last flip to ``/proc/stat``, in
        place (``ProcStat.account``'s blend, without its validation)."""
        now = self.engine._now
        duration = now - self._segment_start
        if duration > 0:
            stat = self.procstat
            row = stat._busy_row
            utilization = self._utilization
            busy = utilization * row[self._state.index] + (
                1.0 - utilization
            ) * row[self._floor.index]
            stat._busy += duration * busy
            stat._idle += duration * (1.0 - busy)
        self._segment_start = now

    def _rate_changed(self, value: object) -> None:
        """Wake :attr:`freq_changed` waiters, then re-time armed quanta."""
        event, self._freq_event = self._freq_event, None
        if event is not None:
            event.succeed(value)
        self._retime_inflight()

    def set_state(
        self,
        state: CpuActivity,
        utilization: float = 1.0,
        floor: CpuActivity = CpuActivity.IDLE,
    ) -> None:
        """Switch activity state (closing the accounting segment)."""
        check_fraction("utilization", utilization)
        self._set_state(state, utilization, floor)

    def _set_state(
        self,
        state: CpuActivity,
        utilization: float = 1.0,
        floor: CpuActivity = CpuActivity.IDLE,
    ) -> None:
        """:meth:`set_state` without validation, for callers whose
        utilization is a constant or already checked.

        The flip path: close the segment, take the new state, and have
        the node write its new draw.
        """
        if (
            state is self._state
            and utilization == self._utilization
            and floor is self._floor
        ):
            return
        self._close_segment()
        self._state = state
        self._utilization = utilization
        self._floor = floor
        self._on_change()

    def set_frequency(self, point: OperatingPoint) -> None:
        """Instantaneous P-state switch.

        Transition *latency* (the µs the core is unavailable) is modelled
        by the CPUFreq layer in :mod:`repro.dvs.cpufreq`, which is the only
        sanctioned caller in experiments; tests may call this directly.
        """
        if self.dvfs_stuck or not self._powered:
            # A stuck regulator (or a crashed node) drops the request on
            # the floor: the caller *believes* the switch happened.  The
            # governor's stuck-frequency detection exists for exactly this.
            self.refused_transitions += 1
            return
        if point.frequency == self._point.frequency:
            return
        index = self.table.position(point)  # must be a legal point
        self._close_segment()
        self._point = point
        self._index = index
        self.transition_count += 1
        self._on_change()
        self._rate_changed(point)

    # ------------------------------------------------------------------
    # fail-stop power gating (repro.faults)
    # ------------------------------------------------------------------
    def enable_power_gating(self) -> None:
        """Arm crash support: work primitives start checking ``powered``.

        Gating is opt-in so fault-free simulations pay nothing for it —
        the injector arms every node that has a crash fault scheduled
        before the job starts.
        """
        self._gated = True

    def power_off(self) -> None:
        """Fail-stop: freeze execution and draw nothing until power_on.

        In-flight :meth:`run_cycles` / :meth:`stall` generators park on
        the power-restored event and resume where they left off — the
        instant-checkpoint-restart approximation (lost work is modelled
        as pure downtime).  Requires :meth:`enable_power_gating` first.
        """
        if not self._gated:
            raise RuntimeError(
                "power_off() without enable_power_gating(): running work "
                "would keep executing through the outage"
            )
        if not self._powered:
            return
        self._close_segment()
        self._powered = False
        self._on_change()
        # Wake in-flight work so it re-times and parks on power_restored.
        self._rate_changed(None)

    def suspend(self) -> None:
        """Orderly power-gate (the control plane's horizontal knob).

        Identical execution semantics to :meth:`power_off` — in-flight
        work parks on the power-restored event and resumes after
        :meth:`power_on` — but the platform stays in a suspend state:
        the node draws its model's ``gated_power`` instead of nothing
        (wake state is retained, so waking is a boot-latency penalty
        rather than a full reboot).  Requires
        :meth:`enable_power_gating` first, like a crash.
        """
        if not self._gated:
            raise RuntimeError(
                "suspend() without enable_power_gating(): running work "
                "would keep executing through the gate"
            )
        if not self._powered:
            return
        self._close_segment()
        self._powered = False
        self._suspended = True
        self._on_change()
        self._rate_changed(None)

    def power_on(self, boot_point: Optional[OperatingPoint] = None) -> None:
        """Restart after a fail-stop outage.

        Boots at ``boot_point`` — default the ladder's **fastest** point,
        the real-world reboot hazard: firmware comes up at full clock and
        whatever ceiling a governor had applied before the crash is gone.
        """
        if self._powered:
            return
        point = boot_point if boot_point is not None else self.table.fastest
        index = self.table.position(point)  # must be a legal point
        self._close_segment()
        self._powered = True
        self._suspended = False
        if point.frequency != self._point.frequency:
            self._point = point
            self._index = index
            self.transition_count += 1
        self._on_change()
        event, self._power_restored = self._power_restored, None
        if event is not None:
            event.succeed(None)

    def set_core_allocation(self, fraction: float) -> None:
        """Set the powered-core fraction (the vertical knob).

        Behaves like a P-state change for in-flight work: the accounting
        segment closes, waiters racing completion against rate changes
        wake, and armed quanta re-time at the new effective rate (see
        :meth:`_retime_inflight`).
        Setting 1.0 restores full throughput and full dynamic power.
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError(
                f"core allocation must be in (0, 1], got {fraction}"
            )
        if fraction == self._core_scale:
            return
        self._close_segment()
        self._core_scale = fraction
        self._on_change()
        self._rate_changed(self._point)

    def finalize(self) -> None:
        """Close the open accounting segment (call at end of simulation)."""
        self._close_segment()

    def clone(
        self, procstat: ProcStat, on_change: Callable[[], None]
    ) -> "SimCPU":
        """This CPU's exact state, accounting to ``procstat``.

        In-flight work and waiters belong to processes and cannot be
        copied, so only an idle CPU nobody waits on may be cloned.
        """
        if (
            self._inflight
            or self._freq_event is not None
            or self._power_restored is not None
        ):
            raise RuntimeError("only an idle, unwatched CPU can be cloned")
        cpu = shallow_copy(self)
        cpu.procstat = procstat
        cpu._on_change = on_change
        cpu._inflight = []
        return cpu

    # ------------------------------------------------------------------
    # work primitives (generators — use with ``yield from``)
    # ------------------------------------------------------------------
    def run_cycles(
        self,
        cycles: float,
        state: CpuActivity = CpuActivity.ACTIVE,
    ) -> Generator[Event, object, None]:
        """Execute ``cycles`` of frequency-dependent work.

        The work takes ``cycles / f`` seconds at the current frequency; a
        mid-run P-state change re-times the remainder at the new frequency,
        exactly as a real core slows down under the daemon's feet.

        Each quantum arms one cancellable completion, re-timed in place
        on frequency and power events (:meth:`_retime_inflight`), so no
        event races while the frequency holds still.
        """
        check_nonnegative("cycles", cycles)
        if self.cycles_per_work != 1.0:
            # Workloads count *nominal* work; an in-order core pays more
            # cycles for it.  Scaled once here so mid-run re-timing sees
            # the same total.
            cycles = cycles * self.cycles_per_work
        remaining = float(cycles)
        self._set_state(state, 1.0)
        try:
            while remaining > _CYCLE_EPSILON:
                if not self._powered:
                    # Fail-stop outage: park (accounted idle, drawing
                    # nothing) and resume the remainder after restart.
                    self._set_state(_IDLE, 1.0)
                    yield self.power_restored
                    self._set_state(state, 1.0)
                    continue
                work = _CycleWork(self, remaining)
                self._arm_work(work)
                self._inflight.append(work)
                yield work
                remaining = work.remaining
        finally:
            self._set_state(_IDLE, 1.0)

    def _arm_work(self, work: _CycleWork) -> None:
        engine = self.engine
        work.freq = self._point.frequency * self._core_scale
        work.started = engine._now
        work.deadline = Timeout(engine, work.remaining / work.freq)
        work.deadline.callbacks.append(work._complete)

    def _retime_inflight(self) -> None:
        """Re-time armed quanta after a frequency or power transition.

        ``remaining -= (now - started) * freq`` is the expression a
        wake-and-reschedule race evaluates on every rate change, so the
        re-armed deadline lands on the float instant that race computes.
        During an outage the quantum's waiter is woken instead (it parks
        on ``power_restored``).
        """
        if not self._inflight:
            return
        engine = self.engine
        now = engine.now
        works, self._inflight = self._inflight, []
        for work in works:
            work.remaining -= (now - work.started) * work.freq
            engine.cancel(work.deadline)
            if self._powered and work.remaining > _CYCLE_EPSILON:
                self._arm_work(work)
                self._inflight.append(work)
            else:
                if work.remaining <= _CYCLE_EPSILON:
                    work.remaining = 0.0
                work.succeed(None)

    def stall(
        self,
        duration: float,
        state: CpuActivity = CpuActivity.MEMSTALL,
        utilization: float = 1.0,
    ) -> Generator[Event, object, None]:
        """Spend frequency-independent wall time in ``state``.

        Used for DRAM stalls (latency set by the memory, not the clock) and
        for protocol work paced by the NIC (``state=PROTO`` with the
        utilization the CPU needs to keep the link fed).
        """
        check_nonnegative("duration", duration)
        check_fraction("utilization", utilization)
        self._set_state(state, utilization)
        try:
            if not self._gated:
                if duration > 0:
                    yield self.engine.timeout(duration)
                return
            # Crash-aware path (armed by the fault injector): the stall
            # races the power-cut wake-up so an outage suspends the
            # remaining wall time instead of silently elapsing through it.
            remaining = float(duration)
            while remaining > 0:
                if not self._powered:
                    self._set_state(_IDLE, 1.0)
                    yield self.power_restored
                    self._set_state(state, utilization)
                    continue
                started = self.engine.now
                done = self.engine.timeout(remaining)
                yield self.engine.any_of([done, self.freq_changed])
                if done.processed:
                    break
                remaining -= self.engine.now - started
        finally:
            self._set_state(_IDLE, 1.0)

    def wait_event(
        self,
        event: Event,
        spin_threshold: Optional[float] = None,
    ) -> Generator[Event, object, object]:
        """Wait for ``event`` the way MPICH-1 waits for a message.

        Busy-polls (SPIN — *busy* in ``/proc/stat``, ~40 % of active power)
        for up to ``spin_threshold`` seconds, then blocks in the kernel
        (IDLE).  Returns the event's value.
        """
        threshold = (
            self.spin_block_threshold if spin_threshold is None else spin_threshold
        )
        check_nonnegative("spin_threshold", threshold)
        self._set_state(CpuActivity.SPIN, 1.0)
        try:
            if threshold == float("inf"):
                yield event
                return event.value
            if threshold > 0:
                give_up = self.engine.timeout(threshold)
                yield self.engine.any_of([event, give_up])
                if event.processed:
                    return event.value
            self._set_state(_IDLE, 1.0)
            yield event
            return event.value
        finally:
            self._set_state(_IDLE, 1.0)
