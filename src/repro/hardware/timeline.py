"""Ground-truth power timeline of a node.

The simulator knows the exact instantaneous power of every node at every
moment (piecewise-constant between state changes).  :class:`PowerTimeline`
records those segments; energy over any interval is an exact integral.

The timeline has two phases.  *Recording* is the cheap append-only path
the simulator's writers hit (:meth:`PowerTimeline.set_power`); *querying*
goes through the columnar prefix-sum kernel
(:class:`~repro.hardware.series.PowerSeries`), materialised on demand by
:meth:`PowerTimeline.series` and invalidated automatically whenever a new
change point lands.  The scalar methods (``energy``, ``power_at``, …)
keep their historical signatures but delegate to the frozen view, so
every reader gets O(log n) queries; batch consumers should grab the
series once and use its vectorised APIs.

The *measurement* layer (:mod:`repro.measurement`) never reads this
directly in experiments — it samples it through emulated instruments (ACPI
battery, Baytech meter) exactly the way the paper's PowerPack did, with the
corresponding quantization and refresh-rate error.  Tests compare the
instruments against this ground truth.
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterable, List, Optional, Tuple

from repro.hardware.series import PowerSeries
from repro.util.copying import shallow_copy
from repro.util.validation import check_nonnegative

__all__ = ["EnergyCursor", "PowerTimeline", "shared_series"]


class PowerTimeline:
    """Piecewise-constant power trace with exact energy integration."""

    def __init__(self, start_time: float = 0.0, initial_power: float = 0.0):
        check_nonnegative("initial_power", initial_power)
        self._times: List[float] = [start_time]
        self._watts: List[float] = [initial_power]
        #: bumped on every mutation; the frozen-view staleness token
        self._version = 0
        self._frozen: Optional[Tuple[int, PowerSeries]] = None

    # ------------------------------------------------------------------
    def set_power(self, time: float, watts: float) -> None:
        """Record that the node's power changed to ``watts`` at ``time``.

        Multiple changes at the same instant collapse to the last one;
        if the collapse lands back on the previous segment's level, the
        now-redundant change point is dropped entirely (no zero-delta
        points, so ``change_times`` never reports phantom changes).
        Out-of-order appends are a modelling bug and raise.
        """
        check_nonnegative("watts", watts)
        self._set_power(time, watts)

    def _set_power(self, time: float, watts: float) -> None:
        """:meth:`set_power` without the sign check, for a node whose
        watts are sums of its power model's non-negative entries."""
        last_t = self._times[-1]
        if time < last_t:
            raise ValueError(
                f"power timeline must be appended in time order "
                f"(got t={time} after t={last_t})"
            )
        if time == last_t:
            if watts == self._watts[-1]:
                return  # overwrite with the same level: nothing changed
            if len(self._times) > 1 and watts == self._watts[-2]:
                # Collapsed back to the previous level: the change point
                # no longer changes anything — drop it.
                self._times.pop()
                self._watts.pop()
            else:
                self._watts[-1] = watts
            self._version += 1
            return
        if watts == self._watts[-1]:
            return  # no change; avoid zero-length bookkeeping
        self._times.append(time)
        self._watts.append(watts)
        self._version += 1

    # ------------------------------------------------------------------
    def series(self) -> PowerSeries:
        """The frozen columnar view of the trace recorded so far.

        Cached until the next :meth:`set_power` mutation; repeated
        queries against an unchanged timeline reuse the same arrays.
        """
        cached = self._frozen
        if cached is not None and cached[0] == self._version:
            return cached[1]
        view = PowerSeries(self._times, self._watts)
        self._frozen = (self._version, view)
        return view

    def copy(self) -> "PowerTimeline":
        """An independent timeline with the same trace, version and
        frozen view."""
        twin = shallow_copy(self)
        twin._times = list(self._times)
        twin._watts = list(self._watts)
        return twin

    @property
    def version(self) -> int:
        """Mutation counter (consumers key their own caches off it)."""
        return self._version

    def cursor(self, start: Optional[float] = None) -> "EnergyCursor":
        """An incremental energy integrator from ``start`` (default: the
        last change point).

        The live-instrument primitive: each ``advance(t)`` walks only the
        change points recorded since the previous call, so per-tick
        sampling over a growing trace stays O(total segments) amortised
        instead of re-integrating from the start every tick.
        """
        return EnergyCursor(self, self._times[-1] if start is None else start)

    # ------------------------------------------------------------------
    @property
    def start_time(self) -> float:
        return self._times[0]

    @property
    def last_change(self) -> float:
        return self._times[-1]

    def power_at(self, time: float) -> float:
        """Instantaneous power at ``time`` (watts)."""
        return self.series().power_at(time)

    def energy(self, t0: float, t1: float) -> float:
        """Exact energy in joules consumed over ``[t0, t1]``.

        The final segment is treated as extending indefinitely (the node
        keeps drawing its last-known power), which is how a real meter
        would see it.
        """
        return self.series().energy(t0, t1)

    def average_power(self, t0: float, t1: float) -> float:
        """Average power over ``[t0, t1]`` (Eq. 3: ``E = P_avg × D``)."""
        return self.series().average_power(t0, t1)

    def peak_power(self, t0: float, t1: float) -> float:
        """Maximum instantaneous power (watts) over ``[t0, t1]``."""
        return self.series().peak_power(t0, t1)

    def change_times(self, t0: float, t1: float) -> List[float]:
        """The change points strictly inside ``(t0, t1]`` (for merging)."""
        return self.series().change_times(t0, t1).tolist()

    def segments(self) -> List[Tuple[float, float]]:
        """The ``(time, watts)`` change points, oldest first."""
        return list(zip(self._times, self._watts))

    def __len__(self) -> int:
        return len(self._times)

    # ------------------------------------------------------------------
    # scalar segment walk
    # ------------------------------------------------------------------
    # Every :meth:`EnergyCursor.advance` (one per node per cap-governor
    # window) integrates its window with this walk, so a window's joules
    # never depend on the trace recorded before it.  The property tests
    # and ``benchmarks/bench_extension_timeline.py`` also compare the
    # kernel against it.
    def _energy_walk(self, t0: float, t1: float) -> float:
        if t1 < t0:
            raise ValueError(f"energy interval reversed: [{t0}, {t1}]")
        if t0 < self._times[0]:
            raise ValueError(f"t0={t0} precedes timeline start {self._times[0]}")
        total = 0.0
        idx = bisect.bisect_right(self._times, t0) - 1
        cursor = t0
        while cursor < t1:
            seg_end = (
                self._times[idx + 1] if idx + 1 < len(self._times) else float("inf")
            )
            upto = min(seg_end, t1)
            total += self._watts[idx] * (upto - cursor)
            cursor = upto
            idx += 1
        return total


def shared_series(timelines: Iterable[PowerTimeline]) -> List[PowerSeries]:
    """Each timeline's frozen view, one shared view per distinct trace.

    Nodes no rank touches record the same trace as every other idle node
    of their group, so a large cluster whose nodes were all materialised
    freezes a handful of series instead of one per node.  A timeline whose trace equals an earlier
    one's adopts that timeline's view as its own cached frozen view.
    """
    seen: Dict[Tuple[int, float, float], List[PowerTimeline]] = {}
    views: List[PowerSeries] = []
    for timeline in timelines:
        times, watts = timeline._times, timeline._watts
        twins = seen.setdefault((len(times), times[-1], watts[-1]), [])
        for twin in twins:
            if twin._times == times and twin._watts == watts:
                view = twin.series()
                timeline._frozen = (timeline._version, view)
                break
        else:
            twins.append(timeline)
            view = timeline.series()
        views.append(view)
    return views


class EnergyCursor:
    """Exact cumulative energy over a *growing* timeline, fed forward.

    Live instruments (the ACPI battery, the Baytech outlet) integrate a
    trace that is still being recorded; rebuilding the frozen view every
    refresh tick would re-scan the whole history each time.  The cursor
    instead advances monotonically, walking only the segments between
    the previous tick and the new one, and accumulating their integral —
    the window energies telescope, so the running total equals the exact
    interval integral at every tick.
    """

    __slots__ = ("_timeline", "_t", "_joules")

    def __init__(self, timeline: PowerTimeline, start: float):
        if start < timeline.start_time:
            raise ValueError(
                f"cursor start {start} precedes timeline start "
                f"{timeline.start_time}"
            )
        self._timeline = timeline
        self._t = start
        self._joules = 0.0

    @property
    def time(self) -> float:
        """The instant the cursor has integrated up to."""
        return self._t

    @property
    def joules(self) -> float:
        """Energy accumulated from the cursor's start to :attr:`time`."""
        return self._joules

    def advance(self, upto: float) -> float:
        """Integrate forward to ``upto``; returns the *increment* (joules
        over ``[previous time, upto]``).

        The increment is computed by one fresh segment walk over the new
        window, so it is bit-identical to what a scalar
        ``energy(prev, upto)`` query over the same window returns — the
        property closed-loop consumers (the power-cap governor's
        telemetry) rely on for reproducible control trajectories.  The
        running total since the cursor's start is :attr:`joules`.
        """
        if upto < self._t:
            raise ValueError(
                f"cursor cannot move backwards (at {self._t}, asked {upto})"
            )
        if upto == self._t:
            return 0.0
        step = self._timeline._energy_walk(self._t, upto)
        self._joules += step
        self._t = upto
        return step
