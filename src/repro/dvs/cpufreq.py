"""CPUFreq-style frequency control interface (Linux 2.6 `cpufreq`).

The paper's platform exposes Enhanced SpeedStep through the kernel's
CPUFreq subsystem; userspace (the cpuspeed daemon, or the application via
PowerPack's library calls) writes a target frequency and the hardware
switches P-states.

Two cost models, matching who pays in reality:

* :meth:`CpuFreq.set_speed` — called from *application* context (the
  paper's dynamic strategy): the caller stalls for the transition latency
  plus an application-visible penalty (voltage ramp, pipeline drain,
  cache re-warming).  This is why the paper's dynamic mode runs slightly
  longer than static mode at the same operating point (Fig 4).
* :meth:`CpuFreq.set_speed_now` — called from *daemon* context
  (cpuspeed): applied off the application's critical path; the switch
  itself is modelled as instantaneous for the application.
"""

from __future__ import annotations

from typing import Generator, List

from repro.hardware.activity import CpuActivity
from repro.hardware.calibration import Calibration
from repro.hardware.dvfs import OperatingPoint
from repro.hardware.node import Node
from repro.obs.tracer import active_tracer
from repro.sim.events import Event

__all__ = ["CpuFreq"]


class CpuFreq:
    """Per-node frequency-setting interface."""

    def __init__(self, node: Node, calibration: Calibration):
        self.node = node
        self.calibration = calibration

    # ------------------------------------------------------------------
    @property
    def current_frequency(self) -> float:
        """``scaling_cur_freq`` (Hz)."""
        return self.node.cpu.frequency

    @property
    def available_frequencies(self) -> List[float]:
        """``scaling_available_frequencies`` (Hz, slowest first)."""
        return self.node.table.frequencies

    def resolve(self, frequency: float) -> OperatingPoint:
        """Snap an arbitrary requested frequency to a legal P-state."""
        return self.node.table.closest(frequency)

    # ------------------------------------------------------------------
    def set_speed_now(self, frequency: float) -> None:
        """Daemon-context switch: instantaneous for the application."""
        point = self.resolve(frequency)
        before = self.node.cpu.frequency
        self.node.cpu.set_frequency(point)
        if before != point.frequency:
            self._trace_transition(before, point.frequency, "daemon")

    def set_speed(self, frequency: float) -> Generator[Event, object, None]:
        """Application-context switch: the caller pays the transition cost.

        Generator — drive with ``yield from`` inside a rank program.
        No cost is paid when the target equals the current frequency.
        """
        point = self.resolve(frequency)
        before = self.node.cpu.frequency
        if point.frequency == before:
            return
        cal = self.calibration
        cost = cal.transition_latency + cal.transition_penalty
        if cost > 0:
            yield from self.node.cpu.stall(cost, CpuActivity.ACTIVE)
        self.node.cpu.set_frequency(point)
        self._trace_transition(before, point.frequency, "app")

    def _trace_transition(self, before: float, after: float, mode: str) -> None:
        """Emit the DVS transition instant + clock counter (traced runs)."""
        tracer = active_tracer()
        if not tracer.enabled:
            return
        now = self.node.engine.now
        for nid in self.node.stands_for:
            tracer.instant(
                "transition", "dvs", nid, now,
                from_mhz=before / 1e6, to_mhz=after / 1e6, mode=mode,
            )
            tracer.counter("freq_mhz", nid, now, after / 1e6)
