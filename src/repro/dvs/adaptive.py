"""Adaptive per-region DVS (extension: the paper's hand-tuning, automated).

The paper's *dynamic* strategy requires a human to know that ``fft()`` is
slack-heavy.  This strategy learns it: for each marked region it runs a
short online calibration — one execution at the base frequency, one at
the candidate low frequency — and keeps the low frequency only if the
observed slowdown stays within a user tolerance.  Regions that turn out
to be frequency-sensitive (an EP-like compute region) are left at base.

This is the research direction the paper opened (slack-directed runtime
DVS, later systems like Adagio and GEOPM); including it shows the
framework supports strategies beyond the paper's three.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.dvs.controller import ControlGen, DvsController
from repro.dvs.cpufreq import CpuFreq
from repro.dvs.strategy import DVSStrategy
from repro.hardware.cluster import Cluster
from repro.util.validation import check_positive

__all__ = ["AdaptiveConfig", "AdaptiveController", "AdaptiveStrategy"]


class _Phase(enum.Enum):
    MEASURE_BASE = "measure-base"
    MEASURE_LOW = "measure-low"
    DECIDED = "decided"


@dataclass
class _RegionState:
    phase: _Phase = _Phase.MEASURE_BASE
    base_duration: Optional[float] = None
    low_duration: Optional[float] = None
    use_low: bool = False


@dataclass(frozen=True)
class AdaptiveConfig:
    """Tolerance for accepting the low frequency in a region."""

    #: max acceptable region slowdown (e.g. 0.15 = 15 %)
    slowdown_tolerance: float = 0.15

    def __post_init__(self) -> None:
        check_positive("slowdown_tolerance", self.slowdown_tolerance)


class AdaptiveController(DvsController):
    """Per-rank controller with per-region online calibration."""

    def __init__(
        self,
        cpufreq: CpuFreq,
        base_frequency: float,
        low_frequency: float,
        config: Optional[AdaptiveConfig] = None,
    ):
        self.cpufreq = cpufreq
        self.engine = cpufreq.node.engine
        self.base_frequency = base_frequency
        self.low_frequency = low_frequency
        self.config = config or AdaptiveConfig()
        self.regions: Dict[str, _RegionState] = {}
        self._entered_at: Dict[str, float] = {}
        self._entered_low: Dict[str, bool] = {}

    # ------------------------------------------------------------------
    def decision_for(self, name: str) -> Optional[bool]:
        """Whether the region runs at low frequency (None = still learning)."""
        state = self.regions.get(name)
        if state is None or state.phase is not _Phase.DECIDED:
            return None
        return state.use_low

    def region_enter(self, name: str) -> ControlGen:
        state = self.regions.setdefault(name, _RegionState())
        go_low = (
            state.phase is _Phase.MEASURE_LOW
            or (state.phase is _Phase.DECIDED and state.use_low)
        )
        self._entered_at[name] = self.engine.now
        self._entered_low[name] = go_low
        if go_low:
            yield from self.cpufreq.set_speed(self.low_frequency)

    def region_exit(self, name: str) -> ControlGen:
        if name not in self._entered_at:
            raise RuntimeError(f"region_exit({name!r}) with no matching enter")
        duration = self.engine.now - self._entered_at.pop(name)
        went_low = self._entered_low.pop(name)
        state = self.regions[name]
        if state.phase is _Phase.MEASURE_BASE:
            state.base_duration = duration
            state.phase = _Phase.MEASURE_LOW
        elif state.phase is _Phase.MEASURE_LOW:
            state.low_duration = duration
            assert state.base_duration is not None
            slowdown = duration / state.base_duration - 1.0
            state.use_low = slowdown <= self.config.slowdown_tolerance
            state.phase = _Phase.DECIDED
        if went_low:
            yield from self.cpufreq.set_speed(self.base_frequency)


class AdaptiveStrategy(DVSStrategy):
    """Cluster-wide adaptive per-region scaling."""

    kind = "adaptive"

    def __init__(
        self,
        base_frequency: float,
        low_frequency: Optional[float] = None,
        config: Optional[AdaptiveConfig] = None,
    ):
        super().__init__()
        self.base_frequency = base_frequency
        self.low_frequency = low_frequency
        self.config = config or AdaptiveConfig()
        self.controllers: List[AdaptiveController] = []

    @property
    def name(self) -> str:
        return f"adaptive@{self.base_frequency / 1e6:.0f}MHz"

    def prepare(self, cluster: Cluster) -> None:
        super().prepare(cluster)
        for member in cluster.members():
            self._member_cpufreq(member).set_speed_now(self.base_frequency)

    def controller(self, comm) -> AdaptiveController:
        cpufreq = self.cpufreq_for(comm.rank)
        low = self.low_frequency
        if low is None:
            low = cpufreq.node.table.slowest.frequency
        ctl = AdaptiveController(
            cpufreq, self.base_frequency, low, config=self.config
        )
        self.controllers.append(ctl)
        return ctl
