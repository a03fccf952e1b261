"""Per-tier DVS policies for the serving path.

Three policies, matching the comparison the serving experiment runs
(its power-capped row is
:class:`~repro.serving.elastic.ElasticServingPolicy`, which plans each
window's cap through the :class:`~repro.powercap.governor.CapGovernor`):

* :class:`StaticServingPolicy` — every node pinned at one P-state (the
  ladder's fastest by default: the "static-max" baseline the SLO is
  calibrated against);
* :class:`CpuspeedServingPolicy` — the paper's cpuspeed daemon, one
  instance per node, reacting to */proc/stat* utilisation.  Under
  bursty load it scales down during lulls and needs a full interval of
  overload to ramp back up — the utilisation-blind failure mode the
  serving experiment exposes;
* :class:`TierDvsPolicy` — the PowerTracer-style controller: per
  control window it measures every tier's mean residence (queue wait +
  service) from the runner's live samples, pins the *critical* tier
  (largest residence) at the fastest point, and steps the others down
  one P-state at a time — only while their queues have slack and their
  projected slowed residence stays safely off the critical path.  Queue
  pressure or rising residence steps a tier back up.

All policies act in *daemon context* (:meth:`CpuFreq.set_speed_now`):
transitions are off the request critical path, exactly like a userspace
governor writing ``scaling_setspeed``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.dvs.cpufreq import CpuFreq
from repro.dvs.cpuspeed import CpuspeedConfig, CpuspeedDaemon, start_poll_clock
from repro.hardware.cluster import Cluster
from repro.obs.tracer import active_tracer
from repro.util.validation import check_positive

__all__ = [
    "CpuspeedServingPolicy",
    "ServingPolicy",
    "StaticServingPolicy",
    "TierDvsPolicy",
]


class ServingPolicy:
    """Base class: binds per-node CPUFreq handles, no-op control."""

    name = "serving-policy"

    def prepare(self, cluster: Cluster, tiers: Sequence) -> None:
        """Bind to the freshly built cluster (before any request flows)."""
        self.cluster = cluster
        self.tiers = list(tiers)
        self._cpufreqs: Dict[int, CpuFreq] = {
            node.node_id: CpuFreq(node, cluster.calibration)
            for node in cluster.nodes
        }
        #: tier index → current frequency (Hz), kept by set_tier_speed
        self._tier_freq: Dict[int, float] = {
            tier.index: cluster.table.fastest.frequency for tier in self.tiers
        }

    def set_tier_speed(self, tier, frequency: float) -> None:
        """Switch every node of ``tier`` to ``frequency`` (daemon context)."""
        for nid in tier.node_ids:
            self._cpufreqs[nid].set_speed_now(frequency)
        self._tier_freq[tier.index] = self._cpufreqs[
            tier.node_ids[0]
        ].current_frequency

    def tier_frequency(self, tier) -> float:
        """The frequency this policy last set for ``tier`` (Hz)."""
        return self._tier_freq[tier.index]

    def start(self, engine) -> None:
        """Launch control processes (called after servers are up)."""

    def teardown(self) -> None:
        """Stop control processes (called once the run drains)."""


class StaticServingPolicy(ServingPolicy):
    """Every node pinned at one frequency (default: the ladder's max)."""

    def __init__(self, frequency: Optional[float] = None):
        self.frequency = frequency
        self.name = "static"

    def prepare(self, cluster: Cluster, tiers: Sequence) -> None:
        super().prepare(cluster, tiers)
        freq = (
            self.frequency
            if self.frequency is not None
            else cluster.table.fastest.frequency
        )
        for tier in self.tiers:
            self.set_tier_speed(tier, freq)
        self.name = f"static@{self._tier_freq[self.tiers[0].index] / 1e6:.0f}MHz"


class CpuspeedServingPolicy(ServingPolicy):
    """The Fedora cpuspeed daemon, per node, exactly as the paper ran it."""

    name = "cpuspeed"

    def __init__(self, config: Optional[CpuspeedConfig] = None):
        self.config = config or CpuspeedConfig()
        self.daemons: List[CpuspeedDaemon] = []

    def prepare(self, cluster: Cluster, tiers: Sequence) -> None:
        super().prepare(cluster, tiers)
        self.daemons = [
            CpuspeedDaemon(node, self._cpufreqs[node.node_id], self.config)
            for node in cluster.nodes
        ]

    def start(self, engine) -> None:
        start_poll_clock(engine, self.config.interval, self.daemons, "cpuspeed")

    def teardown(self) -> None:
        for daemon in self.daemons:
            daemon.stop()


class TierDvsPolicy(ServingPolicy):
    """PowerTracer-style per-tier DVS under an implicit latency budget.

    Parameters
    ----------
    interval:
        Control window (seconds) between retunes.
    safety:
        Headroom factor: a non-critical tier may only slow down while
        ``projected_residence × safety < critical_residence`` — the
        margin that keeps it off the request critical path even as its
        service time stretches.
    queue_low:
        A tier is a step-down candidate only when its queue holds at
        most this many requests (queue slack).
    queue_high_per_node:
        Queue pressure threshold: more than this many queued requests
        *per tier node* forces a step up regardless of residence.
    """

    name = "tierdvs"

    def __init__(
        self,
        interval: float = 0.25,
        safety: float = 1.5,
        queue_low: int = 1,
        queue_high_per_node: int = 2,
    ):
        check_positive("interval", interval)
        check_positive("safety", safety)
        if queue_low < 0:
            raise ValueError(f"queue_low must be >= 0, got {queue_low}")
        check_positive("queue_high_per_node", queue_high_per_node)
        self.interval = interval
        self.safety = safety
        self.queue_low = queue_low
        self.queue_high_per_node = queue_high_per_node
        #: decision log: (time, tier name, new frequency Hz)
        self.decisions: List[Tuple[float, str, float]] = []
        self._stopped = False

    def start(self, engine) -> None:
        engine.process(self._loop(engine), name="tierdvs")

    def teardown(self) -> None:
        self._stopped = True

    # ------------------------------------------------------------------
    def _mean_residence(self, tier) -> Optional[float]:
        window = tier.take_window()
        if not window:
            return None
        return sum(w + s for w, s in window) / len(window)

    def _retune(self, tier, frequency: float, engine) -> None:
        self.set_tier_speed(tier, frequency)
        self.decisions.append((engine.now, tier.name, frequency))
        tracer = active_tracer()
        if tracer.enabled:
            tracer.instant(
                "retune",
                "serving.dvs",
                "serving",
                engine.now,
                tier=tier.name,
                mhz=frequency / 1e6,
            )

    def _loop(self, engine):
        freqs = self.cluster.table.frequencies  # slowest first
        fastest = freqs[-1]
        while not self._stopped:
            yield engine.timeout(self.interval)
            if self._stopped:
                return
            measured = [(tier, self._mean_residence(tier)) for tier in self.tiers]
            # Critical tier: largest mean residence this window; a tier
            # with no completions is scored by its service estimate at
            # its current clock (it cannot silently stop being critical
            # just because the window was quiet).
            scored = [
                (
                    r
                    if r is not None
                    else tier.spec.service_cycles / self._tier_freq[tier.index],
                    tier,
                )
                for tier, r in measured
            ]
            critical_residence, critical = max(scored, key=lambda s: s[0])
            if self._tier_freq[critical.index] != fastest:
                self._retune(critical, fastest, engine)
            for tier, residence in measured:
                if tier is critical:
                    continue
                current = self._tier_freq[tier.index]
                level = freqs.index(current)
                pressured = (
                    tier.queue_length
                    > self.queue_high_per_node * len(tier.node_ids)
                ) or (
                    residence is not None
                    and residence * self.safety >= critical_residence
                )
                if pressured and level < len(freqs) - 1:
                    self._retune(tier, freqs[level + 1], engine)
                    continue
                if tier.queue_length <= self.queue_low and level > 0:
                    slower = freqs[level - 1]
                    projected = (
                        0.0
                        if residence is None
                        else residence * (current / slower)
                    )
                    if projected * self.safety < critical_residence:
                        self._retune(tier, slower, engine)
