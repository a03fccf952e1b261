"""Degraded-mode tuning knobs and the governor's repair record.

:class:`ResilienceConfig` turns on the triage step of
:class:`~repro.powercap.governor.CapGovernor`'s control window (pass
``resilience=None`` — the default — for the fair-weather governor, which
is also the un-hardened baseline the chaos experiment compares against).  Every
defensive action the hardened governor takes is appended to its
``repair_log`` as a :class:`RepairEvent`, so recovery behaviour is as
inspectable as compliance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.util.records import record
from repro.util.validation import check_positive

__all__ = ["ResilienceConfig", "RepairEvent"]


@dataclass(frozen=True)
class ResilienceConfig:
    """Hardened-governor behaviour, in units of control windows.

    The defaults assume the governor interval is the fastest clock the
    control plane has: one window of missing telemetry is tolerated by
    carrying the last sample forward, two consecutive dark windows
    trigger the worst-case fallback, and a node that is both dark and
    drawing (near) nothing for ``dead_windows`` windows is declared
    crashed — its budget share is redistributed to the survivors until
    it rejoins.
    """

    #: consecutive dark windows before a still-drawing node is treated
    #: as *stale*: it is budgeted at worst case (fully active at its
    #: ceiling) and the whole allocation falls back to the uniform
    #: policy until telemetry returns
    stale_windows: int = 2
    #: consecutive dark windows at ≤ ``dead_watts`` before a node is
    #: declared crashed (watchdog)
    dead_windows: int = 2
    #: PDU reading (watts) below which a dark node counts as unpowered
    dead_watts: float = 0.5
    #: bounded retry budget for re-applying a cap a node refused
    max_reapply_attempts: int = 5
    #: backoff base: retry ``k`` waits ``base × 2^(k-1)`` windows
    backoff_base_windows: int = 1
    #: re-admit a restarted node at the ladder floor for one window
    #: (defeats the reboot-at-max-clock hazard) before normal allocation
    rejoin_at_floor: bool = True

    def __post_init__(self) -> None:
        check_positive("stale_windows", self.stale_windows)
        check_positive("dead_windows", self.dead_windows)
        check_positive("dead_watts", self.dead_watts)
        check_positive("max_reapply_attempts", self.max_reapply_attempts)
        check_positive("backoff_base_windows", self.backoff_base_windows)


@record
class RepairEvent:
    """One defensive action taken by the hardened governor."""

    time: float
    node_id: int
    #: "declared-dead" | "rejoined" | "stale-fallback" | "reapply" |
    #: "unstuck" | "gave-up"
    action: str
    detail: str = ""


@dataclass
class StuckState:
    """Per-node bookkeeping for the stuck-frequency re-apply loop."""

    target: float  #: ceiling (Hz) the node refuses to honour
    attempts: int = 0
    windows: int = 0  #: windows since the stuck condition was detected
    next_retry: int = 1  #: ``windows`` value at which to retry next
    gave_up: bool = False


def describe_mhz(frequency_hz: Optional[float]) -> str:
    """Human label for repair-log details."""
    if frequency_hz is None:
        return "?"
    return f"{frequency_hz / 1e6:.0f}MHz"
