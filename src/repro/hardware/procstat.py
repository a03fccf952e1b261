"""Emulation of the Linux ``/proc/stat`` CPU time accounting.

The ``cpuspeed`` daemon decides frequency from the CPU idle percentage
derived from ``/proc/stat`` (paper §3).  We reproduce the relevant
semantics: cumulative busy and idle jiffies per CPU, where busy-wait
polling (SPIN) counts as *busy* — the accounting artifact responsible for
cpuspeed's ineffectiveness on MPI codes.

Time in a blended state (e.g. PROTO at 40 % utilisation) is split
proportionally between busy and idle, matching how the kernel would sample
a process that alternates between short syscalls and halts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.hardware.activity import CpuActivity
from repro.util.validation import check_fraction, check_nonnegative

__all__ = ["ProcStatSample", "ProcStat", "busy_share"]


def busy_share(d_busy: float, d_total: float) -> float:
    """Busy fraction of an interval with ``d_busy`` of ``d_total`` seconds
    busy, clamped to [0, 1].

    Returns 0.0 for an empty interval (daemon polled twice in the same
    tick), matching cpuspeed's defensive behaviour.
    """
    if d_total <= 0:
        return 0.0
    return max(0.0, min(1.0, d_busy / d_total))


@dataclass(frozen=True)
class ProcStatSample:
    """A snapshot of cumulative CPU time counters (seconds, not jiffies)."""

    busy: float
    idle: float

    @property
    def total(self) -> float:
        return self.busy + self.idle

    def utilization_since(self, earlier: "ProcStatSample") -> float:
        """Busy fraction over the interval between two snapshots
        (:func:`busy_share` of the counter deltas)."""
        return busy_share(self.busy - earlier.busy, self.total - earlier.total)


class ProcStat:
    """Cumulative busy/idle accounting for one (single-core) CPU.

    ``spin_counts_busy`` exists for the ablation experiment that asks
    "what if the kernel *could* see busy-waiting as idle?" — flipping it
    makes utilisation-driven governors (cpuspeed) effective on MPI codes,
    isolating the accounting artifact behind the paper's Fig-3 result.
    """

    def __init__(self, spin_counts_busy: bool = True) -> None:
        self._busy = 0.0
        self._idle = 0.0
        self._spin_counts_busy = spin_counts_busy
        # 1.0 where a state's time counts busy, 0.0 where idle, by
        # ``CpuActivity.index``; built once, as the flag is read-only.
        self._busy_row = tuple(
            float(state.busy and (spin_counts_busy or state is not CpuActivity.SPIN))
            for state in CpuActivity
        )

    @property
    def spin_counts_busy(self) -> bool:
        return self._spin_counts_busy

    def account(
        self,
        duration: float,
        state: CpuActivity,
        utilization: float = 1.0,
        floor: CpuActivity = CpuActivity.IDLE,
    ) -> None:
        """Charge ``duration`` seconds spent in ``state`` to the counters.

        ``utilization`` blends ``state`` with ``floor``; busy time is the
        busy-weighted mix of the two (a progress engine doing byte-work
        over a SPIN floor is 100 % busy in ``/proc/stat``).
        """
        check_nonnegative("duration", duration)
        check_fraction("utilization", utilization)
        row = self._busy_row
        busy_frac = utilization * row[state.index] + (1.0 - utilization) * row[
            floor.index
        ]
        self._busy += duration * busy_frac
        self._idle += duration * (1.0 - busy_frac)

    def counters(self) -> Tuple[float, float]:
        """The cumulative ``(busy, idle)`` seconds, without building a
        :class:`ProcStatSample` (the cap governor reads every node per
        window)."""
        return self._busy, self._idle

    def snapshot(self) -> ProcStatSample:
        """Current cumulative counters (what reading /proc/stat returns)."""
        return ProcStatSample(busy=self._busy, idle=self._idle)
