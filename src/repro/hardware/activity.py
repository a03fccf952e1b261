"""CPU activity states and their accounting semantics.

The power draw of a Pentium-M-class processor depends strongly on *what* it
is doing, not just on its frequency: retiring instructions out of registers
or on-die cache burns far more than sitting stalled on a DRAM access or
halted in a C-state.  The paper's microbenchmark section (Figs 6-8) is
precisely a characterisation of these per-activity differences, and the
cpuspeed result (Fig 3) hinges on which activities the kernel's
``/proc/stat`` counts as *busy*.

We model five activity states:

========== =============================================================
state      meaning
========== =============================================================
ACTIVE     retiring instructions from registers / L1 / L2
MEMSTALL   pipeline stalled on a DRAM access
PROTO      kernel protocol work: TCP/IP checksums, socket copies, MPI
           envelope handling — charged per byte moved and per message
SPIN       MPICH-1-style busy-wait polling for a message that has not
           arrived yet (select loop with zero timeout)
IDLE       halted / blocked in the kernel (C-state); a bulk rendezvous
           sender blocked in ``write()`` is here
========== =============================================================

``/proc/stat`` accounting: ACTIVE, MEMSTALL, PROTO and SPIN all appear as
*busy* jiffies (user or system time); only IDLE appears as idle.  SPIN
counting as busy is the mechanism behind the paper's central negative
result: the cpuspeed daemon sees a communication-bound MPI rank as ~100 %
utilised and never lowers the frequency.
"""

from __future__ import annotations

import enum

__all__ = ["CpuActivity", "BUSY_STATES", "is_busy_for_procstat"]


class CpuActivity(enum.Enum):
    """What the (single-core) CPU is doing right now."""

    ACTIVE = "active"
    MEMSTALL = "memstall"
    PROTO = "proto"
    SPIN = "spin"
    IDLE = "idle"

    #: position in declaration order (set at import, below)
    index: int
    #: whether /proc/stat counts this state as busy (set at import, below)
    busy: bool

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: States that the OS time accounting reports as busy jiffies.
BUSY_STATES = frozenset(
    {
        CpuActivity.ACTIVE,
        CpuActivity.MEMSTALL,
        CpuActivity.PROTO,
        CpuActivity.SPIN,
    }
)


def is_busy_for_procstat(state: CpuActivity) -> bool:
    """Whether ``/proc/stat`` counts time in ``state`` as busy."""
    return state.busy


# Each member carries its position in declaration order (the column it
# owns in a power or /proc/stat row, see CpuPowerModel.rows) and its
# busy flag as plain attributes, so the per-flip paths index tuples
# instead of hashing the member.
for _index, _state in enumerate(CpuActivity):
    _state.index = _index
    _state.busy = _state in BUSY_STATES
del _index, _state
