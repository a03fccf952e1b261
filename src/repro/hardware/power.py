"""CMOS power models (paper §2.1, Eqs. 1-3).

The paper's analysis rests on ``P ∝ c·f·V²`` for the dynamic power of a
CMOS processor.  We model the CPU's power at an operating point ``(f, V)``
in activity state ``s`` as::

    P_cpu(s, f, V) = α(s) · P_max · (f·V²)/(f_max·V_max²)      for busy states
    P_cpu(IDLE, f, V) = α(IDLE) · P_max · (V/V_max)²           when halted

where ``P_max`` is the fully-active draw at the fastest point and ``α(s)``
is a per-activity factor (see :mod:`repro.hardware.activity`).  The idle
state scales only with ``V²`` because a halted core's clock is gated —
what remains is leakage, which tracks supply voltage.

Node power adds a frequency-independent base (chipset, DRAM refresh, disk,
display off, PSU loss) and a small NIC-active term.  The base term is what
bounds achievable energy savings: as frequency drops, CPU power shrinks but
the base keeps integrating over the (slightly longer) run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, Mapping, Tuple

from repro.hardware.activity import CpuActivity
from repro.hardware.dvfs import DVFSTable, OperatingPoint
from repro.util.validation import check_fraction, check_nonnegative, check_positive

__all__ = ["ActivityFactors", "CpuPowerModel", "NodePowerModel", "DEFAULT_FACTORS"]


#: Default per-activity power factors, calibrated against the paper's
#: microbenchmark crescendos (see DESIGN.md §4 and EXPERIMENTS.md).
DEFAULT_FACTORS: Mapping[CpuActivity, float] = {
    CpuActivity.ACTIVE: 1.00,
    CpuActivity.MEMSTALL: 0.45,
    CpuActivity.PROTO: 0.70,
    CpuActivity.SPIN: 0.40,
    CpuActivity.IDLE: 0.12,
}


@dataclass(frozen=True)
class ActivityFactors:
    """Per-activity scaling of CPU power relative to fully active.

    Keeps a read-only copy of the mapping it is given, so a caller
    editing its dict afterwards changes no model built from it.
    """

    factors: Mapping[CpuActivity, float] = field(
        default_factory=lambda: dict(DEFAULT_FACTORS)
    )

    def __post_init__(self) -> None:
        missing = set(CpuActivity) - set(self.factors)
        if missing:
            raise ValueError(f"missing activity factors for {sorted(s.value for s in missing)}")
        for state, value in self.factors.items():
            check_fraction(f"activity factor for {state}", value)
        object.__setattr__(self, "factors", MappingProxyType(dict(self.factors)))

    def __getitem__(self, state: CpuActivity) -> float:
        return self.factors[state]

    def __reduce__(self) -> tuple:
        return ActivityFactors, (dict(self.factors),)


def _row_watts(
    base: float,
    row: Tuple[float, ...],
    state: CpuActivity,
    utilization: float,
    floor: CpuActivity,
    core_fraction: float,
    extra: float,
) -> float:
    """The watts formula: ``base``, plus the CPU watts blended from one
    ladder row of :attr:`CpuPowerModel.rows`, plus ``extra``.

    Every power reading goes through it: the CPU model's (``base`` and
    ``extra`` 0.0, which leave the CPU term bitwise as it is), the node
    model's (base and NIC watts) and a node's per-flip write.
    """
    watts = utilization * row[state.index] + (1.0 - utilization) * row[floor.index]
    if core_fraction != 1.0:
        watts = core_fraction * watts
    return base + watts + extra


class CpuPowerModel:
    """Power draw of the DVS-capable CPU.

    Parameters
    ----------
    table:
        The processor's DVFS ladder (used for normalisation constants).
    max_power:
        Fully-active power (watts) at the fastest operating point.
    factors:
        Per-activity scaling factors.

    The model is a table built once: :attr:`rows` holds, per ladder
    position (slowest first), the watts of every activity state (by
    ``state.index``).  Its inputs are read-only, so no row goes stale.
    """

    def __init__(
        self,
        table: DVFSTable,
        max_power: float = 21.0,
        factors: ActivityFactors | None = None,
    ):
        self._table = table
        self._max_power = check_positive("max_power", max_power)
        self._factors = factors or ActivityFactors()
        #: watts per ladder position, then per ``CpuActivity.index``
        self.rows: Tuple[Tuple[float, ...], ...] = tuple(
            tuple(self._row_entry(point, state) for state in CpuActivity)
            for point in table
        )

    @property
    def table(self) -> DVFSTable:
        return self._table

    @property
    def max_power(self) -> float:
        return self._max_power

    @property
    def factors(self) -> ActivityFactors:
        return self._factors

    def _row_entry(self, point: OperatingPoint, state: CpuActivity) -> float:
        alpha = self._factors[state]
        if state is CpuActivity.IDLE:
            return alpha * self._max_power * self._table.relative_v2(point)
        return alpha * self._max_power * self._table.relative_fv2(point)

    def power(
        self,
        point: OperatingPoint,
        state: CpuActivity,
        utilization: float = 1.0,
        floor: CpuActivity = CpuActivity.IDLE,
    ) -> float:
        """Instantaneous CPU power in watts at the ladder point ``point``.

        ``utilization`` blends ``state`` with the ``floor`` state: a CPU
        doing protocol work for 40 % of the wall time and halted otherwise
        is ``(PROTO, 0.4, floor=IDLE)``; the MPICH-1 progress engine doing
        the same byte-work but busy-polling between chunks is
        ``(PROTO, 0.4, floor=SPIN)``.
        """
        check_fraction("utilization", utilization)
        row = self.rows[self._table.position(point)]
        return _row_watts(0.0, row, state, utilization, floor, 1.0, 0.0)


@dataclass(frozen=True)
class NodePowerModel:
    """Whole-node power: base + CPU + NIC.

    Attributes
    ----------
    cpu:
        The CPU power model.
    base_power:
        Frequency-independent node power in watts (chipset, DRAM refresh,
        disk, PSU loss; laptop display assumed off as in the paper's
        measurement protocol).
    nic_active_power:
        Extra draw while the NIC is transmitting or receiving.
    gated_power:
        Whole-node draw while *power-gated* (suspend-to-RAM: DRAM
        refresh + wake logic + PSU tare).  Well below ``base_power`` —
        gating a node saves platform power that no frequency ladder can
        reach, which is exactly why the elastic control plane's
        horizontal knob wins at deep budget cuts.
    """

    cpu: CpuPowerModel
    base_power: float = 8.2
    nic_active_power: float = 0.6
    gated_power: float = 2.4

    def __post_init__(self) -> None:
        check_nonnegative("base_power", self.base_power)
        check_nonnegative("nic_active_power", self.nic_active_power)
        check_nonnegative("gated_power", self.gated_power)

    def power(
        self,
        point: OperatingPoint,
        state: CpuActivity,
        utilization: float = 1.0,
        nic_active: bool = False,
        floor: CpuActivity = CpuActivity.IDLE,
        core_fraction: float = 1.0,
    ) -> float:
        """Instantaneous node power in watts at the ladder point ``point``.

        ``core_fraction`` scales the CPU term by the powered-core share
        (per-core power gating: parked cores draw nothing).  The default
        1.0 takes the exact legacy path.
        """
        check_fraction("utilization", utilization)
        row = self.cpu.rows[self.cpu.table.position(point)]
        return _row_watts(
            self.base_power,
            row,
            state,
            utilization,
            floor,
            core_fraction,
            self.nic_active_power if nic_active else 0.0,
        )

    def breakdown(
        self,
        point: OperatingPoint,
        state: CpuActivity,
        utilization: float = 1.0,
        nic_active: bool = False,
        floor: CpuActivity = CpuActivity.IDLE,
        core_fraction: float = 1.0,
    ) -> Dict[str, float]:
        """Per-component power, for reporting and the PowerPack profiles.

        Takes :meth:`power`'s parameters and reads the same row, so the
        parts sum (base, then CPU, then NIC) to exactly ``power()``.
        """
        check_fraction("utilization", utilization)
        row = self.cpu.rows[self.cpu.table.position(point)]
        return {
            "base": self.base_power,
            "cpu": _row_watts(0.0, row, state, utilization, floor, core_fraction, 0.0),
            "nic": self.nic_active_power if nic_active else 0.0,
        }
