"""DVFS operating points and the Pentium M ladder (paper Table 2).

An :class:`OperatingPoint` couples a clock frequency with the supply
voltage required to sustain it; a :class:`DVFSTable` is the ordered ladder
of points a processor supports (what Enhanced SpeedStep exposes through
ACPI P-states).

The paper's platform — the Intel Pentium M 1.4 GHz ("Banias") in the Dell
Inspiron 8600 — supports exactly five points, reproduced verbatim in
:data:`PENTIUM_M_1400`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.util.units import MHZ, pretty_freq
from repro.util.validation import check_positive

__all__ = [
    "OperatingPoint",
    "DVFSTable",
    "PENTIUM_M_1400",
    "alpha_power_frequency",
]


@dataclass(frozen=True, order=True)
class OperatingPoint:
    """One P-state: a (frequency, voltage) pair.

    Ordered by frequency so tables sort naturally.
    """

    frequency: float  #: clock frequency in Hz
    voltage: float  #: supply voltage in volts

    def __post_init__(self) -> None:
        check_positive("frequency", self.frequency)
        check_positive("voltage", self.voltage)

    @property
    def mhz(self) -> float:
        """Frequency in MHz (the unit the paper's tables use)."""
        return self.frequency / MHZ

    def fv2(self) -> float:
        """The CMOS dynamic-power term ``f · V²`` (Eq. 2 of the paper)."""
        return self.frequency * self.voltage**2

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{pretty_freq(self.frequency)}@{self.voltage:.3f}V"


class DVFSTable:
    """An ordered ladder of operating points (slowest first).

    Provides the lookups the DVS substrate needs: nearest legal point,
    stepping up/down one notch, and the paper's normalisation conventions
    (everything is normalised to the *fastest* point).
    """

    def __init__(self, points: Sequence[OperatingPoint]):
        if not points:
            raise ValueError("a DVFS table needs at least one operating point")
        ordered = sorted(points)
        freqs = [p.frequency for p in ordered]
        if len(set(freqs)) != len(freqs):
            raise ValueError("duplicate frequencies in DVFS table")
        for slow, fast in zip(ordered, ordered[1:]):
            if fast.voltage < slow.voltage:
                raise ValueError(
                    "supply voltage must be non-decreasing with frequency: "
                    f"{slow} vs {fast}"
                )
        self._points: Tuple[OperatingPoint, ...] = tuple(ordered)
        self._index_by_freq = {p.frequency: i for i, p in enumerate(ordered)}
        # The normalised power terms of the ladder's own points, by
        # position: the exact expressions relative_fv2/relative_v2
        # evaluate for an off-ladder point.
        fastest_fv2 = ordered[-1].fv2()
        fastest_v = ordered[-1].voltage
        self._rel_fv2 = tuple(p.fv2() / fastest_fv2 for p in ordered)
        self._rel_v2 = tuple((p.voltage / fastest_v) ** 2 for p in ordered)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._points)

    def __iter__(self) -> Iterator[OperatingPoint]:
        return iter(self._points)

    def __getitem__(self, idx: int) -> OperatingPoint:
        return self._points[idx]

    @property
    def points(self) -> Tuple[OperatingPoint, ...]:
        return self._points

    @property
    def fastest(self) -> OperatingPoint:
        return self._points[-1]

    @property
    def slowest(self) -> OperatingPoint:
        return self._points[0]

    @property
    def frequencies(self) -> List[float]:
        """All frequencies, slowest first."""
        return [p.frequency for p in self._points]

    # ------------------------------------------------------------------
    def point_for(self, frequency: float) -> OperatingPoint:
        """The operating point with exactly ``frequency`` (Hz)."""
        idx = self._index_by_freq.get(frequency)
        if idx is None:
            raise KeyError(
                f"no operating point at {pretty_freq(frequency)}; "
                f"available: {[pretty_freq(f) for f in self.frequencies]}"
            )
        return self._points[idx]

    def index_of(self, frequency: float) -> int:
        """Index (0 = slowest) of the point with exactly ``frequency``."""
        idx = self._index_by_freq.get(frequency)
        if idx is None:
            raise KeyError(f"no operating point at {pretty_freq(frequency)}")
        return idx

    def position(self, point: OperatingPoint) -> int:
        """Index (0 = slowest) of ``point``, which must be a ladder point:
        ``KeyError`` for an unknown frequency, and for a point whose
        voltage differs from the ladder's point at its frequency."""
        idx = self._ladder_index(point)
        if idx is None:
            raise KeyError(
                f"{point} is not a point of this ladder; "
                f"available: {[str(p) for p in self._points]}"
            )
        return idx

    def _ladder_index(self, point: OperatingPoint) -> Optional[int]:
        """``point``'s index if it is a ladder point, else None."""
        idx = self._index_by_freq.get(point.frequency)
        if idx is None:
            return None
        ladder_point = self._points[idx]
        if ladder_point is not point and ladder_point != point:
            return None
        return idx

    def closest(self, frequency: float) -> OperatingPoint:
        """The legal point nearest to an arbitrary requested frequency.

        This mirrors what the Linux CPUFreq userspace governor does with a
        ``scaling_setspeed`` write that is not an exact P-state.  An
        exact ladder frequency (every governor ceiling) is a dictionary
        hit; ladder frequencies are unique, so the scan would return the
        same point.
        """
        idx = self._index_by_freq.get(frequency)
        if idx is not None:
            return self._points[idx]
        return min(self._points, key=lambda p: abs(p.frequency - frequency))

    def step_down(self, frequency: float) -> OperatingPoint:
        """One notch slower (clamped at the slowest point)."""
        idx = self.index_of(frequency)
        return self._points[max(idx - 1, 0)]

    def step_up(self, frequency: float) -> OperatingPoint:
        """One notch faster (clamped at the fastest point)."""
        idx = self.index_of(frequency)
        return self._points[min(idx + 1, len(self._points) - 1)]

    def relative_fv2(self, point: OperatingPoint) -> float:
        """``f·V²`` of ``point`` normalised to the fastest point.

        This is the frequency-dependent scale factor of CPU dynamic power
        (Eq. 2): at the fastest point it is 1.0.
        """
        idx = self._ladder_index(point)
        if idx is not None:
            return self._rel_fv2[idx]
        return point.fv2() / self.fastest.fv2()

    def relative_v2(self, point: OperatingPoint) -> float:
        """``V²`` of ``point`` normalised to the fastest point.

        Used for the leakage-like component of idle power, which tracks
        voltage but not clock frequency (the clock is gated when halted).
        """
        idx = self._ladder_index(point)
        if idx is not None:
            return self._rel_v2[idx]
        return (point.voltage / self.fastest.voltage) ** 2

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DVFSTable([{', '.join(str(p) for p in self._points)}])"


def alpha_power_frequency(
    voltage: float, threshold_voltage: float, k: float
) -> float:
    """Frequency sustainable at ``voltage`` per the paper's Eq. 1.

    ``f ∝ (V - Vt) / V`` — the alpha-power law with α=1 used in §2.1.  The
    proportionality constant ``k`` is fitted per processor; see
    ``tests/hardware/test_dvfs.py`` for the fit against Table 2.
    """
    if voltage <= threshold_voltage:
        raise ValueError(
            f"voltage {voltage} must exceed threshold voltage {threshold_voltage}"
        )
    return k * (voltage - threshold_voltage) / voltage


#: Paper Table 2 — frequency / supply-voltage pairs for the Pentium M 1.4 GHz.
PENTIUM_M_1400 = DVFSTable(
    [
        OperatingPoint(frequency=1400 * MHZ, voltage=1.484),
        OperatingPoint(frequency=1200 * MHZ, voltage=1.436),
        OperatingPoint(frequency=1000 * MHZ, voltage=1.308),
        OperatingPoint(frequency=800 * MHZ, voltage=1.180),
        OperatingPoint(frequency=600 * MHZ, voltage=0.956),
    ]
)
