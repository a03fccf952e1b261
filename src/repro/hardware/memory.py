"""Memory-hierarchy timing model (Pentium M "Banias").

The paper's microbenchmarks distinguish three data regimes that we must
time differently under DVS:

* **register/L1/L2 resident** — every access is an on-die hit whose cost
  is a fixed number of *cycles*; wall time scales as ``1/f`` (Fig 7);
* **DRAM resident** — every access pays the ~110 ns main-memory latency
  (paper §4: "memory load latency of 110ns"), which does not depend on the
  core clock (Fig 6);
* mixes in between, produced by real kernels.

:class:`MemoryHierarchy` classifies a strided walk over a buffer and
returns an :class:`AccessCost` splitting the work into frequency-dependent
cycles and frequency-independent stall seconds.  Workload models feed those
two halves to :meth:`SimCPU.run_cycles` and :meth:`SimCPU.stall`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.records import record
from repro.util.units import KIB, MIB
from repro.util.validation import check_positive

__all__ = ["AccessCost", "MemoryHierarchy", "PENTIUM_M_MEMORY"]


@record
class AccessCost:
    """Cost decomposition of a block of memory work.

    Attributes
    ----------
    cpu_cycles:
        Frequency-dependent work (address generation, the ALU op on each
        element, on-die cache hit latency).
    stall_seconds:
        Frequency-independent stall time (DRAM latency, paced by the memory
        controller's clock rather than the core's).
    """

    cpu_cycles: float
    stall_seconds: float

    def __add__(self, other: "AccessCost") -> "AccessCost":
        return AccessCost(
            self.cpu_cycles + other.cpu_cycles,
            self.stall_seconds + other.stall_seconds,
        )

    def scaled(self, factor: float) -> "AccessCost":
        return AccessCost(self.cpu_cycles * factor, self.stall_seconds * factor)

    def duration_at(self, frequency: float) -> float:
        """Wall time of this work at clock ``frequency`` (Hz)."""
        return self.cpu_cycles / frequency + self.stall_seconds


@dataclass(frozen=True)
class MemoryHierarchy:
    """Capacities and latencies of the on-die caches and DRAM."""

    l1_bytes: int = 32 * KIB  #: on-die 32 K L1 data cache (paper §3)
    l2_bytes: int = 1 * MIB  #: on-die 1 MB L2 cache (paper §3)
    cache_line_bytes: int = 64
    l1_hit_cycles: float = 3.0
    l2_hit_cycles: float = 10.0
    dram_latency: float = 110e-9  #: measured load latency (paper §4)
    #: per-reference core cycles (address generation, loop control, the
    #: ALU op, TLB walk share); 6.5 reproduces the paper's Fig-6 delay
    #: crescendo (5.4 % slowdown at 600 MHz on the DRAM-latency walk)
    op_cycles: float = 6.5
    #: DRAM streaming bandwidth for bulk copies (DDR SDRAM era); used by
    #: the transpose's local phase and loopback transfers.
    dram_bandwidth: float = 1.0e9

    def __post_init__(self) -> None:
        check_positive("l1_bytes", self.l1_bytes)
        check_positive("l2_bytes", self.l2_bytes)
        if self.l2_bytes < self.l1_bytes:
            raise ValueError("L2 must be at least as large as L1")
        check_positive("dram_latency", self.dram_latency)
        check_positive("dram_bandwidth", self.dram_bandwidth)

    # ------------------------------------------------------------------
    def classify(self, buffer_bytes: int) -> str:
        """Which level a repeatedly-walked buffer of this size lives in."""
        if buffer_bytes <= self.l1_bytes:
            return "L1"
        if buffer_bytes <= self.l2_bytes:
            return "L2"
        return "DRAM"

    def strided_walk_cost(
        self,
        buffer_bytes: int,
        stride_bytes: int,
        n_refs: int,
    ) -> AccessCost:
        """Cost of ``n_refs`` strided references over a resident buffer.

        A stride at least as large as a cache line defeats spatial locality,
        so every reference pays the full level latency — this is exactly
        the access pattern of the paper's microbenchmarks (128 B stride
        over 32 MB for memory-bound, over 256 KB for L2-bound).  Strides
        smaller than a line amortize the miss across ``line/stride``
        references.
        """
        check_positive("buffer_bytes", buffer_bytes)
        check_positive("stride_bytes", stride_bytes)
        if n_refs < 0:
            raise ValueError(f"n_refs must be non-negative, got {n_refs}")

        level = self.classify(buffer_bytes)
        miss_fraction = min(1.0, stride_bytes / self.cache_line_bytes)

        op = self.op_cycles * n_refs
        if level == "L1":
            return AccessCost(op + self.l1_hit_cycles * n_refs, 0.0)
        if level == "L2":
            hit = self.l2_hit_cycles * n_refs * miss_fraction
            near = self.l1_hit_cycles * n_refs * (1.0 - miss_fraction)
            return AccessCost(op + hit + near, 0.0)
        stall = self.dram_latency * n_refs * miss_fraction
        near_cycles = self.l2_hit_cycles * n_refs * (1.0 - miss_fraction)
        return AccessCost(op + near_cycles, stall)

    def register_loop_cost(self, n_ops: int, cycles_per_op: float = 1.0) -> AccessCost:
        """Cost of a register-resident arithmetic loop (pure cycles)."""
        if n_ops < 0:
            raise ValueError(f"n_ops must be non-negative, got {n_ops}")
        return AccessCost(n_ops * cycles_per_op, 0.0)

    def stream_copy_cost(self, nbytes: int) -> AccessCost:
        """Cost of a bulk sequential copy of ``nbytes`` through DRAM.

        Streaming copies are bandwidth-bound, not latency-bound: the wall
        time is frequency-independent, with a small per-line bookkeeping
        cycle cost on the core.
        """
        if nbytes < 0:
            raise ValueError(f"nbytes must be non-negative, got {nbytes}")
        lines = nbytes / self.cache_line_bytes
        return AccessCost(
            cpu_cycles=lines * self.op_cycles,
            stall_seconds=nbytes / self.dram_bandwidth,
        )


#: Default memory hierarchy matching the paper's platform description.
PENTIUM_M_MEMORY = MemoryHierarchy()
