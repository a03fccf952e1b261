"""Hardware models of the paper's platform.

A 16-node Beowulf cluster of Pentium M 1.4 GHz laptops on 100 Mb switched
Ethernet, reconstructed as calibrated analytic models: the DVFS ladder of
paper Table 2, a CMOS ``P ∝ f·V²`` power model with per-activity factors,
a frequency-rescalable CPU execution engine with ``/proc/stat`` accounting,
a memory-hierarchy timing model, and a chunked store-and-forward Ethernet
fabric with per-link contention.
"""

from repro.hardware.cluster import Cluster
from repro.hardware.dvfs import PENTIUM_M_1400
from repro.hardware.reliability import ReliabilityModel, compare_reliability
from repro.hardware.spec import ClusterSpec

__all__ = [
    "PENTIUM_M_1400",
    "Cluster",
    "ReliabilityModel",
    "compare_reliability",
    "ClusterSpec",
]
