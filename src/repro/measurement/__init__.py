"""PowerPack-style measurement substrate.

Emulated instruments (ACPI smart battery, Baytech outlet meter) sampling
the simulator's ground-truth power timelines with realistic quantization
and refresh rates, plus the coordination session and the multi-node data
filtering/alignment helpers the paper's tool suite provided.
"""

from repro.measurement.powerpack import PowerPackSession
from repro.measurement.profiles import cluster_power_profile, profile_summary

__all__ = ["PowerPackSession", "cluster_power_profile", "profile_summary"]
