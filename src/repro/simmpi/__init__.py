"""Simulated MPI (MPICH-1.2.5-over-TCP semantics) on the cluster model.

Point-to-point with eager/rendezvous protocols, nonblocking requests,
MPICH-era collective algorithms, and the progress-engine CPU wait policy
that makes communication look *busy* to ``/proc/stat`` — the substrate
the paper's DVS study runs on.
"""

from repro.simmpi.launcher import SpmdResult, run_spmd
from repro.simmpi.message import ANY_SOURCE, ANY_TAG, payload_nbytes

__all__ = ["ANY_SOURCE", "ANY_TAG", "payload_nbytes", "SpmdResult", "run_spmd"]
