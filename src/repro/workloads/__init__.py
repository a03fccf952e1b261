"""Workloads: the paper's applications and microbenchmarks.

NAS FT (distributed 3-D FFT with real-data verification), the parallel
matrix transpose (5×3 grid, steps 1-3), SPEC-like sequential kernels
(mgrid-like, swim-like), and the PowerPack microbenchmark suite
(memory-/L2-/register-/communication-bound).
"""

from repro.workloads.nas_cg import NasCG
from repro.workloads.nas_ep import NasEP
from repro.workloads.nas_ft import NasFT, verify_distributed_fft
from repro.workloads.nas_mg import NasMG
from repro.workloads.stencil import HaloStencil
from repro.workloads.synthetic import SyntheticMix
from repro.workloads.transpose import ParallelTranspose

__all__ = [
    "NasFT",
    "verify_distributed_fft",
    "NasEP",
    "NasCG",
    "NasMG",
    "HaloStencil",
    "SyntheticMix",
    "ParallelTranspose",
]
