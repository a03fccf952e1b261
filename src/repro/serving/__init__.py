"""Request-driven multi-tier serving on the simulated DVS cluster.

The paper evaluates slack-driven DVS on batch HPC codes; this package
jumps to the ROADMAP's target scenario — a cluster serving an open-loop
request stream under a latency SLO.  Requests arrive from a seeded
generator (:mod:`repro.serving.arrivals`), flow through a tiered path
(frontend → app → storage, :mod:`repro.serving.spec`) with per-tier
bounded queues, and execute frequency-dependent service demands on the
existing node/power models (:mod:`repro.serving.runner`).  Per-tier DVS
policies (:mod:`repro.serving.policy`) include a PowerTracer-style
controller that slows tiers whose queue slack keeps them off the
request critical path.  :mod:`repro.serving.sweep` gives serving runs
the same cached, resumable sweep contract as chaos sweeps.
"""

from repro.serving.arrivals import DiurnalArrivals
from repro.serving.elastic import ELASTIC_ALLOCATORS, ElasticServingPolicy
from repro.serving.runner import run_serving
from repro.serving.spec import ServingWorkload, TierSpec
from repro.serving.sweep import ServingTask

__all__ = [
    "DiurnalArrivals",
    "TierSpec",
    "ServingWorkload",
    "run_serving",
    "ELASTIC_ALLOCATORS",
    "ElasticServingPolicy",
    "ServingTask",
]
