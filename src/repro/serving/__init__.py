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

from repro.serving.arrivals import (
    DiurnalArrivals,
    MMPPArrivals,
    PoissonArrivals,
)
from repro.serving.elastic import ELASTIC_ALLOCATORS, ElasticServingPolicy
from repro.serving.policy import (
    CpuspeedServingPolicy,
    ServingPolicy,
    StaticServingPolicy,
    TierDvsPolicy,
)
from repro.serving.records import RequestRecord, TierSpan
from repro.serving.runner import ServingRun, run_serving
from repro.serving.spec import RequestSpec, ServingWorkload, TierSpec
from repro.serving.sweep import (
    SERVING_POLICIES,
    ServingOutcome,
    ServingTask,
    run_serving_sweep,
    serving_task_key,
)

__all__ = [
    "PoissonArrivals",
    "MMPPArrivals",
    "DiurnalArrivals",
    "TierSpan",
    "RequestRecord",
    "RequestSpec",
    "TierSpec",
    "ServingWorkload",
    "ServingRun",
    "run_serving",
    "ServingPolicy",
    "StaticServingPolicy",
    "CpuspeedServingPolicy",
    "TierDvsPolicy",
    "ELASTIC_ALLOCATORS",
    "ElasticServingPolicy",
    "SERVING_POLICIES",
    "ServingTask",
    "ServingOutcome",
    "serving_task_key",
    "run_serving_sweep",
]
