"""Extension: serving-path throughput and energy-attribution join cost.

One open-loop three-tier run at ≥1k requests, timed in two pieces:

* the simulation itself — reported as *simulated requests per
  wall-second* (the serving runner's end-to-end cost: arrivals, queue
  hops, ``run_cycles`` service, record assembly);
* the per-request energy-attribution join — every request's tier spans
  batch-queried against the frozen per-node power series
  (``energy_many``), the cost the ``ServingReport`` pays on top of the
  run.

``ServingWorkload.requests()`` memoises the last stream, so only the
first round's ``run_serving(_workload())`` materialises the request
stream; a later round (or an equal workload run earlier in the same
process) reuses the memoised stream, and its simulation time excludes
that expansion.

The benchmark asserts the ledger, not a latency: attributed + residual
energy must reproduce the run total to float round-off, and every
request must be accounted for.
"""

import time

from benchmarks._harness import FULL_SCALE, run_once
from repro.metrics.serving import attribute_request_energy
from repro.serving.arrivals import PoissonArrivals
from repro.serving.runner import run_serving
from repro.serving.spec import ServingWorkload, TierSpec


def _workload():
    rate, horizon = (200.0, 30.0) if FULL_SCALE else (110.0, 10.0)
    return ServingWorkload(
        tiers=(
            TierSpec("frontend", nodes=1, service_cycles=1.5e6),
            TierSpec("app", nodes=2, service_cycles=6.0e6),
            TierSpec("storage", nodes=1, service_cycles=2.0e6),
        ),
        arrivals=PoissonArrivals(rate, seed=1),
        horizon_s=horizon,
        timeout_s=5.0,
        name="bench-serving",
    )


def bench_extension_serving(benchmark):
    def simulate_and_join():
        t0 = time.perf_counter()
        run = run_serving(_workload())
        t_sim = time.perf_counter() - t0

        t0 = time.perf_counter()
        per_request, attributed = attribute_request_energy(
            run.cluster, run.records
        )
        t_join = time.perf_counter() - t0

        return {
            "run": run,
            "per_request": per_request,
            "attributed": attributed,
            "sim_seconds": t_sim,
            "join_seconds": t_join,
        }

    result = run_once(benchmark, simulate_and_join)
    run = result["run"]
    n_requests = len(run.records)
    benchmark.extra_info["serving"] = {
        "requests": n_requests,
        "sim_seconds": result["sim_seconds"],
        "requests_per_second": n_requests / result["sim_seconds"],
        "join_seconds": result["join_seconds"],
        "join_microseconds_per_request": (
            result["join_seconds"] / n_requests * 1e6
        ),
    }

    assert n_requests >= 1000, f"need >= 1000 requests, got {n_requests}"
    # Every request accounted for, and the ledger closes exactly:
    # the per-request map sums to the attributed total, which never
    # exceeds the run's total energy.
    assert set(result["per_request"]) == {r.request_id for r in run.records}
    assert (
        abs(sum(result["per_request"].values()) - result["attributed"]) < 1e-9
    )
    assert 0.0 < result["attributed"] <= run.energy_j + 1e-9
