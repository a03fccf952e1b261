"""Serving workload specification: tiers, arrivals, demands.

A :class:`ServingWorkload` is a frozen, picklable description of a
multi-tier service — the serving counterpart of
:class:`repro.workloads.base.Workload` — and, like every spec in this
codebase, hashes canonically through
:func:`repro.cache.keys.canonical_encode` so serving sweeps cache and
resume.

Requests are *pre-materialised*: :meth:`ServingWorkload.requests`
expands the arrival generator and samples every request's per-tier
service demand (cycles) up front from one seeded ``random.Random``, in
arrival order.  Execution order inside the simulator therefore cannot
perturb sampling — the determinism guarantee the tests pin down — and
demands are in *cycles*, so service time scales with whatever frequency
the node is running when the request reaches it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Tuple

from repro.serving.arrivals import PoissonArrivals
from repro.util.records import record
from repro.util.validation import check_in, check_positive

__all__ = ["SERVICE_DISTRIBUTIONS", "RequestSpec", "ServingWorkload", "TierSpec"]

#: Service-demand distributions a tier can name: ``"exp"`` draws
#: exponential demands around the mean (heavy-ish tails, the classic
#: M/M/k shape), ``"fixed"`` makes every request cost exactly the mean.
SERVICE_DISTRIBUTIONS = ("exp", "fixed")


@dataclass(frozen=True)
class TierSpec:
    """One tier of the request path.

    ``service_cycles`` is the *mean* frequency-dependent demand per
    request; at the Pentium-M ladder's 1.4 GHz top point, 1.4e6 cycles
    ≈ 1 ms of service.  ``queue_capacity`` bounds the tier's FIFO:
    arrivals beyond it are dropped (load shedding), which is what keeps
    an overloaded simulation finite.
    """

    name: str
    nodes: int
    service_cycles: float
    queue_capacity: int = 256
    distribution: str = "exp"

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tier name must be non-empty")
        if self.nodes < 1:
            raise ValueError(f"nodes must be >= 1, got {self.nodes}")
        check_positive("service_cycles", self.service_cycles)
        if self.queue_capacity < 1:
            raise ValueError(
                f"queue_capacity must be >= 1, got {self.queue_capacity}"
            )
        check_in("distribution", self.distribution, SERVICE_DISTRIBUTIONS)


@record
class RequestSpec:
    """One pre-sampled request: arrival instant + per-tier demands."""

    request_id: int
    arrival_s: float
    demands: Tuple[float, ...]  #: cycles, one entry per tier


@dataclass(frozen=True)
class ServingWorkload:
    """A complete serving scenario (frozen, picklable, hashable).

    ``timeout_s`` is the end-to-end patience: a request older than this
    at any dequeue is discarded (status ``"timeout"``) without further
    service.  ``seed`` drives demand sampling only; the arrival
    generator carries its own seed.
    """

    tiers: Tuple[TierSpec, ...]
    arrivals: object = field(default_factory=lambda: PoissonArrivals(50.0))
    horizon_s: float = 10.0
    timeout_s: float = 5.0
    name: str = "serving"
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.tiers:
            raise ValueError("a serving workload needs at least one tier")
        object.__setattr__(self, "tiers", tuple(self.tiers))
        names = [t.name for t in self.tiers]
        if len(set(names)) != len(names):
            raise ValueError(f"tier names must be unique, got {names}")
        check_positive("horizon_s", self.horizon_s)
        check_positive("timeout_s", self.timeout_s)
        if not hasattr(self.arrivals, "times"):
            raise TypeError(
                "arrivals must expose .times(horizon_s) "
                f"(got {type(self.arrivals).__name__})"
            )

    # ------------------------------------------------------------------
    @property
    def total_nodes(self) -> int:
        """Cluster size the workload needs (one node group per tier)."""
        return sum(t.nodes for t in self.tiers)

    @property
    def tier_names(self) -> Tuple[str, ...]:
        return tuple(t.name for t in self.tiers)

    def requests(self) -> Tuple[RequestSpec, ...]:
        """The fully-materialised request stream (deterministic).

        Arrival times come from the arrival generator's own seed;
        per-tier demands are sampled here from ``random.Random(seed)``
        in arrival order, so the stream is a pure function of the spec.
        """
        arrivals = self.arrivals.times(self.horizon_s)
        rng = random.Random(self.seed)
        out = []
        for rid, at in enumerate(arrivals):
            demands = tuple(
                tier.service_cycles
                if tier.distribution == "fixed"
                else rng.expovariate(1.0) * tier.service_cycles
                for tier in self.tiers
            )
            out.append(RequestSpec(rid, at, demands))
        return tuple(out)
