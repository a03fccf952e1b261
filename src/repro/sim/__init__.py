"""Discrete-event simulation kernel.

A small, dependency-free process-interaction DES core: an :class:`Engine`
owning simulated time, one-shot :class:`Event` objects, generator-based
:class:`Process` objects, composite wait conditions, counted resources and
message stores.

Everything in ``repro`` that "takes time" — CPU work, DRAM stalls, network
transfers, daemon polling, battery refresh — is expressed as events against
a single engine, which is what lets the framework measure energy exactly
while still modelling asynchronous behaviour such as governor preemption.
"""

from repro.sim.engine import (
    Engine,
    PRIORITY_LOW,
    PRIORITY_NORMAL,
    PRIORITY_URGENT,
)
from repro.sim.errors import Interrupt, SimulationError
from repro.sim.events import AllOf, AnyOf, Event
from repro.sim.resources import FilterStore, Resource, Store


def engine_mode() -> str:
    """Name of the one simulation engine (``perfbench`` fingerprints it)."""
    return "heap"


__all__ = [
    "Engine",
    "engine_mode",
    "Event",
    "AnyOf",
    "AllOf",
    "Interrupt",
    "SimulationError",
    "Resource",
    "Store",
    "FilterStore",
    "PRIORITY_URGENT",
    "PRIORITY_NORMAL",
    "PRIORITY_LOW",
]
