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
    EngineStats,
    PRIORITY_LOW,
    PRIORITY_NORMAL,
    PRIORITY_URGENT,
)
from repro.sim.errors import Interrupt, SimulationError, StopSimulation
from repro.sim.events import AllOf, AnyOf, Condition, Event, Timeout
from repro.sim.process import Process
from repro.sim.resources import FilterStore, Request, Resource, Store


def engine_mode() -> str:
    """Name of the one simulation engine (``perfbench`` fingerprints it)."""
    return "heap"


__all__ = [
    "Engine",
    "EngineStats",
    "engine_mode",
    "Event",
    "Timeout",
    "Condition",
    "AnyOf",
    "AllOf",
    "Process",
    "Interrupt",
    "SimulationError",
    "StopSimulation",
    "Resource",
    "Request",
    "Store",
    "FilterStore",
    "PRIORITY_URGENT",
    "PRIORITY_NORMAL",
    "PRIORITY_LOW",
]
