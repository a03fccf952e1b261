"""Generator-based simulated processes.

A :class:`Process` wraps a Python generator.  The generator *yields* events
(:class:`repro.sim.events.Event`) to wait for them; the value sent back into
the generator is the event's value.  A process is itself an event that
triggers when the generator returns (value = the ``return`` value) or raises
(failure), so processes can wait on each other — the SPMD launcher in
``repro.simmpi`` waits for all rank processes this way.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional

from repro.obs.tracer import active_tracer
from repro.sim.errors import Interrupt, SimulationError
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine

__all__ = ["Process"]

ProcessGenerator = Generator[Event, object, object]


class Process(Event):
    """A simulated thread of control.

    Parameters
    ----------
    engine:
        The owning :class:`~repro.sim.engine.Engine`.
    generator:
        A generator yielding :class:`Event` instances.
    name:
        Optional human-readable name used in traces and error messages.
    """

    __slots__ = ("generator", "name", "_target", "_trace_t0")

    def __init__(
        self,
        engine: "Engine",
        generator: ProcessGenerator,
        name: Optional[str] = None,
    ):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError(
                f"Process requires a generator, got {type(generator).__name__}"
            )
        super().__init__(engine)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        #: The event this process is currently waiting on (``None`` when the
        #: process is scheduled to run or has terminated).
        self._target: Optional[Event] = None
        #: Birth time when a tracer was active at spawn (span on death).
        self._trace_t0: Optional[float] = (
            engine.now if active_tracer().enabled else None
        )

        # Kick the process off at the current simulation time.
        init = Event(engine)
        init.callbacks.append(self._resume)
        init.succeed(None)

    # ------------------------------------------------------------------
    @property
    def is_alive(self) -> bool:
        """Whether the underlying generator has not yet terminated."""
        return not self.triggered

    @property
    def target(self) -> Optional[Event]:
        """The event the process is currently waiting for, if any."""
        return self._target

    def interrupt(self, cause: object = None) -> None:
        """Throw :class:`~repro.sim.errors.Interrupt` into the process.

        The interrupt is delivered at the current simulation time.  It is an
        error to interrupt a terminated process, or a process from within
        itself.
        """
        if self.triggered:
            raise SimulationError(f"cannot interrupt dead process {self.name!r}")
        if self.engine.active_process is self:
            raise SimulationError("a process cannot interrupt itself")
        event = Event(self.engine)
        event.callbacks.append(self._deliver_interrupt)
        event.fail(Interrupt(cause))

    # ------------------------------------------------------------------
    # engine callbacks
    # ------------------------------------------------------------------
    def _deliver_interrupt(self, event: Event) -> None:
        if self.triggered:
            return  # died before the interrupt was processed
        # Detach from the current wait target; the interrupted wait is
        # abandoned (the target may still trigger later and is ignored).
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:  # pragma: no cover - defensive
                pass
        self._resume(event)

    def _resume(self, event: Event) -> None:
        """Advance the generator by one yield, driven by ``event``."""
        self._target = None
        engine = self.engine
        engine._active_process = self
        try:
            if event._ok:
                result = self.generator.send(event._value)
            else:
                result = self.generator.throw(event._value)  # type: ignore[arg-type]
        except StopIteration as stop:
            engine._active_process = None
            self._trace_exit(failed=False)
            self.succeed(stop.value)
            return
        except Interrupt as exc:
            # An interrupt escaped the process body: treat as failure.
            engine._active_process = None
            self._trace_exit(failed=True)
            self.fail(exc)
            return
        except BaseException as exc:
            engine._active_process = None
            self._trace_exit(failed=True)
            if engine.strict:
                raise
            self.fail(exc)
            return
        engine._active_process = None

        if not isinstance(result, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {result!r}; processes must "
                "yield Event instances"
            )
        if result.engine is not engine:
            raise SimulationError(
                f"process {self.name!r} yielded an event from another engine"
            )
        if result.callbacks is not None:
            result.callbacks.append(self._resume)
            self._target = result
        else:
            # Event already processed: resume immediately (same time step).
            immediate = Event(engine)
            immediate.callbacks.append(self._resume)
            immediate.trigger(result)
            self._target = immediate

    def _trace_exit(self, failed: bool) -> None:
        """Record the process's lifetime span (only if traced at spawn)."""
        if self._trace_t0 is None:
            return
        tracer = active_tracer()
        if tracer.enabled:
            if failed:
                tracer.span(
                    self.name, "sim.process", self.name,
                    self._trace_t0, self.engine.now, error=True,
                )
            else:
                tracer.span(
                    self.name, "sim.process", self.name,
                    self._trace_t0, self.engine.now,
                )
        self._trace_t0 = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "dead" if self.triggered else "alive"
        return f"<Process {self.name!r} {state}>"
