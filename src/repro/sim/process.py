"""Coroutine processes for the simulation kernel.

A process wraps a generator that yields :class:`~repro.sim.events.Event`
instances.  When a yielded event fires, the kernel resumes the generator,
sending the event's value in (or throwing its exception).  The process is
itself an event: it triggers with the generator's return value, so processes
can wait on each other.
"""

from __future__ import annotations

import typing
from types import GeneratorType

from repro.sim.events import Event

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.core import Simulator

ProcessGenerator = typing.Generator[Event, typing.Any, typing.Any]


class Process(Event):
    """A running simulation process.

    Create via :meth:`repro.sim.core.Simulator.process`.  The process starts
    at the current simulated time (before any further time passes, but after
    the caller's current step completes).
    """

    __slots__ = ("_generator",)

    def __init__(self, sim: "Simulator", generator: ProcessGenerator, name: str = "") -> None:
        # Plain generators (the overwhelmingly common case) skip the two
        # hasattr probes; duck-typed generator-likes still pass.
        if type(generator) is not GeneratorType and (
            not hasattr(generator, "send") or not hasattr(generator, "throw")
        ):
            raise TypeError(f"process body must be a generator, got {type(generator).__name__}")
        super().__init__(sim, name=name or getattr(generator, "__name__", "process"))
        self._generator = generator
        # Kick off the generator via an immediately-firing bootstrap event.
        sim.call_soon(self._resume)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    # -- kernel internals ----------------------------------------------------

    def _resume(self, event: Event) -> None:
        """The one step: send ``event``'s value in (or throw its exception), then wait.

        A finished generator completes the process (in place when nobody
        listens: :meth:`Event.complete`); an escaping exception fails it.
        A yielded non-event, or an event of another simulator, closes the
        generator and fails the process with ``TypeError`` or
        ``ValueError``.
        """
        exc = event._exception
        try:
            if exc is None:
                target = self._generator.send(event._value)
            else:
                target = self._generator.throw(exc)
        except StopIteration as stop:
            self.complete(stop.value)
            return
        except BaseException as raised:
            self.fail(raised)
            return
        if not isinstance(target, Event):
            error = TypeError(f"process {self.name!r} yielded {target!r}, expected an Event")
        elif target.sim is not self.sim:
            error = ValueError(f"process {self.name!r} yielded an event from another simulator")
        else:
            target.add_callback(self._resume)
            return
        self._generator.close()
        self.fail(error)
