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
        """Callback invoked when the awaited event fires.

        This is the per-hop path of every process — the success branch
        runs the generator and re-arms the next wait inline rather than
        fanning out through helper methods (one resume used to cost four
        nested calls; on long process chains that overhead dominated).
        """
        if event._exception is not None:
            self._step_throw(event._exception)
            return
        try:
            target = self._generator.send(event._value)
        except StopIteration as stop:
            # With listeners attached, trigger normally so they are
            # dispatched.  Without any (fire-and-forget pumps and
            # per-request service processes — the common case), mark the
            # process event processed directly: dispatching an event with
            # zero callbacks is a no-op, and a late add_callback on a
            # processed event already runs immediately, so skipping the
            # schedule + dispatch changes no observable ordering.
            if self.callbacks:
                self.succeed(stop.value)
            else:
                self._value = stop.value
                self.callbacks = None
            return
        except BaseException as exc:
            self._crash(exc)
            return
        # Inline _wait_on's happy path: yielded a live event of our sim.
        if isinstance(target, Event) and target.sim is self.sim:
            callbacks = target.callbacks
            if callbacks is not None:
                callbacks.append(self._resume)
            else:
                self._resume(target)  # already processed: resume immediately
        else:
            self._wait_on(target)

    def _step_throw(self, exc: BaseException) -> None:
        try:
            target = self._generator.throw(exc)
        except StopIteration as stop:
            if self.callbacks:  # see _resume: listener-free finish shortcut
                self.succeed(stop.value)
            else:
                self._value = stop.value
                self.callbacks = None
        except BaseException as raised:
            if raised is exc:
                # The process did not handle the exception: fail the process
                # event so waiters see it (uncaught failures surface in run()).
                self.fail(raised)
            else:
                self._crash(raised)
        else:
            self._wait_on(target)

    def _wait_on(self, target: Event) -> None:
        if not isinstance(target, Event):
            self._crash(TypeError(f"process {self.name!r} yielded {target!r}, expected an Event"))
            return
        if target.sim is not self.sim:
            self._crash(ValueError(f"process {self.name!r} yielded an event from another simulator"))
            return
        target.add_callback(self._resume)

    def _crash(self, exc: BaseException) -> None:
        self._generator.close()
        self.fail(exc)
