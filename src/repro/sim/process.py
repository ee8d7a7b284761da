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


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    The ``cause`` attribute carries whatever the interrupter passed.  AFRAID's
    background scrubber uses this to abandon an idle-time parity rebuild when
    foreground work arrives.
    """

    def __init__(self, cause: typing.Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class ProcessKilled(Exception):
    """The failure value of a process that was killed via :meth:`Process.kill`."""


class Process(Event):
    """A running simulation process.

    Create via :meth:`repro.sim.core.Simulator.process`.  The process starts
    at the current simulated time (before any further time passes, but after
    the caller's current step completes).
    """

    __slots__ = ("_generator", "_waiting_on")

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
        self._waiting_on: Event | None = sim.call_soon(self._resume)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    def interrupt(self, cause: typing.Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its current yield.

        Interrupting a finished process is a no-op.  The event the process
        was waiting on is detached: if it later fires, the process (which has
        moved on) ignores it.
        """
        if self.triggered:
            return
        self._detach()
        poke = Event(self.sim, name=f"{self.name}.interrupt")
        poke.add_callback(lambda _event: self._step_throw(Interrupt(cause)))
        poke.succeed()

    def kill(self) -> None:
        """Terminate the process immediately.

        The process event fails with :class:`ProcessKilled`; generators get a
        chance to run ``finally`` blocks via ``GeneratorExit``.
        """
        if self.triggered:
            return
        self._detach()
        self._generator.close()
        self.fail(ProcessKilled(self.name))

    # -- kernel internals ----------------------------------------------------

    def _detach(self) -> None:
        """Stop listening to the event currently waited on."""
        waiting = self._waiting_on
        self._waiting_on = None
        if waiting is not None and waiting.callbacks is not None:
            try:
                waiting.callbacks.remove(self._resume)
            except ValueError:
                pass

    def _resume(self, event: Event) -> None:
        """Callback invoked when the awaited event fires.

        This is the per-hop path of every process — the success branch
        runs the generator and re-arms the next wait inline rather than
        fanning out through helper methods (one resume used to cost four
        nested calls; on long process chains that overhead dominated).
        """
        if event is not self._waiting_on:
            return  # stale wakeup from a detached event
        self._waiting_on = None
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
            self._waiting_on = target
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
        self._waiting_on = target
        target.add_callback(self._resume)

    def _crash(self, exc: BaseException) -> None:
        self._generator.close()
        self.fail(exc)
