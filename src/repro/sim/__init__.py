"""Discrete-event simulation kernel.

This package is the substrate that replaces HP's Pantheon simulator in the
AFRAID reproduction.  It provides a deterministic, coroutine-based
discrete-event simulator:

* :class:`~repro.sim.core.Simulator` — the event loop and simulated clock.
* :class:`~repro.sim.events.Event` — one-shot occurrences that processes wait
  on; :class:`~repro.sim.events.Timeout` fires after a simulated delay, and
  :class:`~repro.sim.events.AllOf` / :class:`~repro.sim.events.AnyOf` compose
  events (e.g. the two parallel pre-reads of a RAID 5 small write).
* :class:`~repro.sim.core.Clock` — a callback that ticks every period of
  simulated time until a horizon (:meth:`Simulator.every`): the pollers,
  the samplers and the nemesis loop run on it.
* :class:`~repro.sim.process.Process` — a generator that yields events; the
  kernel resumes it when the yielded event fires.
* :class:`~repro.sim.resources.Resource` — a counted resource with a FIFO
  wait queue (used for the array's bounded request admission).

Determinism: events scheduled for the same instant fire in schedule order
(FIFO tie-breaking by a monotone sequence number), so a given program and
seed always produce the same trajectory.
"""

from repro.sim.core import Clock, Simulator
from repro.sim.events import AllOf, AnyOf, Event, EventFailed, Timeout
from repro.sim.process import Process
from repro.sim.resources import Resource

__all__ = [
    "AllOf",
    "AnyOf",
    "Clock",
    "Event",
    "EventFailed",
    "Process",
    "Resource",
    "Simulator",
    "Timeout",
]
