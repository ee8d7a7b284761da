"""The simulator: calendar event queue, clock, and run loop.

Event-queue discipline
----------------------
The kernel uses the bucket-calendar discipline of
:class:`repro.sim.calendar.CalendarQueue`, embedded inline (the run loop
is the hottest cycle in the tree, so the queue lives as two plain
attributes rather than behind method calls):

* ``_bucket`` — a FIFO deque of events scheduled for the **current
  instant** (event cascades: completions triggering callbacks triggering
  more same-instant events).  Append/popleft are O(1) with no sift.
* ``_queue`` — a binary heap of ``(time, seq, event)`` for events in the
  future horizon, where O(log n) is paid only by entries that actually
  cross time.

Ordering invariant (everything below depends on it):

1. Every scheduled event receives a monotonically increasing sequence
   number (``_sequence``), and events must dispatch in ``(time, seq)``
   order — time order with FIFO tie-break for simultaneous events.
2. An event lands in the bucket only when scheduled *at* the current
   clock reading; the clock never moves backwards.  Hence every heap
   entry whose time equals the current instant was scheduled while the
   clock was still earlier and carries a *smaller* sequence number than
   every bucket entry.
3. The pop rule — heap entries due now first, then the bucket FIFO, then
   advance time via the heap — is therefore exactly ``(time, seq)``
   order without storing sequence numbers for bucket entries at all.

Code outside the kernel schedules only through the public calls —
:meth:`Event.succeed` / :meth:`Event.fail`, :meth:`Simulator.timeout`,
:meth:`Simulator.call_soon` and :meth:`Simulator.trigger_at` — each of
which takes the next sequence number and places the event by rule 2.
It settles an event in place only through :meth:`Event.complete`,
:meth:`Event.complete_inline` and :meth:`Event.fail_scheduled`, which
keep the dispatch order a scheduled event would have had.
"""

from __future__ import annotations

import heapq
import typing
from collections import deque
from sys import getrefcount as _getrefcount

from repro.sim.events import _PENDING, Event, Timeout
from repro.sim.process import Process, ProcessGenerator

#: Upper bound on the per-simulator timeout freelist.  Replay workloads
#: keep only a handful of timeouts in flight at once; the cap just stops a
#: pathological burst from pinning memory.
_TIMEOUT_POOL_MAX = 256


class Simulator:
    """A deterministic discrete-event simulator.

    Time is a float in **seconds**.  Events scheduled for the same instant
    are dispatched in schedule order.

    Example
    -------
    >>> sim = Simulator()
    >>> def hello(sim):
    ...     yield sim.timeout(1.5)
    ...     return sim.now
    >>> proc = sim.process(hello(sim))
    >>> sim.run()
    >>> proc.value
    1.5
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        #: Future events, heap-ordered (see the module docstring).
        self._queue: list[tuple[float, int, Event]] = []
        #: Events due at exactly ``_now``, FIFO (see the module docstring).
        self._bucket: deque[Event] = deque()
        self._sequence = 0
        self._trace: typing.Callable[[float, Event], None] | None = None
        #: Recycled Timeout objects (see the run loop): every disk I/O is
        #: at least one timeout, and reusing the object skips the
        #: allocator on the kernel's hottest construction path.
        self._timeout_pool: list[Timeout] = []

    # -- clock ----------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- factories --------------------------------------------------------------

    def event(self, name: str = "") -> Event:
        """Create a pending event that some component will trigger later."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: typing.Any = None, name: str = "") -> Timeout:
        """Create an event that fires ``delay`` seconds from now."""
        pool = self._timeout_pool
        if pool and not name:
            if delay < 0:
                raise ValueError(f"timeout delay must be >= 0, got {delay}")
            # Reuse a recycled timeout: the run loop only pools timeouts it
            # proved unreferenced, so resetting the live slots is safe.
            timeout = pool.pop()
            timeout.callbacks = []
            timeout._value = value
            timeout._exception = None
            timeout.delay = delay
            self._sequence += 1
            when = self._now + delay
            if when > self._now:
                heapq.heappush(self._queue, (when, self._sequence, timeout))
            else:
                self._bucket.append(timeout)
            return timeout
        return Timeout(self, delay, value=value, name=name)

    def process(self, generator: ProcessGenerator, name: str = "") -> Process:
        """Start a new process running ``generator``."""
        return Process(self, generator, name=name)

    def call_soon(
        self,
        callback: typing.Callable[[Event], None],
        exception: BaseException | None = None,
    ) -> Event:
        """Run ``callback(event)`` at the current instant, after what is due.

        The returned event is pre-triggered — value ``None``, or failed
        with ``exception`` — and takes the next sequence number, the
        position :meth:`Event.succeed` / :meth:`Event.fail` would give it.
        Construction and triggering are fused: callback machines schedule
        one such step per hop.
        """
        event = Event.__new__(Event)
        event.sim = self
        event.name = ""
        event.callbacks = [callback]
        event.defused = False
        event._value = None
        event._exception = exception
        event._scheduled = True
        event._handled = False
        self._sequence += 1
        self._bucket.append(event)
        return event

    def every(self, period: float, tick, until: float | None = None, end=None) -> "Clock":
        """Call ``tick()`` now and every ``period`` seconds after (see :class:`Clock`)."""
        return Clock(self, period, tick, until, end)

    def trigger_at(
        self,
        event: Event,
        when: float,
        value: typing.Any = None,
        exception: BaseException | None = None,
    ) -> Event:
        """Trigger the pending ``event`` to dispatch at absolute time ``when``.

        The event carries ``value``, or fails with ``exception``, from the
        moment of the call, and takes the next sequence number: it
        dispatches after everything already scheduled for ``when``.  At
        the current instant that is the position :meth:`Event.succeed`
        gives; a later ``when`` is the position a timeout armed now for
        that time would take.  ``when`` before now raises ``ValueError``.
        """
        now = self._now
        if not when >= now:
            raise ValueError(f"cannot trigger at t={when}: now is t={now}")
        if event._value is not _PENDING or event._exception is not None or event._scheduled:
            raise RuntimeError(f"{event!r} already triggered")
        event._value = value
        event._exception = exception
        event._scheduled = True
        self._sequence += 1
        if when > now:
            heapq.heappush(self._queue, (when, self._sequence, event))
        else:
            self._bucket.append(event)
        return event

    def quiet(self) -> bool:
        """True when nothing else is due at the current instant.

        An event scheduled now would then be the very next dispatch, so a
        caller may run its handler in place instead (with nothing able to
        interleave, the two are dispatch-for-dispatch identical).
        """
        return not self._bucket and (not self._queue or self._queue[0][0] > self._now)

    # -- run loop ---------------------------------------------------------------

    def peek(self) -> float:
        """Time of the next scheduled event, or +inf if none."""
        if self._bucket:
            return self._now
        return self._queue[0][0] if self._queue else float("inf")

    @property
    def events_dispatched(self) -> int:
        """Events dispatched so far (scheduled minus still queued).

        Every scheduled event receives a sequence number and is dispatched
        exactly once, so this costs nothing to maintain.
        """
        return self._sequence - len(self._queue) - len(self._bucket)

    def _pop_next(self) -> Event:
        """Remove the next event in (time, seq) order; advances the clock."""
        bucket = self._bucket
        queue = self._queue
        if bucket:
            # Heap entries due at the current instant were scheduled
            # before the clock reached it: they precede the bucket.
            if queue and queue[0][0] <= self._now:
                return heapq.heappop(queue)[2]
            return bucket.popleft()
        when, _seq, event = heapq.heappop(queue)
        self._now = when
        return event

    def step(self) -> None:
        """Dispatch the single next event."""
        event = self._pop_next()
        if self._trace is not None:
            self._trace(self._now, event)
        event._dispatch()
        if event._exception is not None and not event.defused and not event._handled:
            # An event failed and nothing is positioned to handle it (any
            # waiter attached before dispatch has run by now and either
            # handled it or re-failed; a failure with no handler at all must
            # not pass silently).  _dispatch cleared the callback list, so
            # _handled records whether anyone was listening.
            raise event._exception

    def run(self, until: float | None = None) -> None:
        """Run until the queue empties or simulated time passes ``until``.

        When ``until`` is given, the clock is left at exactly ``until`` even
        if the last event fired earlier (so time-weighted statistics can
        close their integrals at the horizon).
        """
        if until is not None and until < self._now:
            raise ValueError(f"cannot run backwards: now={self._now}, until={until}")
        queue = self._queue
        bucket = self._bucket
        if until is None:
            # The common case — drain to empty, no horizon — dispatches
            # inline with everything in locals.  This loop is the kernel's
            # innermost cycle; method-call and attribute overhead here is
            # measurable on every experiment.
            heappop = heapq.heappop
            popleft = bucket.popleft
            pool = self._timeout_pool
            while True:
                if bucket:
                    # Same-instant heap entries predate all bucket entries
                    # (see the module docstring's ordering invariant).
                    if queue and queue[0][0] <= self._now:
                        event = heappop(queue)[2]
                    else:
                        event = popleft()
                elif queue:
                    when, _seq, event = heappop(queue)
                    self._now = when
                else:
                    break
                if self._trace is not None:
                    self._trace(self._now, event)
                # Event._dispatch, inlined (saves a call per event):
                callbacks = event.callbacks
                event.callbacks = None
                if callbacks:
                    event._handled = True
                    for callback in callbacks:
                        callback(event)
                elif event._exception is not None and not event.defused:
                    raise event._exception
                # Recycle dispatched timeouts nobody holds a reference to
                # (refcount 2 = the local + the getrefcount argument).
                # Exact-type + unnamed keeps subclasses and user-labelled
                # timeouts out of the pool.
                if (
                    type(event) is Timeout
                    and _getrefcount(event) == 2
                    and not event.name
                    and len(pool) < _TIMEOUT_POOL_MAX
                ):
                    event._value = None
                    pool.append(event)
            return
        while bucket or (queue and queue[0][0] <= until):
            self.step()
        self._now = until

    def run_until_triggered(self, event: Event, limit: float = float("inf")) -> typing.Any:
        """Run until ``event`` triggers; return its value.

        Raises ``RuntimeError`` if the queue drains or ``limit`` passes first.
        """
        queue = self._queue
        bucket = self._bucket
        heappop = heapq.heappop
        popleft = bucket.popleft
        pool = self._timeout_pool
        # ``processed`` implies ``triggered``, so waiting for the callback
        # list to clear covers both; the loop dispatches inline (cf. run()).
        while event.callbacks is not None:
            if bucket:
                if queue and queue[0][0] <= self._now:
                    next_event = heappop(queue)[2]
                else:
                    next_event = popleft()
            elif queue and queue[0][0] <= limit:
                when, _seq, next_event = heappop(queue)
                self._now = when
            else:
                raise RuntimeError(f"simulation ended before {event!r} triggered")
            if self._trace is not None:
                self._trace(self._now, next_event)
            # Event._dispatch, inlined (saves a call per event):
            callbacks = next_event.callbacks
            next_event.callbacks = None
            if callbacks:
                next_event._handled = True
                for callback in callbacks:
                    callback(next_event)
            elif next_event._exception is not None and not next_event.defused:
                raise next_event._exception
            # Recycle unreferenced timeouts (see run() for the invariant).
            if (
                type(next_event) is Timeout
                and _getrefcount(next_event) == 2
                and not next_event.name
                and len(pool) < _TIMEOUT_POOL_MAX
            ):
                next_event._value = None
                pool.append(next_event)
        return event.value

    # -- debugging ---------------------------------------------------------------

    def set_trace(self, callback: typing.Callable[[float, Event], None] | None) -> None:
        """Install a hook called as ``callback(time, event)`` on every dispatch."""
        self._trace = callback


class Clock:
    """A periodic callback, as callback states: background work on a timer.

    The first ``tick()`` runs at a kick scheduled at construction, where a
    process started now would take its first step; each later tick at a
    timeout the tick before armed.  After a tick, a clock with an
    ``until`` horizon ends once the next tick would pass it: ``end()``
    runs in place.  :meth:`stop` ends the clock at its next tick instead,
    before that tick's ``tick()``.  Hooks are plain callables; bound
    methods keep the clock picklable mid-flight.
    """

    __slots__ = ("sim", "period", "tick", "until", "end", "stopped")

    def __init__(self, sim: Simulator, period: float, tick, until=None, end=None) -> None:
        if not period > 0:
            raise ValueError(f"period must be > 0, got {period}")
        self.sim = sim
        self.period = period
        self.tick = tick
        self.until = until
        self.end = end
        self.stopped = False
        sim.call_soon(self._tick)

    def stop(self) -> None:
        """End the clock at its next tick."""
        self.stopped = True

    def _tick(self, _event: Event) -> None:
        if not self.stopped:
            self.tick()
            until = self.until
            if until is None or self.sim.now + self.period <= until:
                self.sim.timeout(self.period).callbacks.append(self._tick)
                return
        if self.end is not None:
            self.end()
