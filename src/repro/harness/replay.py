"""Open-loop trace replay against an array.

Requests are issued at their trace timestamps regardless of completions
(open queueing), which is what makes the RAID 5 small-update penalty show
up as queueing delay under bursts — the effect the paper measures.

Every surface replays through the same two steps on one replay state
``(sim, array, requests, completions)``: :func:`feed_trace` warms the
extent cache and pumps arrivals into the array, and :func:`close_replay`
gathers the completions and runs to the measurement horizon.
:func:`replay_trace` is the two calls under one GC pause; sharded replay
(:mod:`repro.harness.sharding`) splits the feed at quiescent cuts; fault
campaigns and the nemesis feed each run (or crash segment) the same way
and close it with ``finalize=False`` before their recovery drain.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc

from repro.array.batchplan import warm_extent_cache
from repro.array.controller import DiskArray
from repro.array.request import ArrayRequest
from repro.sim import Event, Simulator
from repro.traces.records import Trace

_INF = float("inf")


def gather(sim: Simulator, events: list[Event]) -> Event:
    """An event firing once *all* ``events`` have triggered, failures included.

    Unlike :class:`~repro.sim.AllOf`, a failing child does not abort the
    gather — its exception is collected.  The value is a list of
    ``(ok, value_or_exception)`` pairs in input order.
    """
    done = sim.event(name="gather")
    results: list[tuple[bool, object]] = [(False, None)] * len(events)
    remaining = len(events)
    if remaining == 0:
        done.succeed([])
        return done

    def finish(index: int, event: Event) -> None:
        nonlocal remaining
        if event.ok:
            results[index] = (True, event.value)
        else:
            results[index] = (False, event.exception)
        remaining -= 1
        if remaining == 0:
            done.succeed(results)

    for index, event in enumerate(events):
        event.defused = True  # we are the handler of record
        if event.callbacks is None:
            # Already settled (the common case: the gather is built after
            # the feeder finishes).  Collect in place — same result, no
            # per-event closure or immediate-callback hop.
            exc = event._exception
            if exc is None:
                results[index] = (True, event._value)
            else:
                results[index] = (False, exc)
            remaining -= 1
        else:
            event.add_callback(lambda e, i=index: finish(i, e))
    if remaining == 0 and not done.triggered:
        done.succeed(results)
    return done


class _Feeder:
    """The open-loop arrival pump, as a callback state machine.

    Its event pattern is that of a feeder process, so the schedule around
    it is the one the fixtures pin: one bootstrap event (where a
    ``Process`` bootstrap would sit), one pooled timeout per inter-arrival
    gap created at the *wake* position of the previous gap (so its
    sequence number — and therefore every same-instant tie-break against
    in-flight completions — is fixed), and a listener-free finish that
    never schedules an event (as :meth:`~repro.sim.Event.complete` elides
    a process finish nobody waits on).

    A feeder given a ``cut`` index also pauses: the first arrival of a
    record at or past ``cut`` that finds the simulator otherwise empty
    completes ``done`` the same way, *before* submitting that record, and
    leaves ``index`` on it.  The paused state is exactly the uninterrupted
    run's at that arrival, and a feeder started at ``index > 0`` resumes
    it by firing in place: no event, no sequence number.
    """

    __slots__ = (
        "sim", "array", "records", "index", "cut", "requests", "completions", "done",
        "_fire_cb",
    )

    def __init__(self, sim, array, records, requests, completions, index=0, cut=None) -> None:
        self.sim = sim
        #: Bound once: appended to every inter-arrival timeout.
        self._fire_cb = self._fire
        self.array = array
        self.records = records
        self.index = index
        self.cut = len(records) if cut is None else cut
        self.requests = requests
        self.completions = completions
        #: Triggers when the last record has been submitted, or at a pause.
        #: Nobody listens (the driver polls it), so :meth:`Event.complete`
        #: settles it in place, as a listener-free process finishes.
        self.done = Event(sim, name="trace_feeder")

    def start(self) -> Event:
        if self.index:
            self._fire(None)
        else:
            self.sim.call_soon(self._fire_cb)
        return self.done

    def _fire(self, _event: Event | None) -> None:
        sim = self.sim
        array = self.array
        records = self.records
        requests = self.requests
        completions = self.completions
        index = self.index
        cut = self.cut
        total = len(records)
        while index < total:
            record = records[index]
            if record.time_s > sim._now:
                timeout = sim.timeout(record.time_s - sim._now)
                timeout.callbacks.append(self._fire_cb)
                self.index = index
                return
            if index >= cut and sim.peek() == _INF:
                break
            # ArrayRequest() inlined: TraceRecord already enforced the
            # same offset/nsectors bounds __post_init__ would re-check,
            # and one dataclass construction per record is hot at
            # whole-trace scale.
            request = ArrayRequest.__new__(ArrayRequest)
            request.__dict__ = {
                "kind": record.kind,
                "offset_sectors": record.offset_sectors,
                "nsectors": record.nsectors,
                "sync": record.sync,
                "data": None,
                "tag": None,
                "submit_time": None,
                "dispatch_time": None,
                "complete_time": None,
                "result_data": None,
                "plan": None,
            }
            requests.append(request)
            completion = array.submit(request)
            # Defuse now: under fault injection a request can fail before
            # the gather attaches, and the failure belongs to us.
            completion.defused = True
            completions.append(completion)
            index += 1
        self.index = index
        self.done.complete()


@dataclasses.dataclass
class ReplayOutcome:
    """Everything a replay produced."""

    requests: list[ArrayRequest]
    failures: list[BaseException]
    horizon_s: float

    @property
    def completed(self) -> list[ArrayRequest]:
        return [request for request in self.requests if request.complete_time is not None]

    @property
    def io_times(self) -> list[float]:
        return [request.io_time for request in self.completed]


@contextlib.contextmanager
def gc_paused():
    """Suspend cyclic GC for a bounded replay burst.

    A replay allocates hundreds of thousands of short-lived events that
    die by refcount, while everything the young-generation scans keep
    walking (requests, completions, the array graph — cyclic through the
    cached bound-method callbacks) stays reachable until the outcome is
    built, so mid-run collections cost double-digit time and free nothing.
    """
    paused = gc.isenabled()
    if paused:
        gc.disable()
    try:
        yield
    finally:
        if paused:
            gc.enable()


def feed_trace(state: tuple, records: list, start: int = 0, cut: int | None = None) -> int:
    """Submit ``records`` from ``start``; returns the index the feeder stopped at.

    ``state`` is ``(sim, array, requests, completions)``; every submitted
    request and its (defused) completion are appended to the two lists.
    The feed stops at the first record at or past ``cut`` whose arrival
    found the simulator otherwise empty, or at ``len(records)``.
    ``start == 0`` boots the feeder; a later ``start`` resumes a state
    paused at that record's arrival.
    """
    sim, array, requests, completions = state
    # The arrival schedule is known before the clock starts: batch-map its
    # geometry once (vectorised) so per-request map_extent is a probe.
    warm_extent_cache(array.layout, records[start:])
    feeder = _Feeder(sim, array, records, requests, completions, start, cut)
    sim.run_until_triggered(feeder.start())
    return feeder.index


def close_replay(
    state: tuple, duration_s: float, extra_settle_s: float, finalize: bool
) -> ReplayOutcome:
    """Drain a fully fed replay to its horizon and return its outcome.

    The measurement horizon is ``max(duration_s, last completion)`` plus
    ``extra_settle_s``; with ``finalize`` the parity-lag integrals are
    closed there (so trailing idle-time scrubbing inside the horizon
    counts, exactly as a fixed observation window would in a testbed).
    """
    sim, array, requests, completions = state
    outcomes = sim.run_until_triggered(gather(sim, completions))
    failures = [value for ok, value in outcomes if not ok]
    horizon = max(duration_s, sim.now) + extra_settle_s
    sim.run(until=horizon)
    if finalize:
        array.finalize()
    return ReplayOutcome(requests=requests, failures=failures, horizon_s=horizon)


def replay_trace(
    sim: Simulator,
    array: DiskArray,
    trace: Trace,
    extra_settle_s: float = 0.0,
    finalize: bool = True,
) -> ReplayOutcome:
    """Replay ``trace`` against ``array`` and close the books (see :func:`close_replay`)."""
    state = (sim, array, [], [])
    with gc_paused():
        feed_trace(state, list(trace))
        return close_replay(state, trace.duration_s, extra_settle_s, finalize)
