"""Open-loop trace replay against an array.

Requests are issued at their trace timestamps regardless of completions
(open queueing), which is what makes the RAID 5 small-update penalty show
up as queueing delay under bursts — the effect the paper measures.
"""

from __future__ import annotations

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

    Replicates the old generator feeder event-for-event: one bootstrap
    event (matching the ``Process`` bootstrap), one pooled timeout per
    inter-arrival gap created at the *wake* position of the previous gap
    (so its sequence number — and therefore every same-instant tie-break
    against in-flight completions — is unchanged), and a listener-free
    finish that never schedules an event (matching the process-finish
    elision in ``Process._resume``).

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
        #: Completed by hand exactly the way a listener-free process
        #: finishes: value set, callbacks cleared, nothing scheduled.
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
        done = self.done
        done._value = None
        done.callbacks = None


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


def replay_trace(
    sim: Simulator,
    array: DiskArray,
    trace: Trace,
    extra_settle_s: float = 0.0,
    finalize: bool = True,
) -> ReplayOutcome:
    """Replay ``trace`` against ``array`` and close the books.

    The measurement horizon is ``max(trace duration, last completion)``
    plus ``extra_settle_s``; the parity-lag integrals are finalised there
    (so trailing idle-time scrubbing inside the horizon counts, exactly as
    a fixed observation window would in a testbed).
    """
    requests: list[ArrayRequest] = []
    completions: list[Event] = []

    records = list(trace)
    # The whole arrival schedule is known before the clock starts: batch-map
    # its geometry once (vectorised) so per-request map_extent is a probe.
    warm_extent_cache(array.layout, records)
    # Pause cyclic GC for the bounded duration of the run: a replay
    # allocates hundreds of thousands of short-lived events that die by
    # refcount, while everything the young-generation scans keep walking
    # (requests, completions, the array graph — cyclic through the cached
    # bound-method callbacks) stays reachable until the outcome is built,
    # so mid-run collections cost double-digit time and free nothing.
    paused = gc.isenabled()
    if paused:
        gc.disable()
    try:
        feeder_done = _Feeder(sim, array, records, requests, completions).start()
        sim.run_until_triggered(feeder_done)
        outcomes = sim.run_until_triggered(gather(sim, completions))
        failures = [value for ok, value in outcomes if not ok]

        horizon = max(trace.duration_s, sim.now) + extra_settle_s
        sim.run(until=horizon)
    finally:
        if paused:
            gc.enable()
    if finalize:
        array.finalize()
    return ReplayOutcome(requests=requests, failures=failures, horizon_s=horizon)
