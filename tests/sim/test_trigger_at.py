"""``Simulator.trigger_at``: trigger a built event at an absolute time.

The call takes the next sequence number and places the event by the
kernel's ordering invariant (the current-instant bucket when ``when`` is
now, the heap otherwise), so it keeps exact ``(time, seq)`` order with
every other way of scheduling.
"""

import pytest

from repro.sim import Simulator


def _record(log, label):
    return lambda _event: log.append(label)


class TestOrdering:
    def test_now_dispatches_after_everything_already_due(self):
        # Inside a callback at t=1: a heap entry for t=1 and a bucketed
        # event are both due; an event triggered at now goes after them.
        sim = Simulator()
        log = []

        def at_one(_event):
            sim.event().succeed().add_callback(_record(log, "bucketed"))
            event = sim.event()
            event.add_callback(_record(log, "trigger_at"))
            sim.trigger_at(event, sim.now)

        sim.timeout(1.0).add_callback(at_one)
        sim.timeout(1.0).add_callback(_record(log, "heap"))
        sim.run()
        assert log == ["heap", "bucketed", "trigger_at"]
        assert sim.now == 1.0

    def test_now_at_time_zero_keeps_fifo_with_succeed(self):
        sim = Simulator()
        log = []
        sim.event().succeed().add_callback(_record(log, "first"))
        event = sim.event()
        event.add_callback(_record(log, "trigger_at"))
        sim.trigger_at(event, 0.0)
        sim.event().succeed().add_callback(_record(log, "last"))
        sim.run()
        assert log == ["first", "trigger_at", "last"]

    def test_equal_future_times_dispatch_in_call_order(self):
        sim = Simulator()
        log = []
        sim.timeout(2.0).add_callback(_record(log, "timeout-early"))
        for label in ("a", "b"):
            event = sim.event()
            event.add_callback(_record(log, label))
            sim.trigger_at(event, 2.0)
        sim.timeout(2.0).add_callback(_record(log, "timeout-late"))
        event = sim.event()
        event.add_callback(_record(log, "c"))
        sim.trigger_at(event, 2.0)
        sim.run()
        assert log == ["timeout-early", "a", "b", "timeout-late", "c"]

    def test_sequence_continues_across_a_partial_drain(self):
        sim = Simulator()
        log = []
        for label, when in (("first-0", 1.0), ("first-1", 3.0)):
            event = sim.event()
            event.add_callback(_record(log, label))
            sim.trigger_at(event, when)
        sim.run(until=2.0)
        assert log == ["first-0"]
        sim.timeout(1.0).add_callback(_record(log, "single"))  # fires at 3.0
        event = sim.event()
        event.add_callback(_record(log, "second"))
        sim.trigger_at(event, 3.0)
        sim.run()
        assert log == ["first-0", "first-1", "single", "second"]

    def test_future_time_advances_the_clock_exactly(self):
        sim = Simulator()
        when = 0.1 + 0.2  # not a round float: the heap key is used as given
        event = sim.trigger_at(sim.event(), when)
        sim.run()
        assert event.processed
        assert sim.now == when


class TestValidation:
    def test_a_time_in_the_past_raises_and_consumes_nothing(self):
        sim = Simulator()
        sim.run(until=1.0)
        event = sim.event()
        for when in (0.5, float("-inf"), float("nan")):
            with pytest.raises(ValueError):
                sim.trigger_at(event, when)
        assert not event.triggered
        assert sim.events_dispatched == 0 and sim.peek() == float("inf")
        # Nothing was consumed: the event is still usable and keeps FIFO
        # order with a timeout armed after it.
        log = []
        event.add_callback(_record(log, "event"))
        sim.trigger_at(event, 2.0)
        sim.timeout(1.0).add_callback(_record(log, "timeout"))
        sim.run()
        assert log == ["event", "timeout"]

    def test_a_triggered_event_raises(self):
        sim = Simulator()
        done = sim.event().succeed()
        with pytest.raises(RuntimeError):
            sim.trigger_at(done, 1.0)
        scheduled = sim.trigger_at(sim.event(), 1.0)
        with pytest.raises(RuntimeError):
            sim.trigger_at(scheduled, 2.0)
        with pytest.raises(RuntimeError):
            sim.trigger_at(sim.timeout(1.0), 2.0)


class TestOutcome:
    def test_value_reaches_the_waiter(self):
        sim = Simulator()
        event = sim.event()
        seen = []

        def waiter():
            seen.append((yield event))
            seen.append(sim.now)

        sim.process(waiter())
        assert sim.trigger_at(event, 4.0, value="v") is event
        assert event.triggered and event.ok
        sim.run()
        assert seen == ["v", 4.0]

    def test_exception_reaches_the_waiter(self):
        sim = Simulator()
        event = sim.event()
        failure = RuntimeError("boom")
        seen = []

        def waiter():
            try:
                yield event
            except RuntimeError as exc:
                seen.append((exc, sim.now))

        sim.process(waiter())
        sim.trigger_at(event, 2.5, exception=failure)
        assert event.triggered and not event.ok
        sim.run()
        assert seen == [(failure, 2.5)]

    def test_unhandled_exception_escapes_the_run_loop(self):
        sim = Simulator()
        sim.trigger_at(sim.event(), 1.0, exception=KeyError("lost"))
        with pytest.raises(KeyError):
            sim.run()
