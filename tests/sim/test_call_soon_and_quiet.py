"""``Simulator.call_soon``, ``Simulator.quiet`` and the ``Event`` settle
calls: the public surface callback machines use to schedule a step now,
to run it in place, or to settle an event without writing its slots."""

import pytest

from repro.sim import Simulator


class TestCallSoon:
    def test_runs_at_the_current_instant_after_what_is_due(self):
        sim = Simulator()
        order = []
        first = sim.event()
        first.add_callback(lambda _e: order.append("succeed"))
        first.succeed()
        sim.call_soon(lambda _e: order.append("call_soon"))
        sim.run()
        assert order == ["succeed", "call_soon"]
        assert sim.now == 0.0

    def test_takes_the_position_succeed_would(self):
        sim = Simulator()
        order = []

        def cascade(_event):
            sim.call_soon(lambda _e: order.append("a"))
            sim.event().succeed().add_callback(lambda _e: order.append("b"))
            sim.call_soon(lambda _e: order.append("c"))

        sim.timeout(1.0).add_callback(cascade)
        sim.run()
        assert order == ["a", "b", "c"]

    def test_returns_a_triggered_event(self):
        sim = Simulator()
        seen = []
        event = sim.call_soon(seen.append)
        assert event.triggered and event.ok
        sim.run()
        assert seen == [event] and event.processed

    def test_exception_is_delivered_to_the_callback(self):
        sim = Simulator()
        seen = []
        failure = RuntimeError("boom")
        event = sim.call_soon(lambda e: seen.append(e.exception), failure)
        assert not event.ok
        sim.run()  # the callback handles it: nothing escapes
        assert seen == [failure]

    def test_counts_as_one_dispatched_event(self):
        sim = Simulator()
        sim.call_soon(lambda _e: None)
        sim.run()
        assert sim.events_dispatched == 1


class TestQuiet:
    def test_empty_simulator_is_quiet(self):
        assert Simulator().quiet()

    def test_future_events_keep_it_quiet(self):
        sim = Simulator()
        sim.timeout(2.0)
        assert sim.quiet()

    def test_something_due_now_is_not_quiet(self):
        sim = Simulator()
        sim.event().succeed()
        assert not sim.quiet()

    @pytest.mark.parametrize("delay", [0.0, 1.0])
    def test_sees_simultaneous_heap_entries(self, delay):
        # Two timeouts for one instant: inside the first one's callback,
        # the second is still due now (in the heap, or the bucket at t=0).
        sim = Simulator()
        states = []
        sim.timeout(delay).add_callback(lambda _e: states.append(sim.quiet()))
        sim.timeout(delay).add_callback(lambda _e: states.append(sim.quiet()))
        sim.run()
        assert states == [False, True]


class TestComplete:
    def test_without_listeners_completes_in_place(self):
        sim = Simulator()
        event = sim.event()
        event.complete("x")
        assert event.processed and event.value == "x"
        seen = []
        event.add_callback(lambda e: seen.append(e.value))  # a late listener runs at once
        assert seen == ["x"]
        sim.run()
        assert sim.events_dispatched == 0

    def test_with_listeners_it_is_succeed(self):
        sim = Simulator()
        event = sim.event()
        seen = []
        event.add_callback(lambda e: seen.append(e.value))
        event.complete("x")
        assert seen == [] and not event.processed
        sim.run()
        assert seen == ["x"] and sim.events_dispatched == 1

    def test_refuses_a_triggered_event(self):
        sim = Simulator()
        event = sim.event().succeed()
        with pytest.raises(RuntimeError):
            event.complete()
        with pytest.raises(RuntimeError):
            event.complete_inline()


class TestCompleteInline:
    def test_quiet_kernel_runs_listeners_in_place(self):
        sim = Simulator()
        event = sim.event()
        seen = []
        event.add_callback(lambda e: seen.append(e.value))
        event.complete_inline("x")
        assert seen == ["x"] and event.processed and event.ok
        sim.run()
        assert sim.events_dispatched == 0

    def test_busy_kernel_schedules_behind_what_is_due(self):
        sim = Simulator()
        order = []
        sim.call_soon(lambda _e: order.append("due"))
        event = sim.event()
        event.add_callback(lambda _e: order.append("listener"))
        event.complete_inline()
        assert order == []
        sim.run()
        assert order == ["due", "listener"]


class TestFailScheduled:
    def test_a_scheduled_completion_fails_in_its_place(self):
        sim = Simulator()
        order = []
        completion = sim.trigger_at(sim.event(), 2.0, value="done")
        completion.add_callback(lambda e: order.append(("completion", e.exception)))
        sim.timeout(2.0).add_callback(lambda _e: order.append(("after", None)))
        failure = RuntimeError("device died")
        assert completion.fail_scheduled(failure)
        sim.run()
        assert order == [("completion", failure), ("after", None)]
        assert not completion.ok

    def test_a_dispatched_event_is_left_alone(self):
        sim = Simulator()
        completion = sim.trigger_at(sim.event(), 1.0, value="done")
        sim.run()
        assert not completion.fail_scheduled(RuntimeError("too late"))
        assert completion.value == "done"
