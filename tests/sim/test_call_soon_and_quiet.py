"""``Simulator.call_soon`` and ``Simulator.quiet``: the public surface
callback machines use to schedule a step now, or to run it in place."""

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
