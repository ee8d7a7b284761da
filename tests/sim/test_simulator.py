"""Unit and property tests for the Simulator run loop."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator


class TestClock:
    def test_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_custom_start_time(self):
        assert Simulator(start_time=100.0).now == 100.0

    def test_run_until_advances_clock_even_with_no_events(self):
        sim = Simulator()
        sim.run(until=50.0)
        assert sim.now == 50.0

    def test_run_backwards_rejected(self):
        sim = Simulator(start_time=10.0)
        with pytest.raises(ValueError):
            sim.run(until=5.0)

    def test_events_beyond_until_are_preserved(self):
        sim = Simulator()
        fired = []
        sim.timeout(10.0).add_callback(lambda e: fired.append(sim.now))
        sim.run(until=5.0)
        assert fired == []
        assert sim.now == 5.0
        sim.run()
        assert fired == [10.0]

    def test_peek(self):
        sim = Simulator()
        assert sim.peek() == float("inf")
        sim.timeout(3.0)
        assert sim.peek() == 3.0


class TestRunUntilTriggered:
    def test_returns_value(self):
        sim = Simulator()
        timeout = sim.timeout(2.0, value="v")
        assert sim.run_until_triggered(timeout) == "v"
        assert sim.now == 2.0

    def test_raises_if_queue_drains_first(self):
        sim = Simulator()
        event = sim.event()  # never triggered
        sim.timeout(1.0)
        with pytest.raises(RuntimeError):
            sim.run_until_triggered(event)


class TestTrace:
    def test_trace_hook_sees_every_dispatch(self):
        sim = Simulator()
        seen = []
        sim.set_trace(lambda t, e: seen.append(t))
        sim.timeout(1.0)
        sim.timeout(2.0)
        sim.run()
        assert seen == [1.0, 2.0]


class TestDeterminism:
    @given(delays=st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=1, max_size=50))
    @settings(max_examples=100, deadline=None)
    def test_events_fire_in_nondecreasing_time_order(self, delays):
        sim = Simulator()
        fired = []
        for i, delay in enumerate(delays):
            sim.timeout(delay, value=i).add_callback(lambda e: fired.append(sim.now))
        sim.run()
        assert len(fired) == len(delays)
        assert fired == sorted(fired)

    @given(delays=st.lists(st.floats(min_value=0.0, max_value=1e3, allow_nan=False), min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_identical_programs_produce_identical_trajectories(self, delays):
        def trajectory():
            sim = Simulator()
            log = []
            for i, delay in enumerate(delays):
                sim.timeout(delay, value=i).add_callback(
                    lambda e: log.append((sim.now, e.value))
                )
            sim.run()
            return log

        assert trajectory() == trajectory()

    @given(
        ties=st.integers(min_value=2, max_value=20),
        delay=st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_simultaneous_events_fire_in_schedule_order(self, ties, delay):
        sim = Simulator()
        fired = []
        for i in range(ties):
            sim.timeout(delay, value=i).add_callback(lambda e: fired.append(e.value))
        sim.run()
        assert fired == list(range(ties))


class TestEventsDispatched:
    def test_counts_dispatches_not_pending(self):
        sim = Simulator()
        sim.timeout(1.0)
        sim.timeout(5.0)
        assert sim.events_dispatched == 0
        sim.run(until=2.0)
        assert sim.events_dispatched == 1
        sim.run()
        assert sim.events_dispatched == 2

    def test_counts_process_machinery(self):
        sim = Simulator()

        def hopper():
            yield sim.timeout(1.0)
            yield sim.timeout(1.0)

        sim.process(hopper())
        sim.run()
        # Bootstrap event + two timeouts.  The process completion event is
        # elided when nothing listens for it (dispatching it would be a
        # no-op), so it does not count.
        assert sim.events_dispatched == 3

    def test_counts_awaited_process_completion(self):
        sim = Simulator()

        def hopper():
            yield sim.timeout(1.0)

        def waiter(proc):
            yield proc

        proc = sim.process(hopper())
        sim.process(waiter(proc))
        sim.run()
        # Two bootstraps + one timeout + hopper's completion event (it has
        # a listener, so it is scheduled and dispatched).  The waiter's own
        # completion is listener-free and elided.
        assert sim.events_dispatched == 4
