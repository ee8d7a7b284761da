"""Edge-case and composition tests for the simulation kernel."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import AllOf, AnyOf, Resource, Simulator


@pytest.fixture()
def sim():
    return Simulator()


class TestNestedConditions:
    def test_allof_of_anyofs(self, sim):
        def racer(fast, slow):
            value = yield AnyOf(sim, [sim.timeout(fast, value="fast"), sim.timeout(slow, value="slow")])
            return value

        combined = AllOf(sim, [sim.process(racer(1.0, 5.0)), sim.process(racer(2.0, 3.0))])
        sim.run()
        assert combined.value == ["fast", "fast"]
        assert sim.now == 5.0  # the losing timeouts still fire

    def test_anyof_of_allofs(self, sim):
        slow_pair = AllOf(sim, [sim.timeout(4.0), sim.timeout(5.0)])
        fast_pair = AllOf(sim, [sim.timeout(1.0), sim.timeout(2.0)])
        winner = AnyOf(sim, [slow_pair, fast_pair])
        fired = []
        winner.add_callback(lambda e: fired.append(sim.now))
        sim.run()
        assert fired == [2.0]

    def test_allof_with_already_triggered_children(self, sim):
        done = sim.event()
        done.succeed("early")
        sim.run()
        combined = AllOf(sim, [done, sim.timeout(1.0, value="late")])
        sim.run()
        assert combined.value == ["early", "late"]

    def test_deep_chain_of_processes(self, sim):
        """A 100-deep chain of processes waiting on each other resolves."""

        def link(previous):
            if previous is None:
                yield sim.timeout(0.001)
                return 1
            depth = yield previous
            return depth + 1

        process = None
        for _ in range(100):
            process = sim.process(link(process))
        sim.run()
        assert process.value == 100


class TestResourceStress:
    @given(
        jobs=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=2.0),  # arrival offset
                st.floats(min_value=0.001, max_value=0.5),  # hold time
            ),
            min_size=1,
            max_size=40,
        ),
        capacity=st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=50, deadline=None)
    def test_capacity_never_exceeded_and_all_served(self, jobs, capacity):
        sim = Simulator()
        resource = Resource(sim, capacity=capacity)
        peak = [0]
        served = []

        def worker(arrival, hold):
            yield sim.timeout(arrival)
            yield resource.acquire()
            try:
                peak[0] = max(peak[0], resource.in_use)
                yield sim.timeout(hold)
            finally:
                resource.release()
            served.append(True)

        for arrival, hold in jobs:
            sim.process(worker(arrival, hold))
        sim.run()
        assert len(served) == len(jobs)
        assert peak[0] <= capacity
        assert resource.in_use == 0
        assert resource.queued == 0
