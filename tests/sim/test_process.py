"""Unit tests for coroutine processes."""

import pytest

from repro.sim import AllOf, Simulator


@pytest.fixture()
def sim():
    return Simulator()


class TestBasics:
    def test_process_runs_and_returns(self, sim):
        def body():
            yield sim.timeout(1.0)
            yield sim.timeout(2.0)
            return "finished"

        proc = sim.process(body())
        sim.run()
        assert sim.now == 3.0
        assert proc.value == "finished"

    def test_process_is_event_waitable(self, sim):
        def child():
            yield sim.timeout(1.0)
            return 7

        def parent():
            value = yield sim.process(child())
            return value * 2

        parent_proc = sim.process(parent())
        sim.run()
        assert parent_proc.value == 14

    def test_process_receives_event_value(self, sim):
        def body():
            value = yield sim.timeout(1.0, value="payload")
            return value

        proc = sim.process(body())
        sim.run()
        assert proc.value == "payload"

    def test_starts_at_current_time_without_advancing(self, sim):
        times = []

        def body():
            times.append(sim.now)
            yield sim.timeout(0.5)

        def spawner():
            yield sim.timeout(3.0)
            sim.process(body())

        sim.process(spawner())
        sim.run()
        assert times == [3.0]

    def test_non_generator_rejected(self, sim):
        with pytest.raises(TypeError):
            sim.process(lambda: None)  # type: ignore[arg-type]

    def test_yielding_non_event_fails_process(self, sim):
        def body():
            yield 42  # not an Event

        proc = sim.process(body())
        proc.defused = True
        sim.run()
        assert isinstance(proc.exception, TypeError)

    def test_yielding_another_simulators_event_fails_process(self, sim):
        other = Simulator()
        closed = []

        def body():
            try:
                yield other.timeout(1.0)
            finally:
                closed.append(True)

        proc = sim.process(body())
        proc.defused = True
        sim.run()
        assert isinstance(proc.exception, ValueError)
        assert "another simulator" in str(proc.exception)
        assert closed == [True]  # the generator was closed

    def test_is_alive(self, sim):
        def body():
            yield sim.timeout(5.0)

        proc = sim.process(body())
        assert proc.is_alive
        sim.run()
        assert not proc.is_alive


class TestFailurePropagation:
    def test_failed_event_raises_inside_process(self, sim):
        trigger = sim.event()

        def body():
            try:
                yield trigger
            except ValueError as exc:
                return f"caught {exc}"

        proc = sim.process(body())
        trigger.fail(ValueError("boom"))
        sim.run()
        assert proc.value == "caught boom"

    def test_uncaught_exception_fails_process(self, sim):
        def body():
            yield sim.timeout(1.0)
            raise RuntimeError("died")

        proc = sim.process(body())
        proc.defused = True
        sim.run()
        assert isinstance(proc.exception, RuntimeError)

    def test_uncaught_exception_surfaces_in_run(self, sim):
        def body():
            yield sim.timeout(1.0)
            raise RuntimeError("unwatched crash")

        sim.process(body())
        with pytest.raises(RuntimeError, match="unwatched crash"):
            sim.run()

    def test_failure_propagates_to_waiting_parent(self, sim):
        def child():
            yield sim.timeout(1.0)
            raise ValueError("child died")

        def parent():
            try:
                yield sim.process(child())
            except ValueError:
                return "handled"

        proc = sim.process(parent())
        sim.run()
        assert proc.value == "handled"


class TestComposition:
    def test_parallel_fanout_with_allof(self, sim):
        """The RAID 5 pattern: issue several I/Os, wait for all."""

        def disk_io(latency):
            yield sim.timeout(latency)
            return latency

        def controller():
            ios = [sim.process(disk_io(t)) for t in (3.0, 1.0, 2.0)]
            results = yield AllOf(sim, ios)
            return results

        proc = sim.process(controller())
        sim.run()
        assert sim.now == 3.0
        assert proc.value == [3.0, 1.0, 2.0]

    def test_many_processes_interleave_deterministically(self, sim):
        order = []

        def body(tag, delay):
            yield sim.timeout(delay)
            order.append(tag)

        for tag in "abc":
            sim.process(body(tag, 1.0))  # identical delays: FIFO tie-break
        sim.run()
        assert order == ["a", "b", "c"]
