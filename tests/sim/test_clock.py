"""The periodic clock: ticks, its horizon, its end hook and stop."""

import pickle

import pytest

from repro.sim import Simulator


class _Ticks:
    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.times: list[float] = []
        self.ended: list[float] = []

    def tick(self) -> None:
        self.times.append(self.sim.now)

    def end(self) -> None:
        self.ended.append(self.sim.now)


def test_ticks_now_and_every_period_until_the_horizon():
    sim = Simulator()
    ticks = _Ticks(sim)
    sim.every(0.5, ticks.tick, until=2.2, end=ticks.end)
    assert ticks.times == []  # the first tick runs at a kick, not in place
    sim.run()
    assert ticks.times == [0.0, 0.5, 1.0, 1.5, 2.0]
    assert ticks.ended == [2.0]  # the next tick would pass the horizon


def test_a_tick_landing_on_the_horizon_still_runs():
    sim = Simulator()
    ticks = _Ticks(sim)
    sim.every(1.0, ticks.tick, until=2.0, end=ticks.end)
    sim.run()
    assert ticks.times == [0.0, 1.0, 2.0] and ticks.ended == [2.0]


def test_stop_ends_the_clock_at_its_next_tick():
    sim = Simulator()
    ticks = _Ticks(sim)
    clock = sim.every(1.0, ticks.tick, end=ticks.end)
    sim.run(until=2.5)
    clock.stop()
    sim.run()
    assert ticks.times == [0.0, 1.0, 2.0]
    assert ticks.ended == [3.0]


def test_a_running_clock_pickles():
    sim = Simulator()
    ticks = _Ticks(sim)
    sim.every(1.0, ticks.tick, until=4.0)
    sim.run(until=1.5)
    sim, ticks = pickle.loads(pickle.dumps((sim, ticks)))
    sim.run()
    assert ticks.times == [0.0, 1.0, 2.0, 3.0, 4.0]


@pytest.mark.parametrize("period", [0.0, -1.0, float("nan")])
def test_period_must_be_positive(period):
    with pytest.raises(ValueError, match="period must be > 0"):
        Simulator().every(period, lambda: None)
