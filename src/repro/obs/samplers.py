"""Periodic time-series sampling of array state.

A :class:`PeriodicSampler` runs on a simulator clock
(:meth:`~repro.sim.Simulator.every`) that ticks every ``period_s`` of
*simulated* time; each tick evaluates a set of named probes (plain
callables returning a float), and appends the samples to in-memory series
— optionally mirroring each sample into a :class:`~repro.obs.Tracer`
counter track so the series shows up in Perfetto alongside the spans.

:func:`attach_array_probes` wires up the standard probes for a
:class:`~repro.array.controller.DiskArray`: outstanding client requests,
back-end queue depth, dirty-stripe count, parity-lag bytes, and per-disk
utilisation (busy time per interval, from the disk's own accounting).

A sampler keeps rescheduling itself until :meth:`~PeriodicSampler.stop`
is called or its ``until`` horizon passes — give it a horizon (or stop
it) before draining a simulator with an open-ended ``run()``, or the
queue never empties.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.obs.tracer import Tracer

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.array.controller import DiskArray
    from repro.sim import Clock, Simulator


@dataclasses.dataclass
class SampleSeries:
    """One probe's time series."""

    name: str
    times_s: list[float] = dataclasses.field(default_factory=list)
    values: list[float] = dataclasses.field(default_factory=list)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def mean(self) -> float:
        return sum(self.values) / len(self.values) if self.values else 0.0

    @property
    def peak(self) -> float:
        return max(self.values) if self.values else 0.0

    def to_dict(self) -> dict:
        return {"name": self.name, "times_s": list(self.times_s), "values": list(self.values)}


class PeriodicSampler:
    """Samples named probes every ``period_s`` of simulated time."""

    def __init__(
        self,
        sim: "Simulator",
        period_s: float = 0.010,
        tracer: Tracer | None = None,
        max_samples_per_series: int = 1_000_000,
    ) -> None:
        if period_s <= 0:
            raise ValueError(f"period must be > 0, got {period_s}")
        self.sim = sim
        self.period_s = period_s
        self.tracer = tracer
        self.max_samples_per_series = max_samples_per_series
        self.probes: dict[str, typing.Callable[[], float]] = {}
        self.series: dict[str, SampleSeries] = {}
        self.dropped = 0
        self._clock: "Clock | None" = None

    def add_probe(self, name: str, probe: typing.Callable[[], float]) -> None:
        """Register ``probe`` under ``name`` (must be unique)."""
        if name in self.probes:
            raise ValueError(f"probe {name!r} already registered")
        self.probes[name] = probe
        self.series[name] = SampleSeries(name)

    # -- lifecycle ------------------------------------------------------------------

    def start(self, until: float | None = None) -> None:
        """Start sampling: now, then every ``period_s``.

        ``until`` bounds the sampler in simulated time; without it the
        sampler runs until :meth:`stop` (and keeps the event queue
        non-empty, so don't ``run()`` a simulator to empty around one).
        """
        if self._clock is not None:
            raise RuntimeError("sampler already started")
        self._clock = self.sim.every(self.period_s, self.sample_once, until, self._ended)

    def stop(self) -> None:
        """Stop sampling after the current tick."""
        if self._clock is not None:
            self._clock.stop()

    def _ended(self) -> None:
        self._clock = None

    def sample_once(self) -> None:
        """Evaluate every probe once at the current simulated time."""
        now = self.sim.now
        tracer = self.tracer
        for name, probe in self.probes.items():
            try:
                value = float(probe())
            except Exception:
                # A probe observing failed hardware (e.g. dirty-stripe
                # count after a marking-memory fault) must not stop the
                # sampler; skip the sample and keep going.
                self.dropped += 1
                continue
            series = self.series[name]
            if len(series.values) < self.max_samples_per_series:
                series.times_s.append(now)
                series.values.append(value)
            else:
                self.dropped += 1
            if tracer is not None:
                tracer.counter(name, value)

    # -- export ----------------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "period_s": self.period_s,
            "dropped": self.dropped,
            "series": {name: series.to_dict() for name, series in self.series.items()},
        }

    def __repr__(self) -> str:
        sizes = {name: len(series) for name, series in self.series.items()}
        return f"<PeriodicSampler every {self.period_s:g}s {sizes!r}>"


def _utilisation_probe(sim: "Simulator", disk) -> typing.Callable[[], float]:
    """Busy fraction of ``disk`` over the interval since the last sample."""
    state = {"time": sim.now, "busy": disk.stats.busy_time}

    def probe() -> float:
        now = sim.now
        busy = disk.stats.busy_time
        interval = now - state["time"]
        delta = busy - state["busy"]
        state["time"] = now
        state["busy"] = busy
        if interval <= 0:
            return 0.0
        # Accounting charges a command's full service time up front, so a
        # single interval can show > 1; clamp, the excess belongs to the
        # next interval visually anyway.
        return min(delta / interval, 1.0)

    return probe


def attach_array_probes(sampler: PeriodicSampler, array: "DiskArray") -> None:
    """Register the standard array probes on ``sampler``.

    * ``outstanding_requests`` — client requests queued or in flight;
    * ``backend_queue_depth`` — commands waiting in back-end driver queues;
    * ``dirty_stripes`` — stripes currently marked unredundant;
    * ``parity_lag_bytes`` — the paper's exposure quantity;
    * ``disk<N>_utilisation`` — per-member busy fraction per interval.
    """
    sampler.add_probe("outstanding_requests", lambda: float(array.detector.outstanding))
    sampler.add_probe(
        "backend_queue_depth",
        lambda: float(sum(driver.queued for driver in array.drivers)),
    )
    sampler.add_probe("dirty_stripes", lambda: float(array.marks.count))
    sampler.add_probe("parity_lag_bytes", lambda: float(array.parity_lag_bytes))
    for index, disk in enumerate(array.disks):
        sampler.add_probe(f"disk{index}_utilisation", _utilisation_probe(sampler.sim, disk))
