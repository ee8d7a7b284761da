"""Live redundancy-exposure telemetry: windowed achieved MTTDL/MDLR.

`repro.availability` computes the paper's §3 quantities *analytically*,
and the :class:`~repro.availability.lag.ParityLagTracker` integrates them
over the **whole** run.  This module makes the same quantities visible
*while the run is in flight*, over a sliding window — availability as a
trajectory under load, not a closed-form endpoint:

* :class:`WindowedExposureEstimator` — the (time, lag) transition history
  over the last ``window_s`` seconds, answering ``unprotected_fraction``
  and ``mean_lag_bytes`` with the exact same time-weighted-integral math
  the whole-run tracker uses, just clipped to the window;
* :class:`ExposureMonitor` — the hub the array controller feeds: lag
  transitions update the estimator and the registry gauges, per-stripe
  dirty/clean events build dwell-time distributions in mergeable
  :class:`~repro.obs.hist.HistogramSet` histograms, and the §3 equations
  (via :func:`~repro.availability.afraid_mttdl` /
  :func:`~repro.availability.afraid_mdlr`) turn the windowed fractions
  into *windowed achieved* MTTDL hours and MDLR bytes/hour;
* :func:`start_exposure_poller` — a simulation process that periodically
  refreshes the derived gauges, evaluates SLO rules, and snapshots the
  registry for JSONL export.

The window math is exposed as free functions (:func:`lag_integral`,
:func:`unprotected_time`) over explicit transition lists so the property
"windowed integrals over a partition sum to the whole-run integral" is
directly testable.
"""

from __future__ import annotations

import collections
import functools
import typing

from repro.availability import ReliabilityParams, organization_mdlr, organization_mttdl
from repro.obs.hist import HistogramSet, LatencyHistogram
from repro.obs.registry import MetricsRegistry

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.array.controller import DiskArray
    from repro.obs.export import RegistrySnapshotter
    from repro.obs.slo import SloEngine
    from repro.sim import Simulator

#: Histogram classes the monitor records dwell times into: every cleaned
#: stripe lands in ``dirty_dwell``, and also in a per-cause class.
DWELL_CLASS = "dirty_dwell"
DWELL_CAUSES = ("scrub", "write", "rebuild")


# -- window integrals over explicit transition histories -------------------------------


def _clipped_segments(
    transitions: typing.Sequence[tuple[float, float]], a: float, b: float
) -> typing.Iterator[tuple[float, float]]:
    """Yield ``(lag, duration)`` pieces of the step function clipped to [a, b].

    ``transitions`` is a time-sorted list of (time, lag): each lag holds
    from its transition until the next one, and the last holds until ``b``.
    """
    n = len(transitions)
    for i in range(n):
        t0, lag = transitions[i]
        t1 = transitions[i + 1][0] if i + 1 < n else b
        lo = t0 if t0 > a else a
        hi = t1 if t1 < b else b
        if hi > lo:
            yield lag, hi - lo


def lag_integral(
    transitions: typing.Sequence[tuple[float, float]], a: float, b: float
) -> float:
    """∫ lag dt over [a, b] (byte·seconds) of a transition history."""
    return sum(lag * dt for lag, dt in _clipped_segments(transitions, a, b))


def unprotected_time(
    transitions: typing.Sequence[tuple[float, float]], a: float, b: float
) -> float:
    """Seconds within [a, b] during which the lag was strictly positive."""
    return sum(dt for lag, dt in _clipped_segments(transitions, a, b) if lag > 0)


class WindowedExposureEstimator:
    """Sliding-window unprotected-fraction and mean-lag estimator.

    Keeps the recent (time, lag) transitions in a deque, lazily trimming
    everything more than one transition older than the window start — the
    one retained older transition supplies the lag value in force when
    the window opens.  Until ``window_s`` has elapsed the window is the
    whole run so far, so early answers match the whole-run tracker.
    """

    def __init__(self, window_s: float, start_time: float = 0.0) -> None:
        if window_s <= 0:
            raise ValueError(f"window must be > 0, got {window_s}")
        self.window_s = window_s
        self._start = start_time
        self._events: collections.deque[tuple[float, float]] = collections.deque(
            [(start_time, 0.0)]
        )

    def record(self, time: float, lag_bytes: float) -> None:
        last_time, last_lag = self._events[-1]
        if time < last_time:
            raise ValueError(f"time went backwards: {time} < {last_time}")
        if lag_bytes != last_lag:
            self._events.append((time, lag_bytes))

    @property
    def current_lag_bytes(self) -> float:
        return self._events[-1][1]

    def window_bounds(self, now: float) -> tuple[float, float]:
        """The [a, b] interval the estimates cover at ``now``."""
        a = now - self.window_s
        if a < self._start:
            a = self._start
        return a, now

    def _trim(self, window_start: float) -> None:
        events = self._events
        while len(events) >= 2 and events[1][0] <= window_start:
            events.popleft()

    def unprotected_fraction(self, now: float) -> float:
        a, b = self.window_bounds(now)
        if b <= a:
            return 0.0
        self._trim(a)
        return unprotected_time(self._events, a, b) / (b - a)

    def mean_lag_bytes(self, now: float) -> float:
        a, b = self.window_bounds(now)
        if b <= a:
            return 0.0
        self._trim(a)
        return lag_integral(self._events, a, b) / (b - a)

    def __repr__(self) -> str:
        return (
            f"<WindowedExposureEstimator window={self.window_s:g}s "
            f"events={len(self._events)} lag={self.current_lag_bytes:g}B>"
        )


class ExposureMonitor:
    """Turns the controller's dirty-stripe events into live availability.

    The controller (and scrubber/rebuild paths inside it) call the hook
    methods; the monitor maintains:

    * registry gauges ``dirty_stripes``, ``parity_lag_bytes``,
      ``scrub_backlog_marks`` (refreshed on every lag transition) and
      ``windowed_unprotected_fraction``, ``windowed_mttdl_h``,
      ``windowed_mdlr_bytes_per_h``, ``achieved_mttdl_h`` (refreshed by
      :meth:`publish`, typically from :func:`start_exposure_poller`);
    * registry counters ``forced_scrubs_total`` and
      ``stripes_scrubbed_total``;
    * per-stripe dirty-dwell distributions in :attr:`hists` — class
      ``dirty_dwell`` plus ``dirty_dwell_<cause>`` for each clean cause
      (scrub / overwrite in RAID 5 mode / rebuild) — exported into the
      registry as the ``stripe_dirty_dwell_seconds`` histogram.

    Everything works with ``registry=None`` too: the windowed estimator
    and dwell histograms are useful on their own, and the harness always
    collects them (like latency histograms, they are too cheap to gate).
    """

    def __init__(
        self,
        window_s: float = 5.0,
        params: ReliabilityParams | None = None,
        min_dwell_s: float = 1e-6,
        buckets_per_decade: int = 24,
    ) -> None:
        self.params = params if params is not None else ReliabilityParams()
        self.window = WindowedExposureEstimator(window_s)
        self.hists = HistogramSet(min_dwell_s, buckets_per_decade)
        # Pre-create the dwell classes so the overall one can be shared
        # into a registry at attach time (recording still goes through
        # HistogramSet.record, keeping payload/merge semantics).
        for name in (DWELL_CLASS, *(f"{DWELL_CLASS}_{cause}" for cause in DWELL_CAUSES)):
            self.hists.hists.setdefault(
                name, LatencyHistogram(min_dwell_s, buckets_per_decade)
            )
        self.array: "DiskArray | None" = None
        self.registry: MetricsRegistry | None = None
        self._dirty_since: dict[int, float] = {}
        self._gauges = None  # bound at attach when a registry is present
        self._forced_scrubs = None
        self._stripes_scrubbed = None

    # -- wiring ----------------------------------------------------------------------

    def attach(self, array: "DiskArray", registry: MetricsRegistry | None = None) -> None:
        """Bind to ``array`` and (optionally) pre-register its metrics."""
        self.array = array
        if registry is not None:
            self.registry = registry
        if self.registry is not None:
            reg = self.registry
            self._gauges = {
                "dirty_stripes": reg.gauge(
                    "dirty_stripes", "stripes currently marked unredundant"
                ),
                "parity_lag_bytes": reg.gauge(
                    "parity_lag_bytes", "bytes of data not covered by parity"
                ),
                "scrub_backlog_marks": reg.gauge(
                    "scrub_backlog_marks", "marked sub-units awaiting scrub"
                ),
                "windowed_unprotected_fraction": reg.gauge(
                    "windowed_unprotected_fraction",
                    "fraction of the sliding window with parity lag > 0",
                ),
                "windowed_mttdl_h": reg.gauge(
                    "windowed_mttdl_h",
                    "eq. (2c) MTTDL over the sliding exposure window, hours",
                ),
                "windowed_mdlr_bytes_per_h": reg.gauge(
                    "windowed_mdlr_bytes_per_h",
                    "eq. (5) data-loss rate over the sliding window, bytes/hour",
                ),
                "achieved_mttdl_h": reg.gauge(
                    "achieved_mttdl_h",
                    "eq. (2c) MTTDL over the whole run so far, hours",
                ),
            }
            self._forced_scrubs = reg.counter(
                "forced_scrubs_total", "scrubs forced despite client load"
            )
            self._stripes_scrubbed = reg.counter(
                "stripes_scrubbed_total", "stripes returned to full redundancy by the scrubber"
            )
            reg.histogram(
                "stripe_dirty_dwell_seconds",
                "how long each stripe stayed unredundant",
                hist=self.hists.get(DWELL_CLASS),
            )

    # -- hooks the controller calls --------------------------------------------------

    def on_lag_change(
        self, now: float, lag_bytes: float, dirty_stripes: int, backlog_marks: int
    ) -> None:
        """The parity lag changed (mark, scrub, overwrite, or NVRAM loss)."""
        self.window.record(now, lag_bytes)
        gauges = self._gauges
        if gauges is not None:
            gauges["dirty_stripes"].set(dirty_stripes)
            gauges["parity_lag_bytes"].set(lag_bytes)
            gauges["scrub_backlog_marks"].set(backlog_marks)

    def stripe_dirtied(self, stripe: int, now: float) -> None:
        """``stripe`` just went from clean to dirty."""
        if stripe not in self._dirty_since:
            self._dirty_since[stripe] = now

    def stripe_cleaned(self, stripe: int, now: float, cause: str = "scrub") -> None:
        """``stripe`` just regained full redundancy; record its dwell."""
        since = self._dirty_since.pop(stripe, None)
        if since is None:
            return
        dwell = now - since
        self.hists.record(DWELL_CLASS, dwell)
        self.hists.record(f"{DWELL_CLASS}_{cause}", dwell)
        if self._stripes_scrubbed is not None and cause == "scrub":
            self._stripes_scrubbed.inc()

    def forced_scrub(self) -> None:
        """A scrub was requested with force=True (despite client load)."""
        if self._forced_scrubs is not None:
            self._forced_scrubs.inc()

    # -- derived quantities ----------------------------------------------------------

    def windowed_unprotected_fraction(self, now: float) -> float:
        return self.window.unprotected_fraction(now)

    def windowed_mean_lag_bytes(self, now: float) -> float:
        return self.window.mean_lag_bytes(now)

    def _ndisks(self) -> int:
        if self.array is None:
            raise RuntimeError("monitor not attached to an array")
        return self.array.ndisks

    def _organization(self) -> str:
        """The attached array's organization name (for model dispatch).

        Falls back to RAID 5 for array stand-ins that predate the
        organization attribute (test stubs, pickled snapshots).
        """
        if self.array is None:
            raise RuntimeError("monitor not attached to an array")
        organization = getattr(self.array, "organization", None)
        return "raid5" if organization is None else organization.name

    def windowed_mttdl_h(
        self, now: float, params: ReliabilityParams | None = None
    ) -> float:
        """Eq. (2c) (or the organization's analogue) over the sliding window."""
        params = params if params is not None else self.params
        return organization_mttdl(
            self._organization(),
            ndisks=self._ndisks(),
            mttf_disk_h=params.mttf_disk_h,
            mttr_h=params.mttr_h,
            unprotected_fraction=self.window.unprotected_fraction(now),
        )

    def windowed_mdlr_bytes_per_h(
        self, now: float, params: ReliabilityParams | None = None
    ) -> float:
        """Eq. (5) (or the organization's analogue) over the window's mean lag."""
        params = params if params is not None else self.params
        return organization_mdlr(
            self._organization(),
            ndisks=self._ndisks(),
            disk_bytes=params.disk_bytes,
            mttf_disk_h=params.mttf_disk_h,
            mttr_h=params.mttr_h,
            mean_lag_bytes=self.window.mean_lag_bytes(now),
        )

    def achieved_mttdl_h(
        self, now: float | None = None, params: ReliabilityParams | None = None
    ) -> float:
        """Eq. (2c) over the *whole run so far* — the MTTDL_x policy's metric.

        Computed from the array's whole-run
        :meth:`~repro.availability.lag.ParityLagTracker.snapshot_unprotected_fraction`
        with the organization's model, exactly as the policy computes it.
        """
        if self.array is None:
            raise RuntimeError("monitor not attached to an array")
        params = params if params is not None else self.params
        if now is None:
            now = self.array.now
        fraction = self.array.lag_tracker.snapshot_unprotected_fraction(now)
        value = organization_mttdl(
            self._organization(),
            ndisks=self.array.ndisks,
            mttf_disk_h=params.mttf_disk_h,
            mttr_h=params.mttr_h,
            unprotected_fraction=fraction,
        )
        if self._gauges is not None:
            self._gauges["achieved_mttdl_h"].set(value)
        return value

    # -- publication -----------------------------------------------------------------

    def publish(self, now: float) -> None:
        """Refresh the derived (windowed / whole-run) registry gauges."""
        gauges = self._gauges
        if gauges is None:
            return
        gauges["windowed_unprotected_fraction"].set(self.window.unprotected_fraction(now))
        gauges["windowed_mttdl_h"].set(self.windowed_mttdl_h(now))
        gauges["windowed_mdlr_bytes_per_h"].set(self.windowed_mdlr_bytes_per_h(now))
        if self.array is not None:
            gauges["achieved_mttdl_h"].set(self.achieved_mttdl_h(now))

    def finish(self, now: float) -> None:
        """Close out at the horizon: one last gauge refresh.

        Stripes still dirty at the horizon deliberately do **not**
        contribute dwell samples — their dwell is censored, and recording
        a truncated value would bias the distribution low.
        """
        self.publish(now)

    @property
    def open_dwells(self) -> int:
        """Stripes currently dirty (their dwell is still accumulating)."""
        return len(self._dirty_since)

    def __repr__(self) -> str:
        n = self.hists.get(DWELL_CLASS).count
        return (
            f"<ExposureMonitor window={self.window.window_s:g}s "
            f"dwells={n} open={self.open_dwells}>"
        )


def start_exposure_poller(
    sim: "Simulator",
    monitor: ExposureMonitor,
    *,
    period_s: float = 0.050,
    engine: "SloEngine | None" = None,
    snapshotter: "RegistrySnapshotter | None" = None,
    until: float | None = None,
) -> None:
    """Drive a monitor (and optionally an SLO engine and snapshotter) on a clock.

    Every ``period_s`` of simulated time: refresh the derived gauges,
    evaluate the SLO rules against the registry, and append a JSONL-able
    registry snapshot.  Like :class:`~repro.obs.samplers.PeriodicSampler`,
    the loop stops once the next tick would pass ``until`` — give it a
    horizon before draining a simulator with an open-ended ``run()``.
    """
    sim.every(
        period_s, functools.partial(_poll, sim, monitor, engine, snapshotter), until
    )


def _poll(
    sim: "Simulator",
    monitor: ExposureMonitor,
    engine: "SloEngine | None",
    snapshotter: "RegistrySnapshotter | None",
) -> None:
    """One exposure-poller tick (see :func:`start_exposure_poller`)."""
    now = sim.now
    monitor.publish(now)
    if engine is not None and monitor.registry is not None:
        engine.evaluate(now, monitor.registry)
    if snapshotter is not None and monitor.registry is not None:
        snapshotter.snap(now)
